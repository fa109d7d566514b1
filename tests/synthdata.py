"""Synthetic partial multi-label instances for the test suite.

The generator draws a full-rank binary truth matrix, embeds it linearly into
feature space with additive Gaussian noise, and injects candidate-set label
noise on top. With the default noise scale the instances are cleanly
learnable by a linear model, which is what the solver-facing tests need.
"""

import numpy as np

from schirn import Dataset, NoiseSpec, inject_noise, solver
from schirn.linalg import numerical_rank


def make_synth(n, d, l, r, seed, noise_scale=0.35, rate_lo=0.25, rate_hi=0.45):
    """Return (dataset, noise_mask) where noise_mask = Y - Y_true."""
    rng = np.random.default_rng(seed)
    Y_true = None
    for _ in range(500):
        rates = rng.uniform(rate_lo, rate_hi, size=l)
        candidate = (rng.random((n, l)) < rates).astype(np.float64)
        if numerical_rank(candidate) == min(n, l):
            Y_true = candidate
            break
    if Y_true is None:
        raise RuntimeError("failed to draw a full-rank binary truth matrix")
    V = rng.standard_normal((l, d))
    X = Y_true @ V + noise_scale * rng.standard_normal((n, d))
    Y = inject_noise(Y_true, NoiseSpec(r=r, seed=seed + 1000))
    return Dataset(X=X, Y=Y, Y_true=Y_true), Y - Y_true


def count_w_steps(mp) -> list:
    """Makes ``mp`` (a MonkeyPatch) log each W step of fit (solver._w_step call); returns the log."""
    calls = []
    w_step = solver._w_step

    def counted(*args, **kwargs):
        calls.append(1)
        return w_step(*args, **kwargs)

    mp.setattr(solver, "_w_step", counted)
    return calls

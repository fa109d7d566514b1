"""Synthetic inputs for the benchmark workloads.

The construction follows the test suite's synthetic instances: a binary
ground-truth matrix with per-label rates in [0.25, 0.45], embedded linearly
into feature space, X = Y_true @ V + noise_scale * E with V and E standard
normal. Unlike the test suite, the label rates are fixed (evenly spaced over
that range) rather than drawn per seed: with drawn rates the average
precision of one shape varied about three times as much from seed to seed.

The instance is written out in the package's matrix text format, so the
program under test sees only files. Candidate-label noise is not added here:
every workload passes ``--r 2 --seed <seed>`` and the CLI injects it.

This module imports numpy only, never the package under test, so nothing the
generator does is counted by the traced run.
"""

import os
import shutil
from pathlib import Path

import numpy as np

# Bump when the construction changes, so cached inputs are regenerated.
GENERATOR_VERSION = 1


def draw(n: int, d: int, l: int, noise_scale: float, seed: int, stream: int):
    """Return (X, Y_true) for one (workload, seed); ``stream`` separates workloads."""
    rng = np.random.default_rng([seed, stream])
    rates = np.linspace(0.25, 0.45, l)
    for _ in range(100):
        truth = (rng.random((n, l)) < rates).astype(np.float64)
        if np.linalg.matrix_rank(truth) == min(n, l):
            break
    else:
        raise RuntimeError("no full-rank binary truth matrix in 100 draws")
    V = rng.standard_normal((l, d))
    X = truth @ V + noise_scale * rng.standard_normal((n, d))
    return X, truth


def write_matrix(path: Path, A: np.ndarray, binary: bool) -> None:
    """Matrix text format; floats as shortest round-trip repr, labels as 0/1."""
    fmt = (lambda v: str(int(v))) if binary else repr
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{A.shape[0]} {A.shape[1]}\n")
        for row in A.tolist():
            fh.write(" ".join(map(fmt, row)))
            fh.write("\n")


def ensure_inputs(cache_root: Path, name: str, shape, noise_scale: float, seed: int, stream: int) -> Path:
    """Write features.txt and truth.txt for (workload, seed) once; reuse them after.

    The directory appears atomically (written under a temporary name, then
    renamed), so an interrupted run never leaves a half-written input behind.
    """
    final = cache_root / f"{name}-seed{seed}-gen{GENERATOR_VERSION}"
    if (final / "truth.txt").is_file():
        return final
    tmp = cache_root / f".tmp-{final.name}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    X, truth = draw(*shape, noise_scale, seed, stream)
    write_matrix(tmp / "features.txt", X, binary=False)
    write_matrix(tmp / "truth.txt", truth, binary=True)
    try:
        tmp.rename(final)
    except OSError:
        # another run finished the same inputs first; theirs are identical
        shutil.rmtree(tmp, ignore_errors=True)
    return final

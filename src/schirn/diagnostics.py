"""Rank preservation reports and the sparse-perturbation rank bound checker.

The Monte-Carlo checker exercises the rank chain behind the method's
premise: for full-rank binary Y and binary N with N <= Y,
rank(Y - N) >= rank(Y) - rank(N) >= min(n, l) - rank(N). A reported
violation indicates a numerical-rank tolerance bug, not a counterexample.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .linalg import numerical_rank
from .solver import Model, binarize, predict_scores

__all__ = [
    "RankReport",
    "TheoremCheckResult",
    "rank_report",
    "verify_rank_theorem",
]


@dataclass(frozen=True)
class RankReport:
    """Numerical ranks of the prediction matrix (raw and binarized), Y, and Y_true.

    Both prediction ranks are reported because "rank of the predictions" is
    ambiguous between the raw score matrix and its thresholded version.
    """

    rank_prediction_scores: int
    rank_prediction_labels: int
    rank_observed: int
    rank_truth: int | None

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class TheoremCheckResult:
    """Tally of rank-bound violations over seeded Monte-Carlo trials."""

    trials: int
    violations: int
    min_observed_margin: int
    epsilon_requested: int
    epsilon_clipped: bool

    def as_dict(self) -> dict:
        return asdict(self)


def rank_report(model: Model, ds) -> RankReport:
    """Ranks of X W (raw and thresholded), the candidate matrix, and the truth."""
    scores = predict_scores(model, ds.X)
    return RankReport(
        rank_prediction_scores=numerical_rank(scores),
        rank_prediction_labels=numerical_rank(binarize(scores, model.params.threshold)),
        rank_observed=numerical_rank(ds.Y),
        rank_truth=numerical_rank(ds.Y_true) if ds.Y_true is not None else None,
    )


def _draw_full_rank_binary(rng: "np.random.Generator", n: int, l: int) -> np.ndarray:
    target = min(n, l)
    for _ in range(1000):
        Y = rng.integers(0, 2, size=(n, l)).astype(np.float64)
        if numerical_rank(Y) == target:
            return Y
    raise RuntimeError(f"could not draw a full-rank binary {n} x {l} matrix")


def verify_rank_theorem(n: int, l: int, epsilon: int, trials: int, seed: int) -> TheoremCheckResult:
    """Monte-Carlo check of rank(Y - N) >= min(n, l) - rank(N) under sparse N <= Y.

    Per trial (independent RNG stream derived from (seed, trial index)):
    draw a full-rank binary Y, place exactly epsilon ones uniformly among
    Y's nonzero positions to form N, and tally the margin
    rank(Y - N) - (min(n, l) - rank(N)). If a trial's Y has fewer than
    epsilon ones the count is reduced to what fits and the result is flagged.
    """
    for name, value in (("n", n), ("l", l)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    violations = 0
    min_margin: int | None = None
    clipped = False
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence((seed, trial)))
        Y = _draw_full_rank_binary(rng, n, l)
        ones = np.flatnonzero(Y.ravel() == 1.0)
        eps_t = min(epsilon, ones.size)
        clipped = clipped or eps_t < epsilon
        N = np.zeros(n * l)
        if eps_t > 0:
            N[rng.permutation(ones)[:eps_t]] = 1.0
        N = N.reshape(n, l)
        rank_n = numerical_rank(N) if eps_t > 0 else 0
        margin = numerical_rank(Y - N) - (min(n, l) - rank_n)
        if margin < 0:
            violations += 1
        min_margin = margin if min_margin is None else min(min_margin, margin)
    return TheoremCheckResult(
        trials=trials,
        violations=violations,
        min_observed_margin=int(min_margin),
        epsilon_requested=epsilon,
        epsilon_clipped=clipped,
    )

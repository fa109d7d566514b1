"""Ranking-based multi-label evaluation metrics.

Conventions, fixed across the package and stated in every output header:

* ranks are 1-based by descending score, ties broken by ascending label
  index (deterministic);
* equal scores on a (relevant, irrelevant) pair count as a ranking-loss
  violation;
* coverage is normalized by the label count l, so values are comparable to
  percentage-scale result tables;
* rows whose truth is all-zero or all-one have no relevant/irrelevant
  contrast and are excluded from average precision, ranking loss, coverage,
  and one-error. Hamming loss never excludes rows. When every row is
  excluded the ranking metrics are defined as 0 and the report flags it.

``_ranking`` applies these rules once for all four ranking metrics, from one
rank order per scorable row; the public functions read its result.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix

__all__ = [
    "MetricReport",
    "average_precision",
    "ranking_loss",
    "coverage",
    "hamming_loss",
    "one_error",
    "evaluate_all",
]


@dataclass(frozen=True)
class MetricReport:
    """The five metric values plus how many rows the ranking metrics used."""

    average_precision: float
    ranking_loss: float
    coverage: float
    hamming_loss: float
    one_error: float
    rows_scored: int
    rows_total: int

    @property
    def no_scorable_rows(self) -> bool:
        return self.rows_scored == 0

    def as_dict(self) -> dict:
        return {
            "average_precision": self.average_precision,
            "ranking_loss": self.ranking_loss,
            "coverage": self.coverage,
            "hamming_loss": self.hamming_loss,
            "one_error": self.one_error,
            "rows_scored": self.rows_scored,
            "rows_total": self.rows_total,
            "no_scorable_rows": self.no_scorable_rows,
        }


def _check_pair(scores, truth):
    S = as_matrix(scores, "scores")
    T = as_matrix(truth, "truth")
    if S.shape != T.shape:
        raise ValueError(f"scores shape {S.shape} != truth shape {T.shape}")
    if not np.all((T == 0.0) | (T == 1.0)):
        raise ValueError("truth must be binary")
    return S, T


def _mean(values: np.ndarray) -> float:
    # a running total in row order, not np.mean's pairwise sum, which rounds differently
    return float(np.cumsum(values)[-1] / values.size) if values.size else 0.0


def _ranking(scores, truth) -> dict:
    """The four ranking metrics and the row counts, from one validation of the pair.

    Applies every convention in the module docstring; the ``MetricReport``
    fields other than ``hamming_loss`` are its keys.
    """
    S, T = _check_pair(scores, truth)
    n, l = T.shape
    k = T.sum(axis=1)
    scorable = (k > 0) & (k < l)
    S, T, k = S[scorable], T[scorable], k[scorable]
    # truth in rank order: descending score, a stable sort keeps ties in label order
    R = np.take_along_axis(T, np.argsort(-S, axis=1, kind="stable"), axis=1)
    # the j-th relevant label in rank order has precision j / rank
    precision = np.cumsum(R, axis=1) / np.arange(1, l + 1)
    ap = np.empty(k.size)
    for count in np.unique(k):
        # .mean over an (m x count) block sums each row exactly as np.mean sums one row
        group = k == count
        ap[group] = precision[group][R[group] == 1.0].reshape(-1, int(count)).mean(axis=1)
    # ascending score with relevant before irrelevant among ties: every relevant label
    # ahead of an irrelevant one is a violation, equal scores included
    Q = np.take_along_axis(T, np.lexsort((-T, S), axis=1), axis=1)
    violations = (np.cumsum(Q, axis=1) * (1.0 - Q)).sum(axis=1)
    return {
        "average_precision": _mean(ap),
        "ranking_loss": _mean(violations / (k * (l - k))),
        "coverage": _mean((l - 1 - np.argmax(R[:, ::-1], axis=1)) / l),
        "one_error": _mean(R[:, 0] == 0.0),
        "rows_scored": k.size,
        "rows_total": n,
    }


def average_precision(scores, truth) -> float:
    """Mean precision at the ranks of the relevant labels."""
    return _ranking(scores, truth)["average_precision"]


def ranking_loss(scores, truth) -> float:
    """Fraction of (relevant, irrelevant) pairs ordered wrongly; ties count as violations."""
    return _ranking(scores, truth)["ranking_loss"]


def coverage(scores, truth) -> float:
    """How deep the ranking goes to capture all relevant labels, over l."""
    return _ranking(scores, truth)["coverage"]


def hamming_loss(pred, truth) -> float:
    """Fraction of label entries where the binary prediction disagrees with truth."""
    P = as_matrix(pred, "pred")
    T = as_matrix(truth, "truth")
    if P.shape != T.shape:
        raise ValueError(f"pred shape {P.shape} != truth shape {T.shape}")
    for name, M in (("pred", P), ("truth", T)):
        if not np.all((M == 0.0) | (M == 1.0)):
            raise ValueError(f"{name} must be binary")
    return float(np.mean(P != T))


def one_error(scores, truth) -> float:
    """Fraction of rows whose top-ranked label is not relevant."""
    return _ranking(scores, truth)["one_error"]


def evaluate_all(scores, pred, truth) -> MetricReport:
    """All five metrics for one (scores, binarized predictions, truth) triple."""
    ranking = _ranking(scores, truth)  # the (scores, truth) pair is checked before pred
    return MetricReport(hamming_loss=hamming_loss(pred, truth), **ranking)

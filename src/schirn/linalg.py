"""Dense linear-algebra kernels shared by the solver, metrics, and diagnostics.

The public kernels validate their inputs on entry (finite, correctly shaped) and
raise instead of propagating NaN/Inf. Factorizations are thin wrappers over
LAPACK via numpy; the contracts they must satisfy (reconstruction and
residual bounds, rank tolerance) are pinned by the test suite.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NumericalError",
    "EigResult",
    "as_matrix",
    "numerical_rank",
]

_EPS = np.finfo(np.float64).eps


class NumericalError(RuntimeError):
    """A factorization failed (eigendecomposition non-convergence)."""


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array with at least one row/column, all finite."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and column, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return arr


@dataclass(frozen=True)
class EigResult:
    """Symmetric eigendecomposition A = Q diag(w) Q^T with Q orthogonal."""

    Q: np.ndarray
    eigenvalues: np.ndarray


def _eigh(A: np.ndarray) -> EigResult:
    """Eigendecomposition of ``A``, which must already be a finite, symmetric float64 matrix: the
    callers form it symmetric and check it for NaN or Inf themselves."""
    try:
        w, Q = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed for {A.shape} input") from exc
    return EigResult(Q=Q, eigenvalues=w)


def numerical_rank(a) -> int:
    """Count of singular values above max(rows, cols) * eps * sigma_max."""
    A = as_matrix(a)
    s = np.linalg.svd(A, compute_uv=False)
    tol = max(A.shape) * _EPS * s[0]
    return int(np.count_nonzero(s > tol))


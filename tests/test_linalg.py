import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from schirn.linalg import (
    _eigh,
    as_matrix,
    numerical_rank,
)


class TestEigh:
    def test_diagonal(self):
        res = _eigh(np.diag([2.0, 5.0]))
        assert sorted(res.eigenvalues) == [2.0, 5.0]

    def test_identity(self):
        res = _eigh(np.eye(3))
        assert np.allclose(res.eigenvalues, 1.0)
        assert np.allclose(res.Q @ res.Q.T, np.eye(3), atol=1e-10)

    def test_off_diagonal(self):
        res = _eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(np.sort(res.eigenvalues), [-1.0, 1.0])

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((8, 8))
        A = (M + M.T) / 2
        res = _eigh(A)
        rebuilt = res.Q @ np.diag(res.eigenvalues) @ res.Q.T
        assert np.linalg.norm(rebuilt - A) <= 1e-10 * np.linalg.norm(A)
        assert np.allclose(res.Q @ res.Q.T, np.eye(8), atol=1e-10)


# the oracle for the N step (tests/test_solver.py); the package no longer needs it
def shrink(a, eps):
    """Soft-thresholding: shrink magnitudes by ``eps`` and zero the band [-eps, eps].

    Elementwise on arrays; sign is preserved and |shrink(a, eps)| = max(0, |a| - eps).
    """
    if eps < 0:
        raise ValueError(f"shrink threshold must be non-negative, got {eps}")
    out = np.sign(a) * np.maximum(np.abs(a) - eps, 0.0)
    if np.ndim(a) == 0:
        return float(out)
    return out


class TestShrink:
    def test_positive_branch(self):
        assert shrink(1.2, 0.5) == pytest.approx(0.7)

    def test_dead_zone(self):
        assert shrink(-0.3, 0.5) == 0.0

    def test_negative_branch(self):
        assert shrink(-0.9, 0.5) == pytest.approx(-0.4)

    def test_rejects_negative_eps(self):
        with pytest.raises(ValueError):
            shrink(1.0, -0.1)

    def test_elementwise_on_arrays(self):
        out = shrink(np.array([[1.2, -0.3], [-0.9, 0.0]]), 0.5)
        assert np.allclose(out, [[0.7, 0.0], [-0.4, 0.0]])

    @given(st.floats(-1e6, 1e6), st.floats(0, 1e6))
    def test_odd(self, a, eps):
        assert shrink(-a, eps) == -shrink(a, eps)

    @given(st.floats(-1e6, 1e6), st.floats(0, 1e6))
    def test_magnitude(self, a, eps):
        assert shrink(a, eps) == pytest.approx(np.sign(a) * max(0.0, abs(a) - eps))


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(5)) == 5

    def test_zero(self):
        assert numerical_rank(np.zeros((4, 3))) == 0

    def test_proportional_rows(self):
        assert numerical_rank(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1

    def test_transpose_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            A = rng.standard_normal((rng.integers(1, 30), rng.integers(1, 30)))
            if rng.random() < 0.5:
                # force rank deficiency
                A[:, -1] = A[:, 0] if A.shape[1] > 1 else A[:, -1]
            assert numerical_rank(A) == numerical_rank(A.T)


def test_as_matrix_rejects_empty():
    with pytest.raises(ValueError):
        as_matrix(np.zeros((0, 3)))

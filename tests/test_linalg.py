import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from schirn.linalg import (
    as_matrix,
    norms,
    numerical_rank,
    shrink,
    svd,
    sym_eig,
)


class TestSvd:
    def test_diagonal(self):
        res = svd(np.diag([3.0, 4.0]))
        assert np.allclose(res.singular_values, [4.0, 3.0])

    def test_identity(self):
        res = svd(np.eye(3))
        assert np.allclose(res.singular_values, [1.0, 1.0, 1.0])

    def test_rank_one_symmetric(self):
        res = svd(np.ones((2, 2)))
        assert np.allclose(res.singular_values, [2.0, 0.0], atol=1e-12)

    def test_round_trip_and_orthonormality(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            m = rng.integers(1, 200)
            n = rng.integers(1, 200)
            A = rng.standard_normal((m, n))
            res = svd(A)
            assert np.linalg.norm(res.reconstruct() - A) <= 1e-9 * max(1e-300, np.linalg.norm(A))
            k = min(m, n)
            assert np.allclose(res.U.T @ res.U, np.eye(k), atol=1e-10)
            assert np.allclose(res.V.T @ res.V, np.eye(k), atol=1e-10)
            assert np.all(np.diff(res.singular_values) <= 0)
            assert np.all(res.singular_values >= 0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            svd(np.array([[1.0, np.nan]]))

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            svd(np.ones(3))


class TestSymEig:
    def test_diagonal(self):
        res = sym_eig(np.diag([2.0, 5.0]))
        assert sorted(res.eigenvalues) == [2.0, 5.0]

    def test_identity(self):
        res = sym_eig(np.eye(3))
        assert np.allclose(res.eigenvalues, 1.0)
        assert np.allclose(res.Q @ res.Q.T, np.eye(3), atol=1e-10)

    def test_off_diagonal(self):
        res = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(np.sort(res.eigenvalues), [-1.0, 1.0])

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((8, 8))
        A = (M + M.T) / 2
        res = sym_eig(A)
        rebuilt = res.Q @ np.diag(res.eigenvalues) @ res.Q.T
        assert np.linalg.norm(rebuilt - A) <= 1e-10 * np.linalg.norm(A)
        assert np.allclose(res.Q @ res.Q.T, np.eye(8), atol=1e-10)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            sym_eig(np.ones((2, 3)))


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


class TestNorms:
    def test_diagonal(self):
        out = norms(np.diag([3.0, 4.0]))
        assert out.frobenius == pytest.approx(5.0)
        assert out.l1 == pytest.approx(7.0)
        assert out.nuclear == pytest.approx(7.0)

    def test_zero(self):
        out = norms(np.zeros((3, 2)))
        assert (out.frobenius, out.l1, out.nuclear) == (0.0, 0.0, 0.0)

    def test_rank_one(self):
        out = norms(np.ones((2, 2)))
        assert out.frobenius == pytest.approx(2.0)
        assert out.l1 == pytest.approx(4.0)
        assert out.nuclear == pytest.approx(2.0)

    def test_nuclear_dominates_frobenius(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            A = rng.standard_normal((rng.integers(1, 15), rng.integers(1, 15)))
            out = norms(A)
            assert out.nuclear >= out.frobenius - 1e-12


def test_as_matrix_rejects_empty():
    with pytest.raises(ValueError):
        as_matrix(np.zeros((0, 3)))

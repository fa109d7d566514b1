import os
import pickle
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schirn import Dataset, SchirnParams, Variant, cv, fit, load_model, save_model, solver
from schirn.linalg import NumericalError, numerical_rank, sym_eig
from schirn.solver import (
    SolverState,
    binarize,
    objective,
    predict_scores,
    update_c,
    update_lagrange,
    update_n,
    update_w,
)
from synthdata import count_w_steps, make_synth
from test_linalg import shrink


def default_params(**overrides):
    base = dict(alpha=1.0, beta=0.05, lam=10.0)
    base.update(overrides)
    return SchirnParams(**base)


def random_state(rng, n, d, l, mu=None):
    return SolverState(
        W=rng.standard_normal((d, l)),
        N=(rng.random((n, l)) < 0.2).astype(float),
        C=rng.standard_normal((n, l)),
        Lam=rng.standard_normal((n, l)),
        mu=float(rng.uniform(1e-4, 10.0)) if mu is None else mu,
    )


class TestParams:
    def test_defaults_match_schedule(self):
        p = default_params()
        assert (p.mu0, p.mu_max, p.rho, p.max_iter) == (1e-4, 10.0, 1.1, 100)
        assert p.tol == 0.0
        assert p.variant is Variant.HIGH_RANK
        assert p.threshold == 0.5
        assert p.c_shift == "paper"

    @pytest.mark.parametrize(
        "bad",
        [
            dict(alpha=0.0),
            dict(beta=-0.1),
            dict(lam=0.0),
            dict(mu0=0.0),
            dict(mu0=5.0, mu_max=1.0),
            dict(rho=1.0),
            dict(max_iter=-1),
            dict(tol=-1e-9),
            dict(threshold=0.0),
            dict(threshold=1.0),
            dict(c_shift="other"),
            dict(alpha=float("nan")),
            dict(beta=float("nan")),
            dict(beta=float("inf")),
            dict(lam=float("inf")),
            dict(mu0=float("nan")),
            dict(mu_max=float("inf")),
            dict(rho=float("inf")),
            dict(tol=float("inf")),
            dict(threshold=float("nan")),
        ],
    )
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            default_params(**bad)

    def test_variant_coercion_from_string(self):
        p = default_params(variant="low-rank")
        assert p.variant is Variant.LOW_RANK


class TestUpdateW:
    def test_identity_features(self):
        # X = I makes the solve diagonal: W = mu C / (mu + 2 lam)
        rng = np.random.default_rng(0)
        d = 4
        state = random_state(rng, d, d, 3, mu=0.7)
        state.Lam = np.zeros((d, 3))
        params = default_params(lam=2.0)
        W = update_w(state, np.eye(d), params)
        assert np.allclose(W, 0.7 * state.C / (0.7 + 4.0))

    def test_mu_zero_degenerate(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((6, 3))
        state = random_state(rng, 6, 3, 2, mu=0.0)
        params = default_params(lam=5.0)
        W = update_w(state, X, params)
        assert np.allclose(W, -(X.T @ state.Lam) / 10.0)

    def test_normal_equations_residual(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n, d, l = rng.integers(2, 40), rng.integers(1, 15), rng.integers(1, 10)
            X = rng.standard_normal((n, d))
            state = random_state(rng, n, d, l)
            params = default_params(lam=float(rng.uniform(0.1, 100.0)))
            W = update_w(state, X, params)
            A = state.mu * (X.T @ X) + 2.0 * params.lam * np.eye(d)
            B = X.T @ (state.mu * state.C - state.Lam)
            resid = np.linalg.norm(A @ W - B)
            bound = 1e-8 * (np.linalg.norm(A) * np.linalg.norm(W) + np.linalg.norm(B))
            assert resid <= bound

    def test_precomputed_eig_matches_fresh(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((20, 6))
        state = random_state(rng, 20, 6, 4)
        params = default_params()
        gram = X.T @ X
        eig = sym_eig((gram + gram.T) / 2)
        assert np.allclose(update_w(state, X, params), update_w(state, X, params, eig=eig))

    def test_dual_route_matches_primal(self):
        rng = np.random.default_rng(13)
        for n, d in [(8, 30), (30, 8), (12, 12)]:
            X = rng.standard_normal((n, d))
            state = random_state(rng, n, d, 5)
            params = default_params(lam=float(rng.uniform(0.5, 50.0)))
            primal = update_w(state, X, params, dual=False)
            dual = update_w(state, X, params, dual=True)
            scale = max(1.0, np.linalg.norm(primal))
            assert np.linalg.norm(primal - dual) <= 1e-10 * scale

    def test_dual_route_normal_equations(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            n, d, l = int(rng.integers(2, 12)), int(rng.integers(15, 60)), int(rng.integers(1, 6))
            X = rng.standard_normal((n, d))
            state = random_state(rng, n, d, l)
            params = default_params(lam=float(rng.uniform(0.1, 100.0)))
            W = update_w(state, X, params, dual=True)
            A = state.mu * (X.T @ X) + 2.0 * params.lam * np.eye(d)
            B = X.T @ (state.mu * state.C - state.Lam)
            resid = np.linalg.norm(A @ W - B)
            bound = 1e-8 * (np.linalg.norm(A) * np.linalg.norm(W) + np.linalg.norm(B))
            assert resid <= bound


class TestUpdateN:
    def test_elementwise_example(self):
        state = SolverState(W=np.zeros((1, 2)), N=np.zeros((1, 2)),
                            C=np.array([[0.2, 0.3]]), Lam=np.zeros((1, 2)), mu=1.0)
        N = update_n(state, np.array([[1.0, 0.0]]), default_params(alpha=1.0))
        assert np.array_equal(N, [[1.0, 0.0]])

    def test_below_threshold(self):
        state = SolverState(W=np.zeros((1, 1)), N=np.zeros((1, 1)),
                            C=np.array([[0.6]]), Lam=np.zeros((1, 1)), mu=1.0)
        N = update_n(state, np.array([[1.0]]), default_params(alpha=1.0))
        assert np.array_equal(N, [[0.0]])

    def test_zero_candidate_row_stays_zero(self):
        rng = np.random.default_rng(4)
        state = random_state(rng, 3, 2, 5)
        state.C = -10.0 * np.ones((3, 5))  # makes Y - C huge
        N = update_n(state, np.zeros((3, 5)), default_params(alpha=0.5))
        assert np.array_equal(N, np.zeros((3, 5)))

    def test_no_sparsity_variant_keeps_zero(self):
        rng = np.random.default_rng(5)
        state = random_state(rng, 4, 2, 3)
        state.C = -5.0 * np.ones((4, 3))
        Y = np.ones((4, 3))
        N = update_n(state, Y, default_params(variant=Variant.NO_SPARSITY))
        assert np.array_equal(N, np.zeros((4, 3)))

    def test_matches_rule_and_stays_feasible(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n, l = rng.integers(1, 10), rng.integers(1, 10)
            Y = (rng.random((n, l)) < 0.5).astype(float)
            state = random_state(rng, n, 2, l)
            alpha = float(rng.uniform(0.05, 3.0))
            N = update_n(state, Y, default_params(alpha=alpha))
            expected = ((Y - state.C > alpha / 2.0) & (Y == 1.0)).astype(float)
            assert np.array_equal(N, expected)
            assert np.all(N <= Y)
            assert set(np.unique(N)) <= {0.0, 1.0}

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        l=st.integers(1, 8),
        alpha=st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0]),
        ties=st.floats(0.0, 1.0),
    )
    def test_equals_shrink_oracle_with_exact_ties(self, seed, n, l, alpha, ties):
        # the single comparison against the soft-threshold, sign and clip steps
        # it replaces, on states where Y - C hits alpha/2 exactly (strict >)
        rng = np.random.default_rng(seed)
        Y = (rng.random((n, l)) < 0.6).astype(float)
        state = random_state(rng, n, 2, l)
        at_tie = rng.random((n, l)) < ties
        state.C = np.where(at_tie, Y - alpha / 2.0, state.C)
        assert np.all((Y - state.C)[at_tie] == alpha / 2.0)
        N = update_n(state, Y, default_params(alpha=alpha))
        oracle = np.minimum((shrink(Y - state.C, alpha / 2.0) > 0).astype(float), Y)
        assert np.array_equal(N, oracle)


def state_with_target_g(G, mu, n, d, l):
    """Build a state whose C-update pull matrix equals G (W = 0, N = 0, Y = 0)."""
    return SolverState(
        W=np.zeros((d, l)),
        N=np.zeros((n, l)),
        C=np.zeros((n, l)),
        Lam=(2.0 + mu) * G,
        mu=mu,
    )


RANKED = (Variant.HIGH_RANK, Variant.LOW_RANK, Variant.NO_SPARSITY)


def c_step_on(G, variant, beta):
    """update_c with pull matrix exactly G (mu = 0, so the shift is 2 beta / 2 = beta)."""
    n, l = G.shape
    state = state_with_target_g(G, mu=0.0, n=n, d=2, l=l)
    return update_c(state, np.zeros((n, 2)), np.zeros((n, l)), default_params(beta=beta, variant=variant))


def shifted(s, variant, shift):
    return np.maximum(0.0, s - shift) if variant is Variant.LOW_RANK else s + shift


class TestUpdateC:
    def test_diagonal_high_rank_shift(self):
        G = np.diag([1.0, 2.0])
        state = state_with_target_g(G, mu=0.0, n=2, d=2, l=2)
        X = np.zeros((2, 2))
        C = update_c(state, X, np.zeros((2, 2)), default_params(beta=0.1))
        assert np.allclose(C, np.diag([1.1, 2.1]), atol=1e-12)

    def test_beta_zero_returns_g(self):
        # mu = 0 keeps the pull-matrix construction bit-exact (division by 2)
        rng = np.random.default_rng(7)
        G = rng.standard_normal((3, 4))
        for variant in Variant:
            state = state_with_target_g(G, mu=0.0, n=3, d=2, l=4)
            C = update_c(state, np.zeros((3, 2)), np.zeros((3, 4)),
                         default_params(beta=0.0, variant=variant))
            assert np.array_equal(C, G)

    def test_no_rank_returns_g(self):
        rng = np.random.default_rng(8)
        G = rng.standard_normal((4, 3))
        state = state_with_target_g(G, mu=0.0, n=4, d=2, l=3)
        C = update_c(state, np.zeros((4, 2)), np.zeros((4, 3)),
                     default_params(beta=0.5, variant=Variant.NO_RANK))
        assert np.array_equal(C, G)

    def test_low_rank_truncates(self):
        G = np.diag([0.05, 2.0])
        state = state_with_target_g(G, mu=0.0, n=2, d=2, l=2)
        C = update_c(state, np.zeros((2, 2)), np.zeros((2, 2)),
                     default_params(beta=0.1, variant=Variant.LOW_RANK))
        s = np.linalg.svd(C, compute_uv=False)
        assert np.allclose(np.sort(s), [0.0, 1.9], atol=1e-12)
        assert numerical_rank(C) == 1

    def test_derived_convention_halves_shift(self):
        G = np.diag([1.0, 2.0])
        state = state_with_target_g(G, mu=0.0, n=2, d=2, l=2)
        C = update_c(state, np.zeros((2, 2)), np.zeros((2, 2)),
                     default_params(beta=0.1, c_shift="derived"))
        assert np.allclose(C, np.diag([1.05, 2.05]), atol=1e-12)

    def test_no_sparsity_keeps_high_rank_shift(self):
        G = np.diag([1.0, 2.0])
        state = state_with_target_g(G, mu=0.0, n=2, d=2, l=2)
        C = update_c(state, np.zeros((2, 2)), np.zeros((2, 2)),
                     default_params(beta=0.1, variant=Variant.NO_SPARSITY))
        assert np.allclose(C, np.diag([1.1, 2.1]), atol=1e-12)

    def test_high_rank_spectrum_shift_on_random_states(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n, d, l = rng.integers(2, 20), rng.integers(1, 8), rng.integers(2, 10)
            X = rng.standard_normal((n, d))
            Y = (rng.random((n, l)) < 0.4).astype(float)
            state = random_state(rng, n, d, l)
            params = default_params(beta=float(rng.uniform(0.01, 0.5)))
            G = (2 * Y - 2 * state.N + state.Lam + state.mu * (X @ state.W)) / (2 + state.mu)
            C = update_c(state, X, Y, params)
            shift = 2 * params.beta / (2 + state.mu)
            sG = np.linalg.svd(G, compute_uv=False)
            sC = np.linalg.svd(C, compute_uv=False)
            assert np.all(np.abs(sC - (sG + shift)) <= 1e-8)
            assert numerical_rank(C) >= numerical_rank(G)

    def test_low_rank_local_optimality(self):
        # the closed form minimizes 0.5 ||C - G||^2 + shift ||C||_* for its shift;
        # the derived convention makes that shift exactly beta / (2 + mu)
        rng = np.random.default_rng(10)
        G = rng.standard_normal((6, 5))
        mu = 0.8
        beta = 0.3
        for convention in ("derived", "paper"):
            state = state_with_target_g(G, mu=mu, n=6, d=2, l=5)
            params = default_params(beta=beta, variant=Variant.LOW_RANK, c_shift=convention)
            C = update_c(state, np.zeros((6, 2)), np.zeros((6, 5)), params)
            shift = beta / (2 + mu) if convention == "derived" else 2 * beta / (2 + mu)

            def surrogate(M):
                return 0.5 * np.linalg.norm(M - G) ** 2 + shift * np.linalg.svd(M, compute_uv=False).sum()

            best = surrogate(C)
            for _ in range(200):
                delta = rng.standard_normal(G.shape)
                delta *= 1e-3 / np.linalg.norm(delta)
                assert best <= surrogate(C + delta) + 1e-12

    def test_matches_thin_svd_form(self):
        # the Gram-eigh C step against the thin-SVD closed form, both routes
        rng = np.random.default_rng(15)
        for n, l in [(30, 6), (6, 30), (9, 9)]:
            G = rng.standard_normal((n, l))
            U, s, Vt = np.linalg.svd(G, full_matrices=False)
            for variant in (Variant.HIGH_RANK, Variant.LOW_RANK):
                C = c_step_on(G, variant, 0.8)
                assert np.linalg.norm(C - (U * shifted(s, variant, 0.8)) @ Vt) <= 1e-10 * np.linalg.norm(G)


class TestUpdateCNullDirections:
    """Rank-deficient G and the G G^T route (l > n): null directions are not shifted."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        l=st.integers(2, 8),
        extra_rows=st.integers(2, 20),
        variant=st.sampled_from(RANKED),
        beta=st.floats(0.01, 1.0),
    )
    def test_duplicated_columns(self, seed, l, extra_rows, variant, beta):
        rng = np.random.default_rng(seed)
        n = l + extra_rows
        base = rng.standard_normal((n, l - 1))
        i, j = sorted(rng.choice(l, size=2, replace=False))
        G = np.insert(base, j, base[:, i], axis=1)  # column j duplicates column i
        C = c_step_on(G, variant, beta)
        sG = np.linalg.svd(G, compute_uv=False)[: l - 1]
        sC = np.linalg.svd(C, compute_uv=False)
        tol = 1e-8 * max(1.0, sG[0])
        assert np.all(np.isfinite(C))
        assert np.all(np.abs(sC[: l - 1] - np.sort(shifted(sG, variant, beta))[::-1]) <= tol)
        null = np.zeros(l)
        null[i], null[j] = 1.0, -1.0
        assert np.linalg.norm(C @ null) <= 1e-12 * max(1.0, sG[0])
        assert np.array_equal(C, c_step_on(G, variant, beta))

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 12), l=st.integers(1, 12), variant=st.sampled_from(list(Variant)),
           beta=st.floats(0.0, 1.0))
    def test_zero_pull_matrix(self, n, l, variant, beta):
        C = c_step_on(np.zeros((n, l)), variant, beta)
        assert np.array_equal(C, np.zeros((n, l)))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        extra_cols=st.integers(1, 20),
        variant=st.sampled_from(RANKED),
        beta=st.floats(0.01, 1.0),
    )
    def test_wide_route(self, seed, n, extra_cols, variant, beta):
        rng = np.random.default_rng(seed)
        G = rng.standard_normal((n, n + extra_cols))
        C = c_step_on(G, variant, beta)
        sG = np.linalg.svd(G, compute_uv=False)
        sC = np.linalg.svd(C, compute_uv=False)
        assert np.all(np.isfinite(C))
        assert np.all(np.abs(sC - np.sort(shifted(sG, variant, beta))[::-1]) <= 1e-8 * max(1.0, sG[0]))
        assert np.array_equal(C, c_step_on(G, variant, beta))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        l=st.integers(1, 12),
        rank=st.integers(0, 12),
        variant=st.sampled_from(list(Variant)),
        beta=st.floats(0.0, 1.0),
    )
    # full rank with sigma_min / sigma_max ~ 8e-6: sqrt of the Gram eigenvalue
    # put the shifted sigma_min off by 1e-6; ||G v|| gets it to ~3e-12
    @example(seed=8, n=7, l=7, rank=7, variant=Variant.HIGH_RANK, beta=1.0)
    def test_finite_and_repeatable(self, seed, n, l, rank, variant, beta):
        rng = np.random.default_rng(seed)
        r = min(rank, n, l)
        G = rng.standard_normal((n, r)) @ rng.standard_normal((r, l))
        C = c_step_on(G, variant, beta)
        assert C.shape == (n, l)
        assert np.all(np.isfinite(C))
        assert np.array_equal(C, c_step_on(G, variant, beta))
        if variant in RANKED:
            # the rank-r part is shifted; the null directions stay zero to
            # rounding (without the eigenvalue cutoff they reach ~1e-8)
            sG = np.linalg.svd(G, compute_uv=False)
            sC = np.linalg.svd(C, compute_uv=False)
            scale = max(1.0, sG[0])
            assert np.all(np.abs(sC[:r] - np.sort(shifted(sG[:r], variant, beta))[::-1]) <= 1e-8 * scale)
            assert np.all(sC[r:] <= 1e-12 * scale)

    def test_huge_finite_pull_matrix(self):
        # G^T G of entries near 1e160 overflows unless G is scaled first
        G = 1e160 * np.random.default_rng(16).standard_normal((5, 3))
        U, s, Vt = np.linalg.svd(G, full_matrices=False)
        for variant in (Variant.HIGH_RANK, Variant.LOW_RANK):
            shift = 1e159  # a shift on the scale of G's spectrum
            C = c_step_on(G, variant, shift)
            assert np.all(np.isfinite(C))
            expected = (U * shifted(s, variant, shift)) @ Vt
            # norms of the unscaled matrices would overflow in the test itself
            assert np.linalg.norm((C - expected) / 1e160) <= 1e-10 * np.linalg.norm(expected / 1e160)

    def test_non_finite_pull_matrix_raises(self):
        for bad in (np.nan, np.inf):
            G = np.ones((4, 3))
            G[2, 1] = bad
            with pytest.raises(ValueError, match="NaN or Inf"):
                c_step_on(G, Variant.HIGH_RANK, 0.1)

    def test_failed_eigendecomposition_raises_numerical_error(self, monkeypatch):
        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        with pytest.raises(NumericalError, match="eigendecomposition failed"):
            c_step_on(np.ones((4, 3)), Variant.HIGH_RANK, 0.1)


class TestUpdateLagrange:
    def test_multiplier_step_uses_pre_update_mu(self):
        state = SolverState(W=np.ones((1, 1)), N=np.zeros((1, 1)),
                            C=np.array([[-1.0]]), Lam=np.zeros((1, 1)), mu=1.0)
        X = np.ones((1, 1))
        lam_new, mu_new = update_lagrange(state, X, default_params())
        assert np.allclose(lam_new, [[2.0]])
        assert mu_new == pytest.approx(1.1)

    def test_mu_clamped(self):
        state = SolverState(W=np.zeros((1, 1)), N=np.zeros((1, 1)),
                            C=np.zeros((1, 1)), Lam=np.zeros((1, 1)), mu=10.0)
        _, mu_new = update_lagrange(state, np.zeros((1, 1)), default_params())
        assert mu_new == 10.0

    def test_zero_residual_leaves_multiplier(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((5, 3))
        W = rng.standard_normal((3, 2))
        state = SolverState(W=W, N=np.zeros((5, 2)), C=X @ W,
                            Lam=rng.standard_normal((5, 2)), mu=0.5)
        lam_new, _ = update_lagrange(state, X, default_params())
        assert np.allclose(lam_new, state.Lam)

    def test_mu_trace_nondecreasing_and_clamped(self):
        params = default_params()
        mu = params.mu0
        state = SolverState(W=np.zeros((1, 1)), N=np.zeros((1, 1)),
                            C=np.zeros((1, 1)), Lam=np.zeros((1, 1)), mu=mu)
        trace = [mu]
        for _ in range(200):
            _, state.mu = update_lagrange(state, np.zeros((1, 1)), params)
            trace.append(state.mu)
        assert all(b >= a for a, b in zip(trace, trace[1:]))
        assert trace[-1] == params.mu_max


class TestObjective:
    def test_zero_state_gives_label_energy(self):
        Y = np.array([[1.0, 0.0], [1.0, 1.0]])
        state = SolverState(W=np.zeros((2, 2)), N=np.zeros((2, 2)),
                            C=np.zeros((2, 2)), Lam=np.zeros((2, 2)), mu=1.0)
        val = objective(state, np.zeros((2, 2)), Y, default_params())
        assert val == pytest.approx(np.linalg.norm(Y) ** 2)

    def test_all_zero(self):
        state = SolverState(W=np.zeros((2, 2)), N=np.zeros((2, 2)),
                            C=np.zeros((2, 2)), Lam=np.zeros((2, 2)), mu=1.0)
        assert objective(state, np.zeros((2, 2)), np.zeros((2, 2)), default_params()) == 0.0

    def test_term_by_term(self):
        rng = np.random.default_rng(12)
        n, d, l = 7, 4, 5
        X = rng.standard_normal((n, d))
        Y = (rng.random((n, l)) < 0.5).astype(float)
        for variant, sign in [
            (Variant.HIGH_RANK, -1.0),
            (Variant.NO_SPARSITY, -1.0),
            (Variant.LOW_RANK, 1.0),
            (Variant.NO_RANK, 0.0),
        ]:
            state = random_state(rng, n, d, l)
            params = default_params(alpha=0.7, beta=0.2, lam=3.0, variant=variant)
            XW = X @ state.W
            expected = (
                np.linalg.norm(XW - (Y - state.N)) ** 2
                + 0.7 * np.abs(state.N).sum()
                + sign * 0.2 * np.linalg.svd(XW, compute_uv=False).sum()
                + 3.0 * np.linalg.norm(state.W) ** 2
            )
            assert objective(state, X, Y, params) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("cond", [1.0, 1e3, 1e6, 1e10, None],
                             ids=["cond-1", "cond-1e3", "cond-1e6", "cond-1e10", "duplicate-columns"])
    @pytest.mark.parametrize("shape", [(60, 12, 5), (40, 12, 30)], ids=["l<d", "l>d"])
    def test_nuclear_norm_from_the_w_steps_eigenpairs(self, cond, shape):
        # fit's report takes ||XW||_* from diag(sqrt(e)) Q^T W, with X^T X = Q diag(e) Q^T; here
        # for a W of the W step, as fit hands on, against the singular values of X W itself
        n, d, l = shape
        rng = np.random.default_rng(7)
        if cond is None:
            X = rng.standard_normal((n, d))
            X[:, d // 2:] = X[:, :d // 2]
        else:
            U, _ = np.linalg.qr(rng.standard_normal((n, d)))
            V, _ = np.linalg.qr(rng.standard_normal((d, d)))
            X = (U * np.geomspace(1.0, 1.0 / cond, d)) @ V.T
        eig = solver._start(X, np.zeros((n, l)), default_params()).eig
        if cond is None:
            assert eig.eigenvalues.min() < 0.0  # rounding puts null eigenvalues of X^T X below zero too
        state = random_state(rng, n, d, l)
        state.W = update_w(state, X, default_params(), eig=eig)
        state.N = np.zeros((n, l))
        XW = X @ state.W
        expected = np.linalg.svd(XW, compute_uv=False).sum()
        # with Y = X W, N = 0 and a vanishing ridge weight, the objective is -||XW||_*
        params = default_params(beta=1.0, lam=1e-300)
        assert abs(objective(state, X, XW, params, XW=XW, eig=eig) + expected) <= 1e-12 * expected


class TestFit:
    def test_zero_iterations(self):
        ds, _ = make_synth(12, 4, 3, r=1, seed=0)
        model = fit(ds, default_params(max_iter=0))
        assert np.array_equal(model.W, np.zeros((4, 3)))
        assert model.report.objective_trace == []
        assert model.report.primal_residual_trace == []
        assert model.report.iterations_run == 0
        assert model.report.final_rank_XW == 0
        assert model.report.first_noise_iter is None

    def test_first_noise_iter_marks_first_nonzero_n(self):
        ds, _ = make_synth(40, 6, 5, r=1, seed=0)
        params = default_params()
        first = fit(ds, params).report.first_noise_iter
        assert 1 < first <= params.max_iter
        before = fit(ds, default_params(max_iter=first - 1))
        at = fit(ds, default_params(max_iter=first))
        assert not before.noise.any() and before.report.first_noise_iter is None
        assert at.noise.any() and at.report.first_noise_iter == first
        frozen = fit(ds, default_params(variant=Variant.NO_SPARSITY))
        assert frozen.report.first_noise_iter is None

    def test_trace_lengths_match_iterations(self):
        ds, _ = make_synth(30, 5, 4, r=1, seed=1)
        model = fit(ds, default_params(max_iter=17))
        assert model.report.iterations_run == 17
        assert len(model.report.objective_trace) == 17
        assert len(model.report.primal_residual_trace) == 17

    def test_traced_fit_allocates_no_copy_of_x(self):
        # the report's nuclear norm comes from the W step's eigenpairs, so no second factor of a
        # tall X is formed: at its peak a traced fit holds far less new memory than X
        ds, _ = make_synth(8000, 400, 5, r=1, seed=0)
        tracemalloc.start()
        try:
            fit(ds, default_params(max_iter=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ds.X.nbytes

    def test_deterministic_bit_identical(self):
        ds, _ = make_synth(40, 6, 5, r=1, seed=2)
        params = default_params(max_iter=30)
        a = fit(ds, params)
        b = fit(ds, params)
        assert np.array_equal(a.W, b.W)
        assert a.report.objective_trace == b.report.objective_trace

    def test_early_stop_on_tol(self):
        ds, _ = make_synth(50, 8, 5, r=1, seed=3)
        model = fit(ds, default_params(tol=0.5))
        assert model.report.iterations_run < 100
        assert model.report.primal_residual_trace[-1] <= 0.5

    def test_small_instance_recovery_and_residual(self):
        # residual bound frozen from this instance's own trace; deep primal
        # feasibility is not reachable in 100 default-schedule iterations
        # on 60 samples because late noise-flips keep re-exciting it
        ds, noise = make_synth(60, 10, 8, r=2, seed=0)
        model = fit(ds, default_params())
        hits = np.sum((model.noise == 1) & (noise == 1))
        recall = hits / noise.sum()
        assert recall >= 0.8
        assert model.report.primal_residual_trace[-1] <= 0.05

    def test_ridge_limit_no_rank_variant(self):
        ds, _ = make_synth(80, 12, 6, r=0, seed=5, noise_scale=0.2)
        params = SchirnParams(alpha=1e6, beta=0.0, lam=1.0, variant=Variant.NO_RANK)
        model = fit(ds, params)
        assert model.report.primal_residual_trace[-1] <= 1e-3
        obj = np.array(model.report.objective_trace)
        tail = obj[-50:]
        assert np.all(np.diff(tail) <= 1e-6 * (1.0 + np.abs(tail[:-1])))
        assert np.array_equal(model.noise, np.zeros((80, 6)))

    def test_wide_feature_matrix(self):
        # more features than samples routes the W solve through the n x n Gram
        ds, _ = make_synth(25, 120, 5, r=1, seed=12)
        model = fit(ds, default_params(max_iter=40))
        assert model.W.shape == (120, 5)
        assert np.all(np.isfinite(model.W))
        assert model.report.primal_residual_trace[-1] < model.report.primal_residual_trace[0]

    def test_dimension_mismatch(self):
        ds, _ = make_synth(12, 4, 3, r=1, seed=0)
        bad = Dataset(X=ds.X, Y=ds.Y)
        bad.X = ds.X[:-1]  # bypass constructor check to exercise fit's own guard
        with pytest.raises(ValueError):
            fit(bad, default_params())


class TestFitDegenerateShapes:
    """fit stays finite, feasible and deterministic on l > n, d > n (the dual
    W step), constant and all-zero feature columns, and all-zero or all-one
    label rows."""

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        d=st.integers(1, 12),
        l=st.integers(1, 12),
        const_col=st.booleans(),
        zero_col=st.booleans(),
        zero_row=st.booleans(),
        one_row=st.booleans(),
    )
    def test_finite_feasible_repeatable(self, variant, seed, n, d, l, const_col, zero_col, zero_row, one_row):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d))
        Y = (rng.random((n, l)) < 0.4).astype(float)
        if const_col:
            X[:, rng.integers(d)] = rng.standard_normal()
        if zero_col:
            X[:, rng.integers(d)] = 0.0
        if zero_row:
            Y[rng.integers(n)] = 0.0
        if one_row:
            Y[rng.integers(n)] = 1.0
        params = default_params(variant=variant)
        model = fit(Dataset(X=X, Y=Y), params)
        report = model.report
        assert np.all(np.isfinite(model.W))
        assert np.all(np.isfinite(report.objective_trace))
        assert np.all(np.isfinite(report.primal_residual_trace))
        assert np.all(model.noise <= Y)
        again = fit(Dataset(X=X, Y=Y), params)
        assert np.array_equal(model.W, again.W)
        assert np.array_equal(model.noise, again.noise)
        assert report.objective_trace == again.report.objective_trace
        assert report.primal_residual_trace == again.report.primal_residual_trace


def reference_fit(ds, params):
    """The ALM loop in its first form: thin-SVD C step, X @ W recomputed at every use.

    Returns (W, N, objective trace, residual trace).
    """
    X, Y = ds.X, ds.Y
    n, d = X.shape
    l = Y.shape[1]
    dual = d > n
    state = SolverState(W=np.zeros((d, l)), N=np.zeros((n, l)), C=np.ones((n, l)),
                        Lam=np.ones((n, l)), mu=params.mu0)
    sign = {Variant.HIGH_RANK: -1.0, Variant.NO_SPARSITY: -1.0,
            Variant.LOW_RANK: 1.0, Variant.NO_RANK: 0.0}[params.variant]
    objectives, residuals = [], []
    for _ in range(params.max_iter):
        state.W = update_w(state, X, params, dual=dual)
        state.N = update_n(state, Y, params)
        mu = state.mu
        G = (2.0 * Y - 2.0 * state.N + state.Lam + mu * (X @ state.W)) / (2.0 + mu)
        shift = (2.0 if params.c_shift == "paper" else 1.0) * params.beta / (2.0 + mu)
        if params.variant is Variant.NO_RANK or shift == 0.0:
            state.C = G
        else:
            U, s, Vt = np.linalg.svd(G, full_matrices=False)
            s = np.maximum(0.0, s - shift if params.variant is Variant.LOW_RANK else s + shift)
            state.C = (U * s) @ Vt
        state.Lam = state.Lam + mu * (X @ state.W - state.C)
        state.mu = min(params.mu_max, params.rho * mu)
        objectives.append(
            np.linalg.norm(X @ state.W - (Y - state.N)) ** 2
            + params.alpha * np.abs(state.N).sum()
            + sign * params.beta * np.linalg.svd(X @ state.W, compute_uv=False).sum()
            + params.lam * np.linalg.norm(state.W) ** 2
        )
        residuals.append(np.linalg.norm(X @ state.W - state.C) / max(1.0, np.linalg.norm(state.C)))
    return state.W, state.N, np.array(objectives), np.array(residuals)


def assert_matches_reference(model, ds, params):
    """N as reference_fit's, and W and both traces within 1e-10 relative of its."""
    W, N, objectives, residuals = reference_fit(ds, params)
    if params.variant is not Variant.NO_SPARSITY:
        assert N.any()  # noise enters, so equal N is a real check
    assert np.array_equal(model.noise, N)
    assert np.linalg.norm(model.W - W) <= 1e-10 * np.linalg.norm(W)
    for trace, ref in [(model.report.objective_trace, objectives),
                       (model.report.primal_residual_trace, residuals)]:
        assert np.all(np.abs(np.array(trace) - ref) <= 1e-10 * np.abs(ref))


class TestFitMatchesReferenceLoop:
    """fit (one X @ W per iteration, Gram-eigh C step, the nuclear norm from the W step's
    eigenpairs, no QR of X, and on row blocks the blocked sums) against reference_fit."""

    @pytest.mark.parametrize("shape", [(40, 6, 5), (20, 50, 5), (8, 4, 12)],
                             ids=["d<n", "d>n", "l>n"])
    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_same_iterates(self, monkeypatch, shape, variant):
        ds, _ = make_synth(*shape, r=1, seed=0)
        params = default_params(alpha=0.5, beta=0.5, lam=10.0, variant=variant)

        def no_qr(*args, **kwargs):
            raise AssertionError("fit factors X a second time")

        monkeypatch.setattr(np.linalg, "qr", no_qr)
        assert_matches_reference(fit(ds, params), ds, params)

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_same_iterates_on_row_blocks(self, monkeypatch, variant):
        # five 48-row blocks (a lowered _BLOCK_ENTRIES) on three threads: X^T N, G^T G and the
        # traces' norms are sums over the blocks
        monkeypatch.setattr(solver, "_BLOCK_ENTRIES", 256)
        monkeypatch.setattr(solver, "_usable_cpus", lambda: 3)
        assert len(solver._row_blocks(240, 12, 8)) == 5
        ds, _ = make_synth(240, 12, 8, r=1, seed=0)
        params = default_params(alpha=0.5, beta=0.5, lam=10.0, variant=variant)
        assert_matches_reference(fit(ds, params), ds, params)

    @pytest.mark.parametrize("shape, seed", [((40, 6, 5), 0), ((60, 10, 8), 1), ((120, 20, 10), 0)],
                             ids=["40x6x5", "60x10x8", "120x20x10"])
    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_long_run_drift_of_dxl_route(self, shape, seed, variant):
        # d <= n and l <= n: the W step reads the recursively kept X^T products
        # for 1000 iterations. W is compared through X W because on some
        # instances W collapses to ~0, where a relative bound on W means nothing.
        ds, _ = make_synth(*shape, r=1, seed=seed)
        params = default_params(alpha=0.5, beta=0.5, lam=10.0, variant=variant, max_iter=1000)
        model = fit(ds, params)
        W, N, _, _ = reference_fit(ds, params)
        assert np.array_equal(model.noise, N)
        scale = max(np.linalg.norm(ds.X @ W), np.linalg.norm(ds.Y))
        assert np.linalg.norm(ds.X @ (model.W - W)) <= 1e-10 * scale


class TestXtProducts:
    """The d x l products that fit keeps equal X^T times their n x l iterates, up to rounding."""

    def test_products_track_iterates_as_noise_flips_both_ways(self, monkeypatch):
        # on this instance N gains entries from iteration ~40 and loses some
        # after ~80, so the row update of X^T N runs in both directions
        # the products are compared with their iterates at the start of each iteration, where the
        # W step reads them and X^T X W is that of the previous W
        ds, _ = make_synth(60, 10, 8, r=1, seed=1)
        X = ds.X
        flips = []
        errors = []
        previous = []
        update_w = solver.update_w

        def spy_w(state, X_, params, Xt=None, **kwargs):
            assert Xt is not None
            if previous:
                N, = previous
                flips.append(((state.N > N).any(), (state.N < N).any()))
                products = [(Xt.XtN, state.N), (Xt.XtC, state.C), (Xt.XtLam, state.Lam),
                            (Xt.XtXW, X @ state.W), (Xt.XtY, ds.Y)]
                for kept, iterate in products:
                    direct = X.T @ iterate
                    errors.append(np.linalg.norm(kept - direct) / max(1.0, np.linalg.norm(direct)))
            previous[:] = [state.N.copy()]  # fit updates N in place
            return update_w(state, X_, params, Xt=Xt, **kwargs)

        monkeypatch.setattr(solver, "update_w", spy_w)
        fit(ds, default_params(alpha=0.5, beta=0.5, lam=10.0))
        assert sum(gained for gained, _ in flips) >= 2
        assert sum(lost for _, lost in flips) >= 2
        assert max(errors) <= 1e-12

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_start_equals_the_products_of_the_iterates(self, monkeypatch, variant):
        # start takes X^T N = 0 and X^T Lam = X^T C from the initial iterates instead of
        # multiplying them out; the fit is the same, bit for bit
        ds, _ = make_synth(60, 10, 8, r=1, seed=1)
        params = default_params(alpha=0.5, beta=0.5, lam=10.0, variant=variant)
        model = fit(ds, params)

        def direct(X, Y, state):
            return solver.XtProducts(X=X, XtY=X.T @ Y, XtN=X.T @ state.N, XtC=X.T @ state.C, XtLam=X.T @ state.Lam)

        monkeypatch.setattr(solver.XtProducts, "start", direct)
        assert_same_fit(model, fit(ds, params))


class TestTraceLevels:
    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_none_changes_nothing_but_the_traces(self, variant):
        ds, _ = make_synth(40, 6, 5, r=1, seed=0)
        params = default_params(alpha=0.5, beta=0.5, variant=variant)
        full = fit(ds, params)
        bare = fit(ds, params, trace="none")
        assert np.array_equal(bare.W, full.W)
        assert np.array_equal(bare.noise, full.noise)
        for name in ("iterations_run", "first_noise_iter", "final_rank_XW"):
            assert getattr(bare.report, name) == getattr(full.report, name)
        assert bare.report.objective_trace == [] and bare.report.primal_residual_trace == []
        assert len(full.report.objective_trace) == full.report.iterations_run
        # the final rank is that of the last iteration's X W
        assert full.report.final_rank_XW == numerical_rank(ds.X @ full.W)

    def test_none_stops_at_the_same_iteration(self):
        ds, _ = make_synth(50, 8, 5, r=1, seed=3)
        params = default_params(tol=0.5)
        full = fit(ds, params)
        bare = fit(ds, params, trace="none")
        assert full.report.iterations_run < params.max_iter
        assert bare.report.iterations_run == full.report.iterations_run
        assert np.array_equal(bare.W, full.W)
        assert bare.report.primal_residual_trace == []

    @pytest.mark.parametrize("level", ["full", "", "None", None])
    def test_unknown_level_raises(self, level):
        ds, _ = make_synth(12, 4, 3, r=1, seed=0)
        with pytest.raises(ValueError, match="trace"):
            fit(ds, default_params(max_iter=1), trace=level)


def assert_same_fit(a, b):
    """Bit-identical W and N, and an equal report: iterations, rank, first noise, traces."""
    assert np.array_equal(a.W, b.W)
    assert np.array_equal(a.noise, b.noise)
    assert a.report == b.report


_CHAIN_PARAMS = st.builds(
    default_params,
    alpha=st.sampled_from([0.3, 0.5, 1.0, 100.0]),
    beta=st.sampled_from([0.05, 0.5]),
    lam=st.sampled_from([10.0, 9.0]),
    # the relative residual falls through 5 before noise enters N, and through 1.5 about when it does
    tol=st.sampled_from([0.0, 1.5, 5.0]),
    threshold=st.sampled_from([0.5, 0.7]),
    variant=st.sampled_from(list(Variant)),
    max_iter=st.just(60),
)
_ROUTES = pytest.mark.parametrize("shape", [(60, 8, 6), (30, 40, 6), (20, 6, 30)], ids=["primal", "dual-w", "wide-c"])


@pytest.fixture
def w_steps(monkeypatch):
    return count_w_steps(monkeypatch)


def skipped_w_steps(chain_models) -> int:
    """The W steps a chain skips, from its from-scratch models: each follower starts from its
    predecessor's state before the first iteration with noise, or before its last iteration if
    there is none."""
    return sum(m.report.first_noise_iter - 1 if m.report.first_noise_iter else m.report.iterations_run - 1
               for m in chain_models[:-1])


class TestSharedPrefix:
    """fit_chain: each fit resumes from the zero-noise prefix of the one before, and equals the
    same fit from scratch."""

    @_ROUTES
    @settings(max_examples=40, deadline=None)
    @given(params_list=st.lists(_CHAIN_PARAMS, max_size=6))
    def test_chain_equals_fits_from_scratch(self, shape, params_list):
        ds, _ = make_synth(*shape, r=1, seed=0)
        chains = solver.prefix_chains(params_list)
        assert all(chains) and sorted(i for chain in chains for i in chain) == list(range(len(params_list)))
        with pytest.MonkeyPatch.context() as mp:
            steps = count_w_steps(mp)
            direct = [fit(ds, params, trace="none") for params in params_list]
            scratch_steps = len(steps)
            steps.clear()
            chained = solver.fit_chain(ds, params_list)
        for a, b in zip(chained, direct, strict=True):
            assert_same_fit(a, b)
        assert scratch_steps == sum(m.report.iterations_run for m in direct)
        assert len(steps) == scratch_steps - sum(skipped_w_steps([direct[i] for i in c]) for c in chains)

    @pytest.mark.parametrize("tol", [0.5, 0.2, 0.05, 1e-3])
    def test_no_sparsity_after_a_lead_without_noise(self, tol):
        # high-rank at alpha=100 never has noise; at tol >= 0.05 it stops on tol, and
        # no-sparsity runs its last iteration again and stops there too
        ds, _ = make_synth(60, 8, 6, r=1, seed=0)
        lead = default_params(alpha=100.0, tol=tol)
        params_list = [lead, replace(lead, variant=Variant.NO_SPARSITY)]
        models = solver.fit_chain(ds, params_list)
        assert models[0].report.first_noise_iter is None
        for model, params in zip(models, params_list, strict=True):
            assert_same_fit(model, fit(ds, params, trace="none"))

    @_ROUTES
    def test_followers_branch_mid_run(self, shape):
        ds, _ = make_synth(*shape, r=1, seed=0)
        params_list = [default_params(alpha=0.5), default_params(alpha=1.0),
                       default_params(alpha=1.0, variant=Variant.NO_SPARSITY)]
        models = solver.fit_chain(ds, params_list)
        assert 1 < models[0].report.first_noise_iter < 100
        for model, params in zip(models, params_list, strict=True):
            assert_same_fit(model, fit(ds, params, trace="none"))

    def test_follower_skips_the_shared_iterations(self, w_steps):
        ds, _ = make_synth(60, 8, 6, r=1, seed=0)
        first, second, _ = solver.fit_chain(ds, [default_params(alpha=0.5), default_params(alpha=1.0),
                                                 default_params(alpha=1.0, variant=Variant.NO_SPARSITY)])
        first, second = first.report.first_noise_iter, second.report.first_noise_iter
        assert len(w_steps) == 100 + (100 - (first - 1)) + (100 - (second - 1))

    @pytest.mark.parametrize("change", [
        dict(beta=0.06), dict(lam=9.0), dict(mu0=2e-4), dict(rho=1.2), dict(mu_max=5.0),
        dict(max_iter=99), dict(tol=1e-9), dict(c_shift="derived"),
        dict(variant=Variant.NO_RANK), dict(variant=Variant.LOW_RANK),
    ], ids=repr)
    def test_starts_over_when_the_prefix_may_differ(self, change, w_steps):
        ds, _ = make_synth(60, 8, 6, r=1, seed=0)
        params_list = [default_params(alpha=0.5), default_params(**{"alpha": 1.0, **change})]
        assert solver.prefix_chains(params_list) == [[0], [1]]
        models = solver.fit_chain(ds, params_list)
        assert len(w_steps) == 100 + params_list[1].max_iter
        assert_same_fit(models[1], fit(ds, params_list[1], trace="none"))

    def test_chains_in_alpha_order(self, w_steps):
        ds, _ = make_synth(60, 8, 6, r=1, seed=0)
        params_list = [
            default_params(alpha=0.5),
            default_params(variant=Variant.NO_SPARSITY),  # no-sparsity counts as alpha = infinity
            default_params(alpha=2.0),
            default_params(alpha=1.0),
        ]
        assert solver.prefix_chains(params_list) == [[0, 3, 2, 1]]
        models = solver.fit_chain(ds, params_list)
        assert len(w_steps) == 4 * 100 - skipped_w_steps([models[i] for i in (0, 3, 2, 1)])
        for model, params in zip(models, params_list, strict=True):
            assert_same_fit(model, fit(ds, params, trace="none"))

    @pytest.mark.parametrize("params_list, chains", [
        ([default_params(alpha=0.5), default_params(alpha=0.4)], [[1, 0]]),
        # two chains interleaved, alphas out of order, a duplicate alpha, no-sparsity first
        ([default_params(variant=Variant.NO_SPARSITY), default_params(alpha=1.0), default_params(alpha=0.5, beta=0.5),
          default_params(alpha=0.5), default_params(alpha=0.3, beta=0.5), default_params(alpha=0.4),
          default_params(alpha=0.5)], [[5, 3, 6, 1, 0], [4, 2]]),
    ], ids=["two", "interleaved"])
    def test_any_order_runs_the_work_of_the_sorted_list(self, params_list, chains, w_steps):
        ds, _ = make_synth(60, 8, 6, r=1, seed=0)
        assert solver.prefix_chains(params_list) == chains
        models = solver.fit_chain(ds, params_list)
        shuffled_steps = len(w_steps)
        w_steps.clear()
        ordered = [params_list[i] for chain in chains for i in chain]
        assert len(solver.prefix_chains(ordered)) == len(chains)
        solver.fit_chain(ds, ordered)
        assert shuffled_steps == len(w_steps) < 100 * len(params_list)
        for model, params in zip(models, params_list, strict=True):
            assert_same_fit(model, fit(ds, params, trace="none"))

    @pytest.mark.parametrize("alphas", [[100.0, 100.0, 100.0], [0.5, 1.0, 1.0]], ids=["finished", "mid-run"])
    def test_models_share_no_memory(self, alphas):
        # a lead without noise hands its final state on; one with noise its state before it
        ds, _ = make_synth(60, 8, 6, r=1, seed=0)
        params_list = [default_params(alpha=alphas[0]), default_params(alpha=alphas[1]),
                       default_params(alpha=alphas[2], variant=Variant.NO_SPARSITY)]
        arrays = [a for m in solver.fit_chain(ds, params_list) for a in (m.W, m.noise)]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_checks_the_data_once_and_takes_no_fits(self):
        ds, _ = make_synth(10, 3, 2, r=0, seed=6)
        assert solver.fit_chain(ds, []) == []
        with pytest.raises(ValueError, match="X has 10 rows but Y has 9"):
            solver.fit_chain(Dataset(X=ds.X, Y=ds.Y[:9]), [])


class TestPredict:
    def test_zero_weights(self):
        ds, _ = make_synth(10, 3, 2, r=0, seed=6)
        model = fit(ds, default_params(max_iter=0))
        scores = predict_scores(model, ds.X)
        assert np.array_equal(scores, np.zeros((10, 2)))
        assert np.array_equal(binarize(scores, model.params.threshold), np.zeros((10, 2)))

    def test_identity_features_return_weights(self):
        ds, _ = make_synth(12, 4, 3, r=1, seed=7)
        model = fit(ds, default_params(max_iter=5))
        assert np.allclose(predict_scores(model, np.eye(4)), model.W)

    def test_single_row_dot_product(self):
        ds, _ = make_synth(12, 4, 3, r=1, seed=8)
        model = fit(ds, default_params(max_iter=5))
        x = np.array([[1.0, -2.0, 0.5, 3.0]])
        assert np.allclose(predict_scores(model, x), x @ model.W)

    def test_threshold_is_strict(self):
        ds, _ = make_synth(10, 2, 2, r=0, seed=9)
        model = fit(ds, default_params(max_iter=3))
        model.W = np.eye(2) * 0.5
        labels = binarize(predict_scores(model, np.array([[1.0, 1.2]])), model.params.threshold)
        # scores (0.5, 0.6): exactly-0.5 maps to 0, above maps to 1
        assert np.array_equal(labels, [[0.0, 1.0]])
        assert np.array_equal(binarize(np.array([[0.5, 0.6, -1.0]]), 0.5), [[0.0, 1.0, 0.0]])

    def test_labels_are_binarized_scores(self):
        ds, _ = make_synth(30, 5, 4, r=1, seed=13)
        model = fit(ds, default_params(max_iter=10, threshold=0.3))
        scores = predict_scores(model, ds.X)
        labels = binarize(scores, model.params.threshold)
        assert np.array_equal(labels, (scores > 0.3).astype(np.float64))
        assert 0 < labels.sum() < labels.size

    def test_dimension_mismatch(self):
        ds, _ = make_synth(10, 3, 2, r=0, seed=10)
        model = fit(ds, default_params(max_iter=1))
        with pytest.raises(ValueError, match="features"):
            predict_scores(model, np.ones((2, 5)))


class TestModelSerialization:
    def test_round_trip(self, tmp_path):
        ds, _ = make_synth(25, 5, 4, r=1, seed=11)
        params = default_params(max_iter=12, variant=Variant.LOW_RANK,
                                tol=1e-6, c_shift="derived", threshold=0.4)
        model = fit(ds, params)
        save_model(model, tmp_path)
        loaded = load_model(tmp_path)
        assert np.array_equal(loaded.W, model.W)
        assert loaded.params == model.params
        assert loaded.report.iterations_run == model.report.iterations_run
        assert loaded.report.final_rank_XW == model.report.final_rank_XW
        assert loaded.noise is None


# shapes with more than one row block: four blocks of fit's own size at fit-tall's width, and two
# small primal shapes cut into 48-row blocks by a lowered _BLOCK_ENTRIES (the last one uneven)
_MULTI_BLOCK = pytest.mark.parametrize("shape, entries", [((6000, 40, 50), None), ((300, 30, 12), 256),
                                                          ((250, 20, 16), 256)], ids=["fit-size", "48-row", "uneven"])


def multi_block(monkeypatch, shape, entries) -> Dataset:
    if entries is not None:
        monkeypatch.setattr(solver, "_BLOCK_ENTRIES", entries)
    assert len(solver._row_blocks(*shape)) > 1
    return make_synth(*shape, r=1, seed=0)[0]


# fits of the fit-size shape with 1, 2 and 3 usable CPUs, pickled with the threads the interpreter
# has once numpy has loaded (None without /proc)
_CPUS_IN_A_CHILD = """
import pickle, sys
from pathlib import Path
from schirn import SchirnParams, fit, solver
from synthdata import make_synth

status = Path("/proc/self/status")
threads = int(status.read_text().split("Threads:")[1].split()[0]) if status.is_file() else None
ds, _ = make_synth(6000, 40, 50, r=1, seed=0)
fits = []
for cpus in (1, 2, 3):
    solver._usable_cpus = lambda: cpus
    fits.append(fit(ds, SchirnParams(alpha=0.5, max_iter=4)))
pickle.dump((threads, fits), sys.stdout.buffer)
"""


class TestRowBlocks:
    """fit's row blocks (solver._row_blocks) come from the shape alone and threads take whole
    blocks (solver._Rows), so the CPU count changes no bit of a fit."""

    @pytest.mark.parametrize("shape, count", [
        ((10000, 300, 50), 7),  # fit-tall
        ((1600, 100, 20), 1), ((160, 30, 12), 1),  # training folds of ablate-mid and grid-small
        ((6000, 40, 50), 4), ((30000, 5, 10), 4),
        ((2621, 10, 50), 1), ((2622, 10, 50), 2),  # 131,050 and 131,100 entries, about 2 * 2^16
        ((100000, 3, 1), 1), ((200000, 3, 1), 3),
        ((4000, 4001, 50), 1), ((1000, 10, 1001), 1),  # the dual W and the wide C route
    ], ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else str(v))
    def test_the_layout_comes_from_the_shape(self, monkeypatch, shape, count):
        monkeypatch.setattr(solver, "_usable_cpus", lambda: pytest.fail("the layout read the CPU count"))
        n, _, l = shape
        blocks = solver._row_blocks(*shape)
        bounds = [r.start for r in blocks] + [blocks[-1].stop]
        assert len(blocks) == count
        assert bounds[0] == 0 and bounds[-1] == n and bounds == sorted(set(bounds))
        assert all(a % solver._ROW_ALIGN == 0 for a in bounds[:-1])
        if count > 1:
            assert min(b - a for a, b in zip(bounds, bounds[1:])) * l >= solver._BLOCK_ENTRIES - solver._ROW_ALIGN * l

    @_MULTI_BLOCK
    @pytest.mark.parametrize("params", [
        default_params(alpha=0.5, max_iter=60), default_params(alpha=0.5, tol=1.5),
        default_params(max_iter=0), default_params(alpha=0.5, max_iter=40, variant=Variant.NO_RANK),
        default_params(alpha=0.5, max_iter=40, variant=Variant.LOW_RANK, c_shift="derived"),
        default_params(alpha=0.5, max_iter=40, variant=Variant.NO_SPARSITY),
    ], ids=["default", "tol", "no-iterations", "no-rank", "low-rank", "no-sparsity"])
    def test_the_cpu_count_changes_no_bit(self, monkeypatch, shape, entries, params):
        ds = multi_block(monkeypatch, shape, entries)
        if entries is None:
            params = replace(params, max_iter=min(params.max_iter, 8))
        pools = []
        rows = solver._Rows
        monkeypatch.setattr(solver, "_Rows", lambda blocks, threads: pools.append((len(blocks), threads))
                            or rows(blocks, threads))
        fits = []
        for cpus in (1, 2, 3, 4):
            monkeypatch.setattr(solver, "_usable_cpus", lambda: cpus)
            fits.append(fit(ds, params))
        for model in fits[1:]:
            assert_same_fit(model, fits[0])
        assert pools == [(len(solver._row_blocks(*shape)), cpus) for cpus in (1, 2, 3, 4)]
        if params.max_iter == 60:
            assert fits[0].report.first_noise_iter is not None

    @_MULTI_BLOCK
    def test_fit_chain_is_fit_untraced(self, monkeypatch, shape, entries):
        # fit_chain runs the blocks on one thread, fit on three
        ds = multi_block(monkeypatch, shape, entries)
        monkeypatch.setattr(solver, "_usable_cpus", lambda: 3)
        max_iter = 8 if entries is None else 60
        params_list = [default_params(alpha=0.5, max_iter=max_iter), default_params(alpha=1.0, max_iter=max_iter),
                       default_params(alpha=1.0, max_iter=max_iter, variant=Variant.NO_SPARSITY)]
        models = solver.fit_chain(ds, params_list)
        assert 1 < models[0].report.first_noise_iter  # the followers branch mid-run
        for model, params in zip(models, params_list, strict=True):
            assert_same_fit(model, fit(ds, params, trace="none"))

    @pytest.mark.parametrize("blas_threads", [1, 2])
    def test_cpu_counts_agree_with_blas_on_one_thread_and_on_two(self, blas_threads):
        # the tests above run on whatever BLAS threads the shell sets; a child interpreter
        # fixes them, in the workers' environment with this directory on PYTHONPATH too
        env = cv._worker_env()
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
        env["PYTHONPATH"] = os.pathsep.join([str(Path(__file__).parent), env["PYTHONPATH"]])
        child = subprocess.run([sys.executable, "-c", _CPUS_IN_A_CHILD], env=env, stdout=subprocess.PIPE,
                               check=True, timeout=300)
        threads, fits = pickle.loads(child.stdout)
        # OpenBLAS starts its threads as it loads, at most one per CPU
        assert threads in (None, min(blas_threads, solver._usable_cpus()))
        assert len(fits) == 3
        for model in fits[1:]:
            assert_same_fit(model, fits[0])

    @pytest.mark.parametrize("trace", ["residual", "none"])
    def test_no_allocation_of_n_by_l_size_after_iteration_two(self, monkeypatch, trace):
        # the n x l iterates live in buffers fit allocates before its first iteration; an
        # iteration that allocated one more would raise the traced peak above the traced memory
        # at its start by n l doubles
        ds, _ = make_synth(6000, 40, 50, r=1, seed=0)
        n, l = ds.Y.shape
        assert len(solver._row_blocks(n, 40, l)) > 1
        monkeypatch.setattr(solver, "_usable_cpus", lambda: 2)
        marks = []
        update_w = solver.update_w

        def marked(*args, **kwargs):  # at the start of each iteration
            marks.append(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
            return update_w(*args, **kwargs)

        monkeypatch.setattr(solver, "update_w", marked)
        tracemalloc.start()
        try:
            model = fit(ds, default_params(alpha=0.5, max_iter=8), trace=trace)
        finally:
            tracemalloc.stop()
        assert model.report.first_noise_iter == 2
        rises = [peak - start for (start, _), (_, peak) in zip(marks, marks[1:])]  # iterations 1 to 7
        assert len(rises) == 7
        assert max(rises[2:]) < n * l * 8

    # on one thread the blocks run in order up to the first error; helpers run every block
    @pytest.mark.parametrize("threads, ran", [(1, [0]), (3, [0, 48, 96, 144])])
    def test_first_blocks_error_wins_after_every_block_ends(self, threads, ran):
        ended = []

        def kernel(r):
            ended.append(r.start)
            if r.start in (0, 96):
                raise ValueError(f"block {r.start}")

        def fail():
            raise ValueError("first")

        with solver._Rows([slice(0, 48), slice(48, 96), slice(96, 144), slice(144, 200)], threads) as rows:
            with pytest.raises(ValueError, match="^block 0$"):
                rows.run(kernel)
            assert sorted(ended) == ran
            ended.clear()
            with pytest.raises(ValueError, match="^first$"):
                rows.run(kernel, first=fail)
            # the calling thread takes no block once first fails
            assert sorted(ended) == (ran if threads > 1 else [])
            assert rows.run(lambda r: r.stop, first=lambda: "beside") == ([48, 96, 144, 200], "beside")

    def test_many_threads_take_each_block_once(self):
        # more threads than CPUs, switching often: every block runs once and the results come back
        # in block order
        blocks = [slice(i, i + 1) for i in range(200)]
        taken = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with solver._Rows(blocks, 4 * solver._usable_cpus()) as rows:
                for _ in range(20):
                    taken.clear()
                    assert rows.run(lambda r: taken.append(r.start) or r.start)[0] == list(range(200))
                    assert sorted(taken) == list(range(200))
        finally:
            sys.setswitchinterval(interval)

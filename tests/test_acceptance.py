"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 4 combines two sub-conditions (deep primal feasibility AND a
non-increasing objective tail) with criterion 5's requirement that the same
instance's noise is actually recovered. Under the verbatim default penalty
schedule these cannot hold together: noise entries flip into N only once the
multiplier has drifted far enough (inside the "final 50" window; the fit
report's first_noise_iter, printed with the result, says at which
iteration), and each flip adds its sparsity cost before the fit term
re-adjusts, so the trace necessarily steps upward there. The criterion is
asserted as stated and its failure is documented rather than masked.
"""

import json
import os
import time

import numpy as np
import pytest

from schirn import Dataset, SchirnParams, fit, load_dataset
from schirn.cli import main
from schirn.data import describe, kfold_split, save_matrix
from schirn.diagnostics import verify_rank_theorem
from schirn.metrics import average_precision, coverage, hamming_loss, one_error, ranking_loss
from schirn.solver import SolverState, update_c, update_n, update_w
from synthdata import make_synth
from test_metrics import ap_brute, cov_brute, oe_brute, rl_brute, random_instance

CANON = dict(n=200, d=30, l=12, r=2)
CANON_PARAMS = dict(alpha=1.0, beta=0.05, lam=10.0)
CANON_SEED = 1


def report(k, name, ok, detail=""):
    print(f"\n[ACCEPTANCE {k}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {k} ({name}) failed: {detail}"


def test_criterion_1_update_rule_exactness():
    started = time.monotonic()
    rng = np.random.default_rng(20240901)
    worst_w = 0.0
    worst_c = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 51))
        d = int(rng.integers(1, 21))
        l = int(rng.integers(1, 16))
        X = rng.standard_normal((n, d))
        Y = (rng.random((n, l)) < 0.5).astype(float)
        state = SolverState(
            W=rng.standard_normal((d, l)),
            N=((rng.random((n, l)) < 0.2) & (Y == 1)).astype(float),
            C=rng.standard_normal((n, l)),
            Lam=rng.standard_normal((n, l)),
            mu=float(rng.uniform(1e-4, 10.0)),
        )
        params = SchirnParams(
            alpha=float(rng.uniform(0.1, 2.0)),
            beta=float(rng.uniform(0.01, 0.1)),
            lam=float(rng.uniform(0.1, 1000.0)),
        )

        W = update_w(state, X, params)
        A = state.mu * (X.T @ X) + 2.0 * params.lam * np.eye(d)
        B = X.T @ (state.mu * state.C - state.Lam)
        rel = np.linalg.norm(A @ W - B) / (
            np.linalg.norm(A) * np.linalg.norm(W) + np.linalg.norm(B)
        )
        worst_w = max(worst_w, rel)

        N = update_n(state, Y, params)
        expected = ((Y - state.C > params.alpha / 2.0) & (Y == 1.0)).astype(float)
        assert np.array_equal(N, expected)

        C = update_c(state, X, Y, params)
        G = (2 * Y - 2 * state.N + state.Lam + state.mu * (X @ state.W)) / (2 + state.mu)
        shift = 2.0 * params.beta / (2.0 + state.mu)
        sG = np.linalg.svd(G, compute_uv=False)
        sC = np.linalg.svd(C, compute_uv=False)
        worst_c = max(worst_c, float(np.max(np.abs(sC - (sG + shift)))))

    elapsed = time.monotonic() - started
    ok = worst_w <= 1e-8 and worst_c <= 1e-8 and elapsed < 30.0
    report(1, "update-rule exactness", ok,
           f"(worst W residual {worst_w:.2e}, worst sigma error {worst_c:.2e}, {elapsed:.1f}s)")


def test_criterion_2_rank_theorem_monte_carlo():
    started = time.monotonic()
    total_viol = 0
    margins = []
    for n, l, eps in [(20, 20, 5), (30, 15, 3), (50, 50, 10)]:
        out = verify_rank_theorem(n=n, l=l, epsilon=eps, trials=1000, seed=1729)
        total_viol += out.violations
        margins.append(out.min_observed_margin)
    elapsed = time.monotonic() - started
    ok = total_viol == 0 and elapsed < 60.0
    report(2, "rank-bound Monte-Carlo", ok,
           f"(0 violations required, got {total_viol}; min margins {margins}, {elapsed:.1f}s)")


def test_criterion_3_metric_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(99)
    for _ in range(1000):
        scores, truth = random_instance(rng)
        assert abs(average_precision(scores, truth) - ap_brute(scores, truth)) <= 1e-12
        assert abs(ranking_loss(scores, truth) - rl_brute(scores, truth)) <= 1e-12
        assert abs(coverage(scores, truth) - cov_brute(scores, truth)) <= 1e-12
        assert abs(one_error(scores, truth) - oe_brute(scores, truth)) <= 1e-12
        pred = (rng.random(scores.shape) < 0.5).astype(float)
        assert hamming_loss(pred, truth) == np.sum(pred != truth) / truth.size
    elapsed = time.monotonic() - started
    ok = elapsed < 10.0
    report(3, "metric oracle equivalence", ok, f"(1000 instances exact to 1e-12, {elapsed:.1f}s)")


def test_criterion_4_solver_convergence():
    started = time.monotonic()
    ds, _ = make_synth(seed=CANON_SEED, **CANON)
    model = fit(ds, SchirnParams(**CANON_PARAMS))
    residual = model.report.primal_residual_trace[-1]
    obj = np.array(model.report.objective_trace)
    tail = obj[-50:]
    increases = np.diff(tail) - 1e-6 * (1.0 + np.abs(tail[:-1]))
    tail_ok = bool(np.all(increases <= 0.0))
    residual_ok = residual <= 1e-2
    elapsed = time.monotonic() - started
    ok = residual_ok and tail_ok and elapsed < 20.0
    report(4, "solver convergence", ok,
           f"(residual {residual:.2e} <= 1e-2: {residual_ok}; "
           f"non-increasing tail: {tail_ok}, max step +{max(0.0, float(increases.max())):.3g}; "
           f"noise first enters N at iteration {model.report.first_noise_iter}; {elapsed:.1f}s)")


def test_criterion_5_noise_recovery():
    started = time.monotonic()
    recalls = []
    fprs = []
    for seed in range(CANON_SEED, CANON_SEED + 5):
        ds, noise = make_synth(seed=seed, **CANON)
        model = fit(ds, SchirnParams(**CANON_PARAMS))
        N = model.noise
        hits = np.sum((N == 1) & (noise == 1))
        recalls.append(hits / noise.sum())
        clean = (ds.Y == 1) & (noise == 0)
        fprs.append(np.sum((N == 1) & clean) / clean.sum())
    mean_recall = float(np.mean(recalls))
    mean_fpr = float(np.mean(fprs))
    elapsed = time.monotonic() - started
    ok = mean_recall >= 0.8 and mean_fpr <= 0.1 and elapsed < 120.0
    report(5, "noise recovery", ok,
           f"(recall {mean_recall:.3f} >= 0.8, fpr {mean_fpr:.4f} <= 0.1 over 5 seeds, {elapsed:.1f}s)")


def test_criterion_6_ablation_direction(tmp_path):
    started = time.monotonic()
    ds, _ = make_synth(seed=CANON_SEED, **CANON)
    save_matrix(tmp_path / "x.txt", ds.X)
    save_matrix(tmp_path / "y.txt", ds.Y, binary=True)
    save_matrix(tmp_path / "t.txt", ds.Y_true, binary=True)
    out = tmp_path / "ablation"
    rc = main(["ablate", "--features", str(tmp_path / "x.txt"), "--labels", str(tmp_path / "y.txt"),
               "--truth", str(tmp_path / "t.txt"), "--alpha", "1.0", "--beta", "0.05",
               "--lambda", "10", "--seed", "0", "--folds", "5", "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "ablation.json").read_text())
    ap = {row["variant"]: row["mean"]["average_precision"] for row in payload["rows"]}
    elapsed = time.monotonic() - started
    ok = ap["high-rank"] > ap["no-sparsity"] and ap["high-rank"] >= ap["no-rank"] and elapsed < 300.0
    report(6, "ablation direction", ok,
           f"(AP high-rank {ap['high-rank']:.4f} > no-sparsity {ap['no-sparsity']:.4f}; "
           f">= no-rank {ap['no-rank']:.4f}; {elapsed:.1f}s)")


def test_criterion_7_rank_preservation():
    started = time.monotonic()
    ds, _ = make_synth(seed=CANON_SEED, **CANON)
    with_rank_term = fit(ds, SchirnParams(alpha=1.0, beta=0.05, lam=10.0))
    without = fit(ds, SchirnParams(alpha=1.0, beta=0.0, lam=10.0))
    elapsed = time.monotonic() - started
    ok = with_rank_term.report.final_rank_XW >= without.report.final_rank_XW and elapsed < 60.0
    report(7, "rank preservation", ok,
           f"(rank beta=0.05: {with_rank_term.report.final_rank_XW} >= "
           f"beta=0: {without.report.final_rank_XW}; {elapsed:.1f}s)")


@pytest.mark.skipif(
    "SCHIRN_MUSIC_EMOTION_DIR" not in os.environ,
    reason="real Music_emotion dataset not supplied (set SCHIRN_MUSIC_EMOTION_DIR)",
)
def test_criterion_8_music_emotion_reproduction():
    started = time.monotonic()
    root = os.environ["SCHIRN_MUSIC_EMOTION_DIR"]
    ds = load_dataset(
        os.path.join(root, "features.txt"),
        os.path.join(root, "labels.txt"),
        os.path.join(root, "truth.txt"),
    )
    stats = describe(ds)
    assert stats["n"] == 6833 and stats["d"] == 98 and stats["l"] == 11
    assert abs(stats["avg_candidate_labels"] - 5.29) < 0.01
    assert abs(stats["avg_true_labels"] - 2.42) < 0.01

    # coarse sub-grid keeps the search inside the runtime budget
    best_ap, best_hl = -1.0, None
    split = kfold_split(ds.n, 5, seed=1)
    for alpha in (0.5, 1.0, 1.5):
        for beta in (0.01, 0.05, 0.1):
            for lam in (0.1, 10.0, 100.0, 250.0, 1000.0):
                params = SchirnParams(alpha=alpha, beta=beta, lam=lam)
                aps, hls = [], []
                for fold in range(5):
                    tr = split.train_indices(fold)
                    te = split.test_indices(fold)
                    model = fit(Dataset(X=ds.X[tr], Y=ds.Y[tr]), params)
                    scores = ds.X[te] @ model.W
                    pred = (scores > 0.5).astype(float)
                    aps.append(average_precision(scores, ds.Y_true[te]))
                    hls.append(hamming_loss(pred, ds.Y_true[te]))
                if np.mean(aps) > best_ap:
                    best_ap, best_hl = float(np.mean(aps)), float(np.mean(hls))
    elapsed = time.monotonic() - started
    ok = abs(best_ap - 0.626) <= 0.03 and abs(best_hl - 0.202) <= 0.02 and elapsed < 1800.0
    report(8, "Music_emotion reproduction", ok,
           f"(AP {best_ap:.3f} vs 0.626 +/- 0.03, HL {best_hl:.3f} vs 0.202 +/- 0.02, {elapsed:.0f}s)")


def test_criterion_9_cli_determinism(tmp_path):
    started = time.monotonic()
    ds, _ = make_synth(50, 8, 6, r=1, seed=0)
    save_matrix(tmp_path / "x.txt", ds.X)
    save_matrix(tmp_path / "y.txt", ds.Y, binary=True)
    save_matrix(tmp_path / "t.txt", ds.Y_true, binary=True)
    x, y, t = str(tmp_path / "x.txt"), str(tmp_path / "y.txt"), str(tmp_path / "t.txt")

    model_a = tmp_path / "ma"
    main(["fit", "--features", x, "--labels", y, "--max-iter", "20", "--out", str(model_a)])

    def run_twice(name, args, outputs):
        for tag in ("r1", "r2"):
            base = tmp_path / f"{name}_{tag}"
            rendered = [a.replace("@OUT@", str(base)) for a in args]
            rc = main(rendered)
            assert rc == 0, f"{name} exited {rc}"
        for rel in outputs:
            a = (tmp_path / f"{name}_r1") / rel if rel else tmp_path / f"{name}_r1"
            b = (tmp_path / f"{name}_r2") / rel if rel else tmp_path / f"{name}_r2"
            if a.is_file():
                assert a.read_bytes() == b.read_bytes(), f"{name}/{rel} differs between runs"

    run_twice("inject", ["inject", "--truth", t, "--r", "2", "--seed", "9", "--out", "@OUT@"], [""])
    run_twice("fit", ["fit", "--features", x, "--labels", y, "--max-iter", "20", "--out", "@OUT@"],
              ["weights.txt", "model.meta", "fit_report.json"])
    run_twice("predict", ["predict", "--model", str(model_a), "--features", x, "--out", "@OUT@"],
              ["scores.txt", "labels.txt"])
    pred_scores = str(tmp_path / "predict_r1" / "scores.txt")
    run_twice("eval", ["eval", "--scores", pred_scores, "--truth", t, "--out", "@OUT@"], [""])
    run_twice("cv", ["cv", "--features", x, "--labels", y, "--truth", t, "--max-iter", "10",
                     "--folds", "3", "--seed", "2", "--out", "@OUT@"],
              ["cv_results.csv", "cv_results.json"])
    run_twice("grid", ["grid", "--features", x, "--labels", y, "--truth", t, "--max-iter", "10",
                       "--folds", "3", "--seed", "2", "--grid-alpha", "0.5,1.0",
                       "--grid-beta", "0.05", "--grid-lambda", "10", "--out", "@OUT@"],
              ["grid_results.csv", "grid_results.json"])
    run_twice("ablate", ["ablate", "--features", x, "--labels", y, "--truth", t, "--max-iter", "10",
                         "--folds", "3", "--seed", "2", "--out", "@OUT@"],
              ["ablation.csv", "ablation.json"])
    run_twice("rank", ["rank-report", "--model", str(model_a), "--features", x, "--labels", y,
                       "--truth", t, "--out", "@OUT@"], [""])
    run_twice("thm", ["theorem-check", "--n", "10", "--l", "10", "--epsilon", "2",
                      "--trials", "30", "--seed", "3", "--out", "@OUT@"], [""])

    elapsed = time.monotonic() - started
    ok = elapsed < 120.0
    report(9, "CLI determinism", ok, f"(all commands byte-identical across reruns, {elapsed:.1f}s)")

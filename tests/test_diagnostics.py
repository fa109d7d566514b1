import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import schirn
from schirn import SchirnParams, fit
from schirn.diagnostics import paired_ttest, rank_report, verify_rank_theorem
from schirn.linalg import numerical_rank
from schirn.solver import Model, FitReport
from schirn.data import Dataset
from synthdata import make_synth


def t_two_sided_p_oracle(t, nu):
    """High-precision two-sided p-value by numerical quadrature of the t density."""
    mpmath.mp.dps = 40
    t = mpmath.mpf(abs(float(t)))
    nu = mpmath.mpf(nu)
    norm = mpmath.gamma((nu + 1) / 2) / (mpmath.sqrt(nu * mpmath.pi) * mpmath.gamma(nu / 2))

    def pdf(x):
        return norm * (1 + x * x / nu) ** (-(nu + 1) / 2)

    return float(2 * mpmath.quad(pdf, [t, mpmath.inf]))


class TestPairedTTest:
    def test_equal_inputs_tie(self):
        a = np.array([0.5, 0.6, 0.7, 0.4, 0.5])
        out = paired_ttest(a, a.copy())
        assert out.verdict == "tie"
        assert out.p_value == 1.0
        assert out.t_stat == 0.0

    def test_constant_large_shift_wins(self):
        b = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        out = paired_ttest(b + 100.0, b)
        assert out.verdict == "win"
        assert out.p_value == 0.0
        assert out.t_stat == math.inf

    def test_p_matches_independent_cdf(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(3, 12))
            a = rng.normal(0.0, 1.0, n)
            b = a + rng.normal(0.1, 0.5, n)
            out = paired_ttest(a, b)
            assert out.p_value == pytest.approx(t_two_sided_p_oracle(out.t_stat, n - 1), abs=1e-6)

    def test_antisymmetric(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0.6, 0.05, 5)
        b = rng.normal(0.4, 0.05, 5)
        fwd = paired_ttest(a, b)
        rev = paired_ttest(b, a)
        assert fwd.p_value == rev.p_value
        assert fwd.t_stat == -rev.t_stat
        assert {fwd.verdict, rev.verdict} in ({"win", "loss"}, {"tie"})

    def test_significance_gate(self):
        a = np.array([0.9, 0.91, 0.89, 0.9, 0.92])
        b = np.array([0.1, 0.12, 0.11, 0.09, 0.1])
        assert paired_ttest(a, b, alpha_level=0.05).verdict == "win"
        assert paired_ttest(b, a, alpha_level=0.05).verdict == "loss"

    @pytest.mark.parametrize(
        "a,b,alpha",
        [
            ([1.0], [2.0], 0.05),
            ([1.0, 2.0], [1.0, 2.0, 3.0], 0.05),
            ([1.0, 2.0], [1.0, 2.0], 0.0),
            ([1.0, 2.0], [1.0, 2.0], 1.0),
            ([1.0, np.nan], [1.0, 2.0], 0.05),
        ],
    )
    def test_rejects_bad_inputs(self, a, b, alpha):
        with pytest.raises(ValueError):
            paired_ttest(a, b, alpha)


def run_fresh(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter that imports this checkout's schirn."""
    src = str(Path(schirn.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


@pytest.mark.parametrize("module", ["schirn", "schirn.cli"])
def test_import_loads_no_scipy(module):
    """scipy serves only paired_ttest, and subprocess only the CV runners, which
    import it when they start their workers; importing the package or the CLI
    must pay the start-up cost of neither."""
    code = (
        f"import sys, {module}\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'subprocess')))"
    )
    assert run_fresh(code) == "[]"


def test_ablate_loads_no_numpy_ma(tmp_path):
    """numpy.ma costs about 12 ms to import, and np.unique imports it: neither
    an ablate run nor the CV worker interpreter that runs its fits and scoring
    may load it."""
    import pickle
    from dataclasses import replace

    from schirn import cli, kfold_split
    from schirn.data import save_matrix

    ds, _ = make_synth(60, 8, 6, r=1, seed=0)
    files = {"features": ds.X, "labels": ds.Y, "truth": ds.Y_true}
    argv = ["ablate", "--folds", "3", "--out", str(tmp_path / "ablation")]
    for key, matrix in files.items():
        save_matrix(tmp_path / f"{key}.txt", matrix, binary=key != "features")
        argv += [f"--{key}", str(tmp_path / f"{key}.txt")]
    code = (
        "import sys, schirn.cli\n"
        f"rc = schirn.cli.main({argv!r})\n"
        "print(rc, 'numpy.ma' in sys.modules)"
    )
    assert run_fresh(code) == "0 False"

    # the worker of those fits, fed as cli._map_folds feeds it, reports its modules on stderr
    chain = [replace(SchirnParams(), variant=v) for v in cli._ABLATION_RUN_ORDER]
    job = cli._CvJob(ds, kfold_split(ds.n, 3, seed=1), chain)
    probe = cli._WORKER + "; print('numpy.ma' in sys.modules, file=sys.stderr)"
    out = subprocess.run([sys.executable, "-c", probe], input=pickle.dumps((job, [0, 1, 2])),
                         env=cli._worker_env(), capture_output=True, check=True, timeout=120)
    done, error = pickle.loads(out.stdout)
    assert error is None and len(done) == 3
    assert out.stderr.decode().strip() == "False"


class TestVerifyRankTheorem:
    def test_epsilon_zero_margin_zero(self):
        out = verify_rank_theorem(n=10, l=10, epsilon=0, trials=20, seed=0)
        assert out.violations == 0
        assert out.min_observed_margin == 0
        assert not out.epsilon_clipped

    def test_no_violations_moderate(self):
        out = verify_rank_theorem(n=20, l=20, epsilon=5, trials=100, seed=1)
        assert out.violations == 0
        assert out.min_observed_margin >= 0
        assert out.trials == 100

    def test_rectangular(self):
        out = verify_rank_theorem(n=15, l=8, epsilon=3, trials=100, seed=2)
        assert out.violations == 0

    def test_epsilon_clipped_flag(self):
        # 2x2 full-rank binary matrices have at most 4 ones, far below epsilon
        out = verify_rank_theorem(n=2, l=2, epsilon=10, trials=10, seed=3)
        assert out.epsilon_clipped
        assert out.violations == 0

    def test_deterministic(self):
        a = verify_rank_theorem(n=12, l=12, epsilon=4, trials=30, seed=9)
        b = verify_rank_theorem(n=12, l=12, epsilon=4, trials=30, seed=9)
        assert a == b

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            verify_rank_theorem(n=5, l=5, epsilon=-1, trials=10, seed=0)
        with pytest.raises(ValueError):
            verify_rank_theorem(n=5, l=5, epsilon=1, trials=0, seed=0)


class TestRankReport:
    def test_identity_observed(self):
        ds = Dataset(X=np.eye(5), Y=np.eye(5))
        model = Model(W=np.zeros((5, 5)), params=SchirnParams(alpha=1, beta=0.05, lam=1),
                      report=FitReport())
        out = rank_report(model, ds)
        assert out.rank_observed == 5
        assert out.rank_prediction_scores == 0
        assert out.rank_prediction_labels == 0
        assert out.rank_truth is None

    def test_bounded_by_min_dim(self):
        ds, _ = make_synth(40, 8, 6, r=1, seed=4)
        model = fit(ds, SchirnParams(alpha=1.0, beta=0.05, lam=10.0, max_iter=30))
        out = rank_report(model, ds)
        cap = min(40, 6)
        for value in (out.rank_prediction_scores, out.rank_prediction_labels,
                      out.rank_observed, out.rank_truth):
            assert value <= cap

    def test_truth_rank_reported(self):
        ds, _ = make_synth(30, 6, 5, r=1, seed=5)
        model = fit(ds, SchirnParams(alpha=1.0, beta=0.05, lam=10.0, max_iter=10))
        out = rank_report(model, ds)
        assert out.rank_truth == numerical_rank(ds.Y_true)

import ast
import io
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import schirn
from schirn import SchirnParams, fit
from schirn.diagnostics import rank_report, verify_rank_theorem
from schirn.linalg import numerical_rank
from schirn.solver import Model, FitReport
from schirn.data import Dataset
from synthdata import make_synth


def run_fresh(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter that imports this checkout's schirn."""
    src = str(Path(schirn.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_no_module_imports_scipy():
    """numpy is the package's only runtime dependency."""
    for path in sorted(Path(schirn.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not [name for name in names if name.split(".")[0] == "scipy"], path.name


@pytest.mark.parametrize("module", ["schirn", "schirn.cv", "schirn.cli"])
def test_import_loads_no_subprocess(module):
    """subprocess and selectors serve only the worker processes, which import them when they
    start and feed their workers, numpy.random only the functions that draw, and
    concurrent.futures (which loads logging; together about 10 ms) only fits that run in row
    blocks; importing the package, the runners or the CLI must pay for none of them."""
    code = (
        f"import sys, {module}\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('scipy', 'subprocess', 'selectors', 'concurrent', 'logging')\n"
        "             or m == 'numpy.random'))"
    )
    assert run_fresh(code) == "[]"


def test_ablate_loads_no_numpy_ma(tmp_path):
    """numpy.ma costs about 12 ms to import, and np.unique imports it: neither
    an ablate run nor the CV worker interpreter that runs its fits and scoring
    may load it. The worker, which draws nothing, loads no numpy.random either, and
    it parses no options and writes no files, so it loads neither the CLI nor
    argparse, csv or json."""
    from schirn import cv, kfold_split
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

    # one worker fed every unit of those fits, as cv._Workers feeds its workers, reports its
    # modules on stderr
    params_list = cv._ablate_fits(SchirnParams())
    shared = (ds, kfold_split(ds.n, 3, seed=1), params_list)
    args = [(shared, *unit) for unit in cv._units(3, params_list)]
    units = range(len(args))
    unwanted = ("numpy.ma", "numpy.random", "argparse", "csv", "json", "schirn.cli")
    probe = cv._WORKER + f"; print([m for m in {unwanted!r} if m in sys.modules], file=sys.stderr)"
    feed = b"".join(pickle.dumps(message) for message in ((cv._unit_reports, args), *units))
    out = subprocess.run([sys.executable, "-c", probe], input=feed,
                         env=cv._worker_env(), capture_output=True, check=True, timeout=120)
    answers = io.BytesIO(out.stdout)
    assert [pickle.load(answers)[1] for _ in units] == [None] * 9
    assert answers.read() == b""
    assert out.stderr.decode().strip() == "[]"


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

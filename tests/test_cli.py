import csv
import json
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from schirn import SchirnParams, Variant, cli, fit
from schirn.cli import main, parse_config_file
from schirn.cv import (
    ABLATION_ORDER,
    DEFAULT_GRID_ALPHA,
    DEFAULT_GRID_BETA,
    DEFAULT_GRID_LAMBDA,
    run_ablate,
    run_cv,
    run_grid,
)
from schirn.data import load_matrix, save_matrix
from synthdata import make_synth
from test_cv_workers import serial_run_cvs


@pytest.fixture
def synth_files(tmp_path):
    ds, _ = make_synth(60, 8, 6, r=1, seed=0)
    paths = {
        "features": tmp_path / "x.txt",
        "labels": tmp_path / "y.txt",
        "truth": tmp_path / "t.txt",
    }
    save_matrix(paths["features"], ds.X)
    save_matrix(paths["labels"], ds.Y, binary=True)
    save_matrix(paths["truth"], ds.Y_true, binary=True)
    return paths, ds


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestInject:
    def test_writes_candidates(self, tmp_path):
        truth = np.array([[1.0, 0, 0, 0], [0, 1, 0, 0]])
        save_matrix(tmp_path / "t.txt", truth, binary=True)
        out = tmp_path / "y.txt"
        rc = main(["inject", "--truth", str(tmp_path / "t.txt"), "--r", "2",
                   "--seed", "5", "--out", str(out)])
        assert rc == 0
        Y = load_matrix(out, binary=True)
        assert np.all(truth <= Y)
        assert np.array_equal((Y - truth).sum(axis=1), [2, 2])

    def test_deterministic_bytes(self, tmp_path):
        truth = (np.random.default_rng(3).random((8, 5)) < 0.4).astype(float)
        save_matrix(tmp_path / "t.txt", truth, binary=True)
        args = ["inject", "--truth", str(tmp_path / "t.txt"), "--r", "1", "--seed", "7"]
        main(args + ["--out", str(tmp_path / "a.txt")])
        main(args + ["--out", str(tmp_path / "b.txt")])
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_missing_truth_file(self, tmp_path, capsys):
        rc = main(["inject", "--truth", str(tmp_path / "nope.txt"), "--r", "1",
                   "--out", str(tmp_path / "o.txt")])
        assert rc == 2
        assert "file not found" in capsys.readouterr().err


class TestFit:
    def test_writes_model_and_report(self, synth_files, tmp_path):
        paths, _ = synth_files
        out = tmp_path / "model"
        rc = main(["fit", "--features", str(paths["features"]), "--labels", str(paths["labels"]),
                   "--alpha", "1.0", "--beta", "0.05", "--lambda", "10",
                   "--max-iter", "20", "--out", str(out)])
        assert rc == 0
        assert (out / "weights.txt").is_file()
        assert (out / "model.meta").is_file()
        report = json.loads((out / "fit_report.json").read_text())
        assert report["iterations_run"] == 20
        assert len(report["objective_trace"]) == 20
        assert len(report["primal_residual_trace"]) == 20

    def test_report_records_first_noise_iter(self, synth_files, tmp_path):
        paths, ds = synth_files
        args = ["fit", "--features", str(paths["features"]), "--labels", str(paths["labels"]),
                "--alpha", "1.0", "--beta", "0.05", "--lambda", "10"]
        expected = fit(ds, SchirnParams(alpha=1.0, beta=0.05, lam=10.0)).report.first_noise_iter
        assert isinstance(expected, int)
        for variant, value in [("high-rank", expected), ("no-sparsity", None)]:
            out = tmp_path / variant
            assert main(args + ["--variant", variant, "--out", str(out)]) == 0
            report = json.loads((out / "fit_report.json").read_text())
            assert report["first_noise_iter"] == value

    def test_missing_features_exits_2(self, tmp_path, capsys):
        rc = main(["fit", "--features", str(tmp_path / "missing.txt"),
                   "--labels", str(tmp_path / "missing2.txt"), "--out", str(tmp_path / "m")])
        assert rc == 2
        assert "file not found" in capsys.readouterr().err

    def test_max_iter_zero_persists_zero_weights(self, synth_files, tmp_path):
        paths, ds = synth_files
        out = tmp_path / "model0"
        rc = main(["fit", "--features", str(paths["features"]), "--labels", str(paths["labels"]),
                   "--max-iter", "0", "--out", str(out)])
        assert rc == 0
        W = load_matrix(out / "weights.txt")
        assert np.array_equal(W, np.zeros((ds.d, ds.l)))

    def test_numerical_failure_exits_1(self, synth_files, tmp_path, monkeypatch, capsys):
        from schirn.linalg import NumericalError
        import schirn.cli as cli_mod

        def boom(ds, params):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(cli_mod, "fit", boom)
        paths, _ = synth_files
        rc = main(["fit", "--features", str(paths["features"]), "--labels", str(paths["labels"]),
                   "--out", str(tmp_path / "m")])
        assert rc == 1
        assert "synthetic failure" in capsys.readouterr().err

    @pytest.mark.parametrize("d", [8, 80], ids=["primal", "dual"])  # X^T X, X X^T
    def test_gram_overflow_exits_1(self, tmp_path, capsys, d):
        # finite features near 1e160, whose Gram matrix overflows: a numerical failure, with no
        # RuntimeWarning (which pytest raises as an error)
        ds, _ = make_synth(60, d, 6, r=1, seed=0)
        save_matrix(tmp_path / "x.txt", ds.X * 1e160)
        save_matrix(tmp_path / "y.txt", ds.Y, binary=True)
        rc = main(["fit", "--features", str(tmp_path / "x.txt"), "--labels", str(tmp_path / "y.txt"),
                   "--out", str(tmp_path / "m")])
        assert rc == 1
        assert capsys.readouterr().err == "error: the Gram matrix of X overflows\n"
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("flag,value", [("--alpha", "nan"), ("--lambda", "inf"), ("--beta", "nan"),
                                            ("--threshold", "nan"), ("--threshold", "inf")])
    def test_non_finite_hyperparameter_exits_2(self, synth_files, tmp_path, capsys, flag, value):
        paths, _ = synth_files
        out = tmp_path / "m"
        if flag == "--threshold":  # eval's one hyperparameter
            args = ["eval", "--scores", str(paths["labels"]), "--truth", str(paths["truth"])]
        else:
            args = ["fit", "--features", str(paths["features"]), "--labels", str(paths["labels"])]
        rc = main(args + [flag, value, "--out", str(out)])
        assert rc == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "1", "2"])
    def test_eval_threshold_out_of_range_exits_2(self, synth_files, tmp_path, capsys, value):
        paths, _ = synth_files
        out = tmp_path / "eval.json"
        rc = main(["eval", "--scores", str(paths["labels"]), "--truth", str(paths["truth"]),
                   "--threshold", value, "--out", str(out)])
        assert rc == 2
        assert "threshold must lie in (0, 1)" in capsys.readouterr().err
        assert not out.exists()


class TestPredictEval:
    def test_predict_standardize_flag(self, synth_files, tmp_path):
        paths, _ = synth_files
        model_dir = tmp_path / "model"
        main(["fit", "--features", str(paths["features"]), "--labels", str(paths["labels"]),
              "--standardize", "--max-iter", "10", "--out", str(model_dir)])
        plain, scaled = tmp_path / "p1", tmp_path / "p2"
        main(["predict", "--model", str(model_dir), "--features", str(paths["features"]),
              "--out", str(plain)])
        main(["predict", "--model", str(model_dir), "--features", str(paths["features"]),
              "--standardize", "--out", str(scaled)])
        assert not np.array_equal(load_matrix(plain / "scores.txt"),
                                  load_matrix(scaled / "scores.txt"))

    def test_predict_input_error_leaves_no_out_dir(self, synth_files, tmp_path, capsys):
        paths, ds = synth_files
        model_dir = tmp_path / "model"
        main(["fit", "--features", str(paths["features"]), "--labels", str(paths["labels"]),
              "--max-iter", "5", "--out", str(model_dir)])
        save_matrix(tmp_path / "wide.txt", np.ones((4, ds.d + 1)))
        out = tmp_path / "pred"
        assert main(["predict", "--model", str(model_dir), "--features", str(tmp_path / "wide.txt"),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: X_test has {ds.d + 1} features but the model expects {ds.d}\n"
        assert not out.exists()

    @pytest.mark.parametrize("rho_line, message", [(None, "missing key 'rho'"),
                                                   ("rho=abc", "bad value 'abc' for key 'rho'")],
                             ids=["missing", "bad-value"])
    def test_model_meta_errors_name_the_file_and_the_key(self, synth_files, tmp_path, capsys, rho_line, message):
        paths, _ = synth_files
        model_dir = tmp_path / "model"
        main(["fit", "--features", str(paths["features"]), "--labels", str(paths["labels"]),
              "--max-iter", "5", "--out", str(model_dir)])
        meta = model_dir / "model.meta"
        lines = [rho_line if text.startswith("rho=") else text for text in meta.read_text().splitlines()]
        meta.write_text("".join(text + "\n" for text in lines if text is not None))
        out = tmp_path / "pred"
        assert main(["predict", "--model", str(model_dir), "--features", str(paths["features"]),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {meta}: {message}\n"
        assert not out.exists()

    def test_predict_then_eval(self, synth_files, tmp_path):
        paths, ds = synth_files
        model_dir = tmp_path / "model"
        main(["fit", "--features", str(paths["features"]), "--labels", str(paths["labels"]),
              "--max-iter", "30", "--out", str(model_dir)])
        pred_dir = tmp_path / "pred"
        rc = main(["predict", "--model", str(model_dir), "--features", str(paths["features"]),
                   "--out", str(pred_dir)])
        assert rc == 0
        scores = load_matrix(pred_dir / "scores.txt")
        labels = load_matrix(pred_dir / "labels.txt", binary=True)
        assert scores.shape == (ds.n, ds.l)
        assert np.array_equal(labels, (scores > 0.5).astype(float))

        report_path = tmp_path / "eval.json"
        rc = main(["eval", "--scores", str(pred_dir / "scores.txt"),
                   "--truth", str(paths["truth"]), "--out", str(report_path)])
        assert rc == 0
        payload = json.loads(report_path.read_text())
        assert 0.0 <= payload["metrics"]["average_precision"] <= 1.0
        assert payload["conventions"]["coverage_normalization"] == "l"

    def test_eval_with_explicit_pred(self, synth_files, tmp_path):
        paths, ds = synth_files
        save_matrix(tmp_path / "s.txt", np.random.default_rng(0).random((ds.n, ds.l)))
        save_matrix(tmp_path / "p.txt", ds.Y_true, binary=True)
        rc = main(["eval", "--scores", str(tmp_path / "s.txt"), "--pred", str(tmp_path / "p.txt"),
                   "--truth", str(paths["truth"]), "--out", str(tmp_path / "e.json")])
        assert rc == 0
        payload = json.loads((tmp_path / "e.json").read_text())
        assert payload["metrics"]["hamming_loss"] == 0.0


class TestCv:
    def cv_args(self, paths, out, extra=()):
        return ["cv", "--features", str(paths["features"]), "--labels", str(paths["labels"]),
                "--truth", str(paths["truth"]), "--alpha", "1.0", "--beta", "0.05",
                "--lambda", "10", "--max-iter", "15", "--folds", "5", "--seed", "3",
                "--out", str(out), *extra]

    def test_csv_shape(self, synth_files, tmp_path):
        paths, _ = synth_files
        out = tmp_path / "cv"
        assert main(self.cv_args(paths, out)) == 0
        rows = read_csv(out / "cv_results.csv")
        header = rows[0]
        assert header[0] == "fold"
        assert "coverage_over_l" in header
        assert "c_shift_convention" in header
        assert len(rows) == 1 + 5 + 2  # header, folds, mean, std
        assert rows[-2][0] == "mean"
        assert rows[-1][0] == "std"
        payload = json.loads((out / "cv_results.json").read_text())
        assert payload["eval_target"] == "truth"
        assert len(payload["folds"]) == 5

    def test_deterministic_bytes(self, synth_files, tmp_path):
        paths, _ = synth_files
        a, b = tmp_path / "cv_a", tmp_path / "cv_b"
        main(self.cv_args(paths, a))
        main(self.cv_args(paths, b))
        assert (a / "cv_results.csv").read_bytes() == (b / "cv_results.csv").read_bytes()
        assert (a / "cv_results.json").read_bytes() == (b / "cv_results.json").read_bytes()

    def test_jobs_is_an_unknown_option(self, synth_files, tmp_path, capsys):
        # the worker count is not an option; a leftover --jobs flag or config key is an input error
        paths, _ = synth_files
        with pytest.raises(SystemExit) as exc:
            main(self.cv_args(paths, tmp_path / "cv_flag", extra=("--jobs", "2")))
        assert exc.value.code == 2
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("jobs=2\n")
        rc = main(self.cv_args(paths, tmp_path / "cv_cfg", extra=("--config", str(cfg))))
        assert rc == 2
        assert "unknown config key 'jobs'" in capsys.readouterr().err
        assert not (tmp_path / "cv_flag").exists() and not (tmp_path / "cv_cfg").exists()

    def test_injection_path_requires_truth(self, synth_files, tmp_path, capsys):
        paths, _ = synth_files
        rc = main(["cv", "--features", str(paths["features"]), "--r", "2",
                   "--out", str(tmp_path / "cv")])
        assert rc == 2
        assert "truth" in capsys.readouterr().err

    def test_injection_path_rejects_labels(self, synth_files, tmp_path, capsys):
        paths, _ = synth_files
        rc = main(["cv", "--features", str(paths["features"]), "--labels", str(paths["labels"]),
                   "--truth", str(paths["truth"]), "--r", "2", "--out", str(tmp_path / "cv")])
        assert rc == 2
        assert "do not also pass --labels" in capsys.readouterr().err

    def test_cv_with_injection(self, synth_files, tmp_path):
        paths, _ = synth_files
        out = tmp_path / "cv_inj"
        rc = main(["cv", "--features", str(paths["features"]), "--truth", str(paths["truth"]),
                   "--r", "2", "--max-iter", "10", "--seed", "1", "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "cv_results.json").read_text())
        assert payload["noise_r"] == 2

    def test_high_rank_beats_no_sparsity_under_noise(self):
        from schirn.solver import SchirnParams, Variant

        ds, _ = make_synth(200, 30, 12, r=1, seed=2, noise_scale=1.0)
        base = dict(alpha=1.0, beta=0.05, lam=10.0)
        full = run_cv(ds, SchirnParams(**base), k_folds=5, seed=0)
        frozen = run_cv(ds, SchirnParams(**base, variant=Variant.NO_SPARSITY), k_folds=5, seed=0)
        assert full.mean["average_precision"] > frozen.mean["average_precision"]

    @pytest.mark.parametrize("variant", ["high-rank", "no-rank", "no-sparsity", "low-rank"])
    def test_untraced_fits_give_the_same_outcome(self, variant, monkeypatch):
        # the CV fold body fits with trace="none"; forcing the default level changes nothing.
        # It runs in worker processes, which never see a monkeypatch, so call it here.
        from schirn import cv, kfold_split

        ds, _ = make_synth(60, 8, 6, r=1, seed=0)
        params = SchirnParams(alpha=0.5, beta=0.5, variant=variant)
        chains = []

        def traced_fit_chain(ds_, params_list):
            chains.append(params_list)
            return [fit(ds_, params_) for params_ in params_list]

        untraced = cv.run_cv(ds, params, k_folds=3, seed=0)
        monkeypatch.setattr(cv, "fit_chain", traced_fit_chain)
        shared = (ds, kfold_split(ds.n, 3, seed=1), [params])
        traced = [cv._unit_reports(shared, fold, range(1))[0] for fold in range(3)]  # one unit per fold
        assert chains == [[params]] * 3
        assert traced == untraced.fold_reports


class TestGrid:
    def test_singleton_grid_matches_cv(self, synth_files, tmp_path):
        paths, _ = synth_files
        cv_out, grid_out = tmp_path / "cv", tmp_path / "grid"
        common = ["--features", str(paths["features"]), "--labels", str(paths["labels"]),
                  "--truth", str(paths["truth"]), "--max-iter", "15", "--folds", "4",
                  "--seed", "2"]
        main(["cv", *common, "--alpha", "0.5", "--beta", "0.03", "--lambda", "10",
              "--out", str(cv_out)])
        main(["grid", *common, "--grid-alpha", "0.5", "--grid-beta", "0.03",
              "--grid-lambda", "10", "--out", str(grid_out)])
        cv_payload = json.loads((cv_out / "cv_results.json").read_text())
        grid_payload = json.loads((grid_out / "grid_results.json").read_text())
        assert len(grid_payload["cells"]) == 1
        cell = grid_payload["cells"][0]
        assert cell["best"] is True
        assert cell["mean"] == cv_payload["mean"]
        assert cell["std"] == cv_payload["std"]

    def test_two_point_grid_ordering(self, synth_files, tmp_path):
        paths, _ = synth_files
        grid_out = tmp_path / "grid2"
        rc = main(["grid", "--features", str(paths["features"]), "--labels", str(paths["labels"]),
                   "--truth", str(paths["truth"]), "--max-iter", "15", "--folds", "4",
                   "--seed", "2", "--grid-alpha", "0.5,1.5", "--grid-beta", "0.03",
                   "--grid-lambda", "10", "--out", str(grid_out)])
        assert rc == 0
        payload = json.loads((grid_out / "grid_results.json").read_text())
        cells = payload["cells"]
        assert len(cells) == 2
        assert cells[0]["mean"]["average_precision"] >= cells[1]["mean"]["average_precision"]
        assert cells[0]["best"] and not cells[1]["best"]
        rows = read_csv(grid_out / "grid_results.csv")
        assert len(rows) == 3
        assert rows[1][-2] == "1"  # best flag column
        assert rows[1][-1] == "paper"

    def test_default_grid_dimensions(self):
        assert len(DEFAULT_GRID_ALPHA) == 20
        assert DEFAULT_GRID_ALPHA[0] == pytest.approx(0.1)
        assert DEFAULT_GRID_ALPHA[-1] == pytest.approx(2.0)
        assert len(DEFAULT_GRID_BETA) == 10
        assert DEFAULT_GRID_BETA[0] == pytest.approx(0.01)
        assert DEFAULT_GRID_BETA[-1] == pytest.approx(0.1)
        assert DEFAULT_GRID_LAMBDA == [0.1, 10.0, 100.0, 250.0, 1000.0]
        assert len(DEFAULT_GRID_ALPHA) * len(DEFAULT_GRID_BETA) * len(DEFAULT_GRID_LAMBDA) == 1000

    def test_empty_grid_list_rejected(self, synth_files, tmp_path):
        # argparse rejects the malformed list itself, exiting with code 2
        paths, _ = synth_files
        with pytest.raises(SystemExit) as exc:
            main(["grid", "--features", str(paths["features"]), "--labels", str(paths["labels"]),
                  "--grid-alpha", ",", "--out", str(tmp_path / "g")])
        assert exc.value.code == 2

    def test_empty_grid_list_from_config_rejected(self, synth_files, tmp_path, capsys):
        paths, _ = synth_files
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("grid_alpha=,\n")
        rc = main(["grid", "--features", str(paths["features"]), "--labels", str(paths["labels"]),
                   "--config", str(cfg), "--out", str(tmp_path / "g")])
        assert rc == 2
        assert "bad value" in capsys.readouterr().err


class TestAblate:
    def test_four_rows_in_order(self, synth_files, tmp_path):
        paths, _ = synth_files
        out = tmp_path / "ab"
        rc = main(["ablate", "--features", str(paths["features"]), "--labels", str(paths["labels"]),
                   "--truth", str(paths["truth"]), "--max-iter", "15", "--folds", "4",
                   "--seed", "2", "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "ablation.json").read_text())
        variants = [row["variant"] for row in payload["rows"]]
        assert variants == ["high-rank", "no-rank", "no-sparsity", "low-rank"]
        rows = read_csv(out / "ablation.csv")
        assert len(rows) == 5

    def test_deterministic_bytes(self, synth_files, tmp_path):
        paths, _ = synth_files
        args = ["ablate", "--features", str(paths["features"]), "--labels", str(paths["labels"]),
                "--truth", str(paths["truth"]), "--max-iter", "10", "--folds", "3", "--seed", "4"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "ablation.csv").read_bytes() == (tmp_path / "b" / "ablation.csv").read_bytes()


# run_grid and run_ablate before prefix sharing: one run_cv per cell or variant, each
# run in this process by the single-process CV runner (test_cv_workers), which the
# worker-process runner must equal


def run_cv_in_process(ds, params, k_folds, seed):
    return serial_run_cvs(ds, [params], k_folds, seed)[0]


def serial_grid(ds, params, k_folds, seed, alphas, betas, lambdas):
    alphas = DEFAULT_GRID_ALPHA if alphas is None else alphas
    betas = DEFAULT_GRID_BETA if betas is None else betas
    lambdas = DEFAULT_GRID_LAMBDA if lambdas is None else lambdas
    for name, lst in (("alpha", alphas), ("beta", betas), ("lambda", lambdas)):
        if not lst:
            raise ValueError(f"grid list for {name} is empty")
    rows = []
    for a, b, lam in product(alphas, betas, lambdas):
        outcome = run_cv_in_process(ds, replace(params, alpha=a, beta=b, lam=lam), k_folds, seed)
        rows.append({"alpha": a, "beta": b, "lambda": lam, "mean": outcome.mean, "std": outcome.std})
    rows.sort(key=lambda r: (-r["mean"]["average_precision"], r["alpha"], r["beta"], r["lambda"]))
    for i, row in enumerate(rows):
        row["best"] = i == 0
    return rows


def serial_ablate(ds, params, k_folds, seed):
    rows = []
    for variant in ABLATION_ORDER:
        outcome = run_cv_in_process(ds, replace(params, variant=variant), k_folds, seed)
        rows.append({"variant": variant.value, "mean": outcome.mean, "std": outcome.std})
    return rows


ALPHAS = [1.5, 0.5, 1.0, 0.5, 0.3]  # unsorted, with a duplicate


class TestPrefixSharingMatchesSerialRunners:
    """Grid and ablation cells that share zero-noise prefixes give the rows of one run_cv each."""

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_grid_on_each_base_variant(self, variant):
        ds, _ = make_synth(60, 8, 6, r=1, seed=0)
        args = (ds, SchirnParams(variant=variant), 3, 0, ALPHAS, [0.05, 0.5], [10.0])
        assert run_grid(*args) == serial_grid(*args)

    @pytest.mark.parametrize("shape", [(60, 8, 6), (45, 60, 6), (30, 6, 30)], ids=["primal", "dual-w", "wide-c"])
    def test_each_solver_route(self, shape):
        # 3 folds train on 2/3 of the rows: d > n for dual-w, l > n for wide-c
        ds, _ = make_synth(*shape, r=1, seed=1)
        params = SchirnParams()
        assert run_ablate(ds, params, 3, 0) == serial_ablate(ds, params, 3, 0)
        args = (ds, params, 3, 0, ALPHAS, [0.05], [10.0, 100.0])
        assert run_grid(*args) == serial_grid(*args)

    @pytest.mark.parametrize("params", [
        SchirnParams(max_iter=0),
        SchirnParams(max_iter=15),  # noise enters N only after iteration 40 on this instance
        SchirnParams(alpha=100.0, tol=0.5),  # high-rank stops on tol before any noise
        SchirnParams(tol=0.05, c_shift="derived"),
    ], ids=["max_iter=0", "no-noise", "tol-stop-before-noise", "tol-derived"])
    def test_edge_schedules(self, params):
        ds, _ = make_synth(60, 8, 6, r=1, seed=0)
        assert run_ablate(ds, params, 4, 2) == serial_ablate(ds, params, 4, 2)
        args = (ds, params, 4, 2, [params.alpha, *ALPHAS], [0.05], [10.0])
        assert run_grid(*args) == serial_grid(*args)

    def test_outcomes_equal_one_run_cv_each(self):
        from schirn.cv import _run_cvs

        ds, _ = make_synth(60, 8, 6, r=1, seed=0)
        base = SchirnParams(alpha=0.5)
        params_list = [base, replace(base, alpha=1.0), replace(base, variant=Variant.NO_SPARSITY),
                       replace(base, variant=Variant.NO_RANK), replace(base, alpha=0.3),
                       replace(base, beta=0.5), replace(base, alpha=0.3, beta=0.5, threshold=0.7)]
        assert _run_cvs(ds, params_list, 3, 1) == [run_cv(ds, p, 3, 1) for p in params_list]

    @pytest.mark.parametrize("command", ["grid", "ablate"])
    def test_cli_files_match_serial_runner(self, synth_files, tmp_path, monkeypatch, command):
        from schirn import cli

        paths, _ = synth_files
        args = [command, "--features", str(paths["features"]), "--labels", str(paths["labels"]),
                "--truth", str(paths["truth"]), "--folds", "3", "--seed", "1"]
        if command == "grid":
            args += ["--grid-alpha", ",".join(map(str, ALPHAS)), "--grid-beta", "0.05,0.1", "--grid-lambda", "10"]
        assert main(args + ["--out", str(tmp_path / "shared")]) == 0
        monkeypatch.setattr(cli, "_run_cvs", serial_run_cvs)
        assert main(args + ["--out", str(tmp_path / "serial")]) == 0
        names = sorted(p.name for p in (tmp_path / "serial").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "shared").iterdir()) and len(names) == 2
        for name in names:
            assert (tmp_path / "shared" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()


def forbid_work(monkeypatch, command, work):
    def no_work(*args, **kwargs):
        raise AssertionError(f"{command} started its work")

    monkeypatch.setattr(cli, work, no_work)


class TestOutIsAFile:
    """--out naming an existing regular file, or a path below one, exits 2 with an error line, before
    any work."""

    @pytest.fixture
    def commands(self, synth_files, tmp_path):
        """Each directory command's arguments besides --out, and the function that starts its work."""
        paths, _ = synth_files
        data = ["--features", str(paths["features"]), "--labels", str(paths["labels"])]
        assert main(["fit", *data, "--max-iter", "5", "--out", str(tmp_path / "model")]) == 0
        commands = {"predict": (["predict", "--model", str(tmp_path / "model"), "--features",
                                 str(paths["features"])], "load_model")}
        for command in ["fit", "cv", "grid", "ablate"]:
            folds = [] if command == "fit" else ["--folds", "2"]
            commands[command] = ([command, *data, "--max-iter", "5", *folds], "_load_experiment_dataset")
        return commands

    @pytest.mark.parametrize("command", ["fit", "predict", "cv", "grid", "ablate"])
    def test_exits_2_before_any_work(self, commands, tmp_path, monkeypatch, capsys, command):
        args, work = commands[command]
        forbid_work(monkeypatch, command, work)
        out = tmp_path / "taken.txt"
        out.write_text("kept\n")
        assert main([*args, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --out {out} exists and is not a directory\n"
        assert out.read_text() == "kept\n"

    @pytest.mark.parametrize("command", ["fit", "cv"])
    def test_a_file_above_exits_2_before_any_work(self, commands, tmp_path, monkeypatch, capsys, command):
        args, work = commands[command]
        forbid_work(monkeypatch, command, work)
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        out = taken / "deeper" / "model"
        assert main([*args, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --out {out}: {taken} exists and is not a directory\n"
        assert taken.read_text() == "kept\n"


class TestOutFile:
    """inject, eval, rank-report and theorem-check write one file: --out naming a directory exits
    2 before any work, and its missing parent directories are made."""

    @pytest.fixture
    def commands(self, synth_files, tmp_path):
        """Each command's arguments besides --out, and the function that starts its work."""
        paths, _ = synth_files
        assert main(["fit", "--features", str(paths["features"]), "--labels", str(paths["labels"]),
                     "--max-iter", "5", "--out", str(tmp_path / "model")]) == 0
        data = ["--features", str(paths["features"]), "--labels", str(paths["labels"])]
        return {
            "inject": (["--truth", str(paths["truth"]), "--r", "1"], "load_matrix"),
            "eval": (["--scores", str(paths["labels"]), "--truth", str(paths["truth"])], "load_matrix"),
            "rank-report": (["--model", str(tmp_path / "model"), *data], "load_model"),
            "theorem-check": (["--n", "6", "--l", "4", "--epsilon", "2", "--trials", "3"], "verify_rank_theorem"),
        }

    @pytest.mark.parametrize("command", ["inject", "eval", "rank-report", "theorem-check"])
    def test_a_directory_exits_2_before_any_work(self, commands, tmp_path, monkeypatch, capsys, command):
        args, work = commands[command]
        forbid_work(monkeypatch, command, work)
        out = tmp_path / "taken"
        out.mkdir()
        assert main([command, *args, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --out {out} is a directory\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["inject", "theorem-check"])
    @pytest.mark.parametrize("below", [["t.json"], ["deeper", "t.json"]], ids=["child", "grandchild"])
    def test_a_file_above_exits_2_before_any_work(self, commands, tmp_path, monkeypatch, capsys, command, below):
        args, work = commands[command]
        forbid_work(monkeypatch, command, work)
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        out = taken.joinpath(*below)
        assert main([command, *args, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --out {out}: {taken} exists and is not a directory\n"
        assert taken.read_text() == "kept\n"

    @pytest.mark.parametrize("command", ["inject", "eval", "rank-report", "theorem-check"])
    def test_missing_parent_directories_are_made(self, commands, tmp_path, command):
        args, _ = commands[command]
        assert main([command, *args, "--out", str(tmp_path / "here.out")]) == 0
        out = tmp_path / "new" / "deeper" / "here.out"
        assert main([command, *args, "--out", str(out)]) == 0
        assert out.read_bytes() == (tmp_path / "here.out").read_bytes()


class TestRankReportCmd:
    def test_filter_empty_truth_changes_ranks(self, tmp_path):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((8, 4))
        Y = (rng.random((8, 5)) < 0.6).astype(float)
        Y[:, 0] = 1.0
        T = Y.copy()
        T[:4] = 0.0  # first half has empty ground truth
        save_matrix(tmp_path / "x.txt", X)
        save_matrix(tmp_path / "y.txt", Y, binary=True)
        save_matrix(tmp_path / "t.txt", T, binary=True)
        model_dir = tmp_path / "model"
        main(["fit", "--features", str(tmp_path / "x.txt"), "--labels", str(tmp_path / "y.txt"),
              "--max-iter", "5", "--out", str(model_dir)])
        out = tmp_path / "rank.json"
        rc = main(["rank-report", "--model", str(model_dir), "--features", str(tmp_path / "x.txt"),
                   "--labels", str(tmp_path / "y.txt"), "--truth", str(tmp_path / "t.txt"),
                   "--filter-empty-truth", "--out", str(out)])
        assert rc == 0
        ranks = json.loads(out.read_text())["ranks"]
        assert ranks["rank_truth"] <= 4  # only the non-empty half remains

    def test_report(self, synth_files, tmp_path):
        paths, ds = synth_files
        model_dir = tmp_path / "model"
        main(["fit", "--features", str(paths["features"]), "--labels", str(paths["labels"]),
              "--max-iter", "25", "--out", str(model_dir)])
        out = tmp_path / "rank.json"
        rc = main(["rank-report", "--model", str(model_dir), "--features", str(paths["features"]),
                   "--labels", str(paths["labels"]), "--truth", str(paths["truth"]),
                   "--out", str(out)])
        assert rc == 0
        ranks = json.loads(out.read_text())["ranks"]
        cap = min(ds.n, ds.l)
        assert ranks["rank_observed"] <= cap
        assert ranks["rank_truth"] <= cap
        assert ranks["rank_prediction_scores"] <= cap


class TestTheoremCheckCmd:
    def test_report(self, tmp_path):
        out = tmp_path / "thm.json"
        rc = main(["theorem-check", "--n", "12", "--l", "12", "--epsilon", "3",
                   "--trials", "50", "--seed", "0", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["violations"] == 0
        assert payload["trials"] == 50

    @pytest.mark.parametrize("name, value", [("n", "0"), ("l", "-2")])
    def test_shape_below_one_exits_2(self, tmp_path, capsys, name, value):
        args = {"n": "5", "l": "4", name: value}
        assert main(["theorem-check", "--n", args["n"], "--l", args["l"], "--epsilon", "2",
                     "--out", str(tmp_path / "thm.json")]) == 2
        assert capsys.readouterr().err == f"error: {name} must be >= 1, got {value}\n"
        assert not (tmp_path / "thm.json").exists()

    def test_deterministic_bytes(self, tmp_path):
        args = ["theorem-check", "--n", "10", "--l", "8", "--epsilon", "2",
                "--trials", "25", "--seed", "1"]
        main(args + ["--out", str(tmp_path / "a.json")])
        main(args + ["--out", str(tmp_path / "b.json")])
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestConfigFile:
    def test_parse_and_types(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# experiment\n"
            "alpha = 0.7\n"
            "max-iter=12\n"
            "standardize=true\n"
            "grid_lambda=0.1,10\n"
            "variant=no-rank\n"
        )
        values = parse_config_file(cfg)
        assert values["alpha"] == 0.7
        assert values["max_iter"] == 12
        assert values["standardize"] is True
        assert values["grid_lambda"] == [0.1, 10.0]
        assert values["variant"] == "no-rank"

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("bogus=1\n")
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config_file(cfg)

    def test_line_without_equals_rejected(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("alpha\n")
        with pytest.raises(ValueError, match="expected key=value"):
            parse_config_file(cfg)

    def test_boolean_false_values(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("standardize=false\nfilter_empty_truth=0\n")
        values = parse_config_file(cfg)
        assert values["standardize"] is False
        assert values["filter_empty_truth"] is False

    def test_bad_value_rejected(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("max_iter=lots\n")
        with pytest.raises(ValueError, match="bad value"):
            parse_config_file(cfg)

    def test_cli_overrides_config(self, synth_files, tmp_path):
        paths, _ = synth_files
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"features={paths['features']}\n"
            f"labels={paths['labels']}\n"
            "max_iter=5\n"
            "alpha=0.9\n"
        )
        out = tmp_path / "model"
        rc = main(["fit", "--config", str(cfg), "--max-iter", "8", "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "fit_report.json").read_text())
        assert report["iterations_run"] == 8          # CLI wins
        assert report["params"]["alpha"] == 0.9       # config fills the rest

    def test_config_used_when_flag_absent(self, synth_files, tmp_path):
        paths, _ = synth_files
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"features={paths['features']}\n"
            f"labels={paths['labels']}\n"
            f"out={tmp_path / 'model_from_cfg'}\n"
            "max_iter=3\n"
        )
        rc = main(["fit", "--config", str(cfg)])
        assert rc == 0
        report = json.loads((tmp_path / "model_from_cfg" / "fit_report.json").read_text())
        assert report["iterations_run"] == 3


class TestConventionPlumbing:
    def test_derived_shift_reaches_model_and_csv(self, synth_files, tmp_path):
        paths, _ = synth_files
        model_dir = tmp_path / "model"
        rc = main(["fit", "--features", str(paths["features"]), "--labels", str(paths["labels"]),
                   "--c-shift", "derived", "--max-iter", "8", "--out", str(model_dir)])
        assert rc == 0
        meta = (model_dir / "model.meta").read_text()
        assert "c_shift=derived" in meta

        cv_out = tmp_path / "cv"
        rc = main(["cv", "--features", str(paths["features"]), "--labels", str(paths["labels"]),
                   "--truth", str(paths["truth"]), "--c-shift", "derived", "--max-iter", "8",
                   "--folds", "3", "--out", str(cv_out)])
        assert rc == 0
        rows = read_csv(cv_out / "cv_results.csv")
        assert all(row[-1] == "derived" for row in rows[1:])

    def test_variant_changes_fit(self, synth_files, tmp_path):
        # high-rank vs no-rank differ in the very first C update (spectrum shift)
        paths, _ = synth_files
        outs = {}
        for variant in ("high-rank", "no-rank"):
            out = tmp_path / variant
            main(["fit", "--features", str(paths["features"]), "--labels", str(paths["labels"]),
                  "--variant", variant, "--max-iter", "40", "--out", str(out)])
            outs[variant] = load_matrix(out / "weights.txt")
        assert not np.array_equal(outs["high-rank"], outs["no-rank"])

    def test_grid_lists_from_config(self, synth_files, tmp_path):
        paths, _ = synth_files
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("grid_alpha=0.5,1.0\ngrid_beta=0.05\ngrid_lambda=10\nmax_iter=8\nfolds=3\n")
        out = tmp_path / "grid"
        rc = main(["grid", "--features", str(paths["features"]), "--labels", str(paths["labels"]),
                   "--truth", str(paths["truth"]), "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        payload = json.loads((out / "grid_results.json").read_text())
        assert len(payload["cells"]) == 2

    def test_truth_outside_candidates_rejected(self, tmp_path, capsys):
        save_matrix(tmp_path / "x.txt", np.ones((2, 2)))
        save_matrix(tmp_path / "y.txt", np.array([[1.0, 0], [1, 1]]), binary=True)
        save_matrix(tmp_path / "t.txt", np.array([[1.0, 1], [1, 0]]), binary=True)
        rc = main(["fit", "--features", str(tmp_path / "x.txt"), "--labels", str(tmp_path / "y.txt"),
                   "--truth", str(tmp_path / "t.txt"), "--out", str(tmp_path / "m")])
        assert rc == 2
        assert "Y_true" in capsys.readouterr().err

    def test_eval_shape_mismatch_exits_2(self, synth_files, tmp_path, capsys):
        paths, _ = synth_files
        save_matrix(tmp_path / "s.txt", np.ones((3, 2)))
        rc = main(["eval", "--scores", str(tmp_path / "s.txt"), "--truth", str(paths["truth"]),
                   "--out", str(tmp_path / "e.json")])
        assert rc == 2
        assert "shape" in capsys.readouterr().err


class TestMissingOptions:
    @pytest.mark.parametrize(
        "args,needle",
        [
            (["inject", "--r", "1"], "inject requires"),
            (["fit", "--features", "x", "--labels", "y"], "fit requires --out"),
            (["predict", "--model", "m"], "predict requires"),
            (["eval", "--scores", "s"], "eval requires"),
            (["cv", "--features", "x", "--labels", "y"], "cv requires --out"),
            (["grid", "--features", "x", "--labels", "y"], "grid requires --out"),
            (["ablate", "--features", "x", "--labels", "y"], "ablate requires --out"),
            (["rank-report", "--model", "m"], "rank-report requires"),
            (["theorem-check", "--n", "5", "--l", "5"], "theorem-check requires"),
        ],
    )
    def test_missing_required_option_exits_2(self, args, needle, capsys):
        rc = main(args)
        assert rc == 2
        assert needle in capsys.readouterr().err

    def test_fit_requires_labels_without_injection(self, synth_files, tmp_path, capsys):
        paths, _ = synth_files
        rc = main(["fit", "--features", str(paths["features"]), "--out", str(tmp_path / "m")])
        assert rc == 2
        assert "candidate-labels" in capsys.readouterr().err

    def test_fit_requires_features(self, tmp_path, capsys):
        rc = main(["fit", "--labels", "y.txt", "--out", str(tmp_path / "m")])
        assert rc == 2
        assert "features file is required" in capsys.readouterr().err

    @pytest.mark.parametrize("data", ["labels", "truth"])
    @pytest.mark.parametrize("command", ["fit", "cv", "grid", "ablate"])
    def test_negative_r_exits_2(self, synth_files, tmp_path, capsys, command, data):
        paths, _ = synth_files
        out = tmp_path / "out"
        rc = main([command, "--features", str(paths["features"]), f"--{data}", str(paths[data]),
                   "--r", "-3", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: noise count r must be >= 0, got -3\n"
        assert not out.exists()

    def test_run_grid_rejects_empty_programmatic_list(self, synth_files):
        from schirn.solver import SchirnParams
        paths, ds = synth_files
        params = SchirnParams(alpha=1.0, beta=0.05, lam=10.0)
        with pytest.raises(ValueError, match="grid list for alpha is empty"):
            run_grid(ds, params, 3, 0, [], None, None)


class TestStandardizeFlag:
    def test_standardize_changes_model(self, synth_files, tmp_path):
        paths, _ = synth_files
        plain, scaled = tmp_path / "plain", tmp_path / "scaled"
        base = ["fit", "--features", str(paths["features"]), "--labels", str(paths["labels"]),
                "--max-iter", "10"]
        main(base + ["--out", str(plain)])
        main(base + ["--standardize", "--out", str(scaled)])
        W_plain = load_matrix(plain / "weights.txt")
        W_scaled = load_matrix(scaled / "weights.txt")
        assert not np.array_equal(W_plain, W_scaled)

    def test_filter_empty_truth(self, tmp_path):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((6, 3))
        Y_true = np.array([[1.0, 0], [0, 0], [1, 1], [0, 0], [0, 1], [1, 0]])
        save_matrix(tmp_path / "x.txt", X)
        save_matrix(tmp_path / "t.txt", Y_true, binary=True)
        out = tmp_path / "model"
        rc = main(["fit", "--features", str(tmp_path / "x.txt"), "--truth", str(tmp_path / "t.txt"),
                   "--r", "1", "--seed", "0", "--filter-empty-truth", "--max-iter", "2",
                   "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "fit_report.json").read_text())
        assert report["dataset"]["n"] == 4

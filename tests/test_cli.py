import csv
import json

import numpy as np
import pytest

from schirn import SchirnParams, fit
from schirn.cli import (
    DEFAULT_GRID_ALPHA,
    DEFAULT_GRID_BETA,
    DEFAULT_GRID_LAMBDA,
    main,
    parse_config_file,
)
from schirn.data import load_matrix, save_matrix
from synthdata import make_synth


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

    @pytest.mark.parametrize("flag,value", [("--alpha", "nan"), ("--lambda", "inf"), ("--beta", "nan")])
    def test_non_finite_hyperparameter_exits_2(self, synth_files, tmp_path, capsys, flag, value):
        paths, _ = synth_files
        out = tmp_path / "m"
        rc = main(["fit", "--features", str(paths["features"]), "--labels", str(paths["labels"]),
                   flag, value, "--out", str(out)])
        assert rc == 2
        assert "must be finite" in capsys.readouterr().err
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
        # folds run serially; a leftover --jobs flag or config key is an input error
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
        from schirn.cli import run_cv
        from schirn.solver import SchirnParams, Variant

        ds, _ = make_synth(200, 30, 12, r=1, seed=2, noise_scale=1.0)
        base = dict(alpha=1.0, beta=0.05, lam=10.0)
        full = run_cv(ds, SchirnParams(**base), k_folds=5, seed=0)
        frozen = run_cv(ds, SchirnParams(**base, variant=Variant.NO_SPARSITY), k_folds=5, seed=0)
        assert full.mean["average_precision"] > frozen.mean["average_precision"]


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

    def test_run_grid_rejects_empty_programmatic_list(self, synth_files):
        from schirn.cli import run_grid
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

"""Command-line experiment harness.

Subcommands: inject, fit, predict, eval, cv, grid, ablate, rank-report,
theorem-check. Every option can also be supplied through a flat key=value
config file (``--config``); explicit command-line flags win over the file,
which wins over built-in defaults. All randomness flows from the single
``seed`` option (noise injection consumes ``seed``, fold splitting
``seed + 1``), so identical inputs produce byte-identical outputs.

Exit codes: 0 success, 1 numerical failure, 2 input/config error.
"""

import argparse
import csv
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import product
from pathlib import Path

import numpy as np

from .data import (
    Dataset,
    MatrixFormatError,
    NoiseSpec,
    describe,
    drop_empty_truth,
    inject_noise,
    kfold_split,
    load_matrix,
    save_matrix,
    standardize,
)
from .diagnostics import rank_report, verify_rank_theorem
from .linalg import NumericalError
from .metrics import MetricReport, evaluate_all
from .solver import (
    C_SHIFT_CONVENTIONS,
    SchirnParams,
    Variant,
    fit,
    load_model,
    predict_labels,
    predict_scores,
    save_model,
)

__all__ = ["ExperimentConfig", "main"]

# hyperparameter search ranges used when grid lists are not given:
# alpha 0.1..2.0 step 0.1, beta 0.01..0.10 step 0.01, lambda a fixed quintet
DEFAULT_GRID_ALPHA = [i / 10 for i in range(1, 21)]
DEFAULT_GRID_BETA = [i / 100 for i in range(1, 11)]
DEFAULT_GRID_LAMBDA = [0.1, 10.0, 100.0, 250.0, 1000.0]

METRIC_FIELDS = ("average_precision", "ranking_loss", "coverage", "hamming_loss", "one_error")
METRIC_COLUMNS = ("average_precision", "ranking_loss", "coverage_over_l", "hamming_loss", "one_error")

_INT_KEYS = {"r", "seed", "folds", "jobs", "max_iter", "n", "l", "epsilon", "trials"}
_FLOAT_KEYS = {"alpha", "beta", "lambda", "mu0", "mu_max", "rho", "tol", "threshold"}
_BOOL_KEYS = {"standardize", "filter_empty_truth"}
_STR_KEYS = {"features", "labels", "truth", "out", "variant", "c_shift", "model", "scores", "pred"}
_LIST_KEYS = {"grid_alpha", "grid_beta", "grid_lambda"}
_KNOWN_KEYS = _INT_KEYS | _FLOAT_KEYS | _BOOL_KEYS | _STR_KEYS | _LIST_KEYS

_DEFAULTS = {
    "r": 0,
    "seed": 0,
    "folds": 5,
    "jobs": 1,
    "max_iter": 100,
    "alpha": 1.0,
    "beta": 0.05,
    "lambda": 10.0,
    "mu0": 1e-4,
    "mu_max": 10.0,
    "rho": 1.1,
    "tol": 0.0,
    "threshold": 0.5,
    "variant": "high-rank",
    "c_shift": "paper",
    "standardize": False,
    "filter_empty_truth": False,
    "trials": 1000,
}


@dataclass
class ExperimentConfig:
    """Resolved options for one command invocation."""

    features: str | None = None
    labels: str | None = None
    truth: str | None = None
    r: int = 0
    seed: int = 0
    k_folds: int = 5
    jobs: int = 1
    out: str | None = None
    do_standardize: bool = False
    filter_empty_truth: bool = False
    params: SchirnParams | None = None
    grid_alpha: list[float] | None = None
    grid_beta: list[float] | None = None
    grid_lambda: list[float] | None = None


def parse_config_file(path) -> dict:
    """Flat key=value grammar: one pair per line, '#' comments, blank lines ok."""
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().lower().replace("-", "_")
            value = value.strip()
            if key not in _KNOWN_KEYS:
                raise ValueError(f"{path}:{line_no}: unknown config key {key!r}")
            values[key] = _coerce(key, value, where=f"{path}:{line_no}")
    return values


def _coerce(key: str, value: str, where: str):
    try:
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS:
            return float(value)
        if key in _BOOL_KEYS:
            lowered = value.lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ValueError(value)
        if key in _LIST_KEYS:
            items = [tok for tok in value.split(",") if tok.strip()]
            if not items:
                raise ValueError(value)
            return [float(tok) for tok in items]
    except ValueError:
        raise ValueError(f"{where}: bad value {value!r} for key {key!r}") from None
    return value


def _resolve(args, keys) -> dict:
    """Layer CLI flags over config-file values over defaults for ``keys``."""
    file_values = parse_config_file(args.config) if getattr(args, "config", None) else {}
    resolved = {}
    for key in keys:
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            resolved[key] = cli_value
        elif key in file_values:
            resolved[key] = file_values[key]
        else:
            resolved[key] = _DEFAULTS.get(key)
    return resolved


_PARAM_KEYS = (
    "alpha", "beta", "lambda", "mu0", "mu_max", "rho",
    "max_iter", "tol", "variant", "threshold", "c_shift",
)
_DATA_KEYS = ("features", "labels", "truth", "standardize", "filter_empty_truth")
_EXP_KEYS = _PARAM_KEYS + _DATA_KEYS + (
    "r", "seed", "folds", "jobs", "out", "grid_alpha", "grid_beta", "grid_lambda",
)


def _make_params(resolved) -> SchirnParams:
    return SchirnParams(
        alpha=resolved["alpha"],
        beta=resolved["beta"],
        lam=resolved["lambda"],
        mu0=resolved["mu0"],
        mu_max=resolved["mu_max"],
        rho=resolved["rho"],
        max_iter=resolved["max_iter"],
        tol=resolved["tol"],
        variant=Variant(resolved["variant"]),
        threshold=resolved["threshold"],
        c_shift=resolved["c_shift"],
    )


def _make_config(args) -> ExperimentConfig:
    resolved = _resolve(args, _EXP_KEYS)
    return ExperimentConfig(
        features=resolved["features"],
        labels=resolved["labels"],
        truth=resolved["truth"],
        r=resolved["r"],
        seed=resolved["seed"],
        k_folds=resolved["folds"],
        jobs=resolved["jobs"],
        out=resolved["out"],
        do_standardize=resolved["standardize"],
        filter_empty_truth=resolved["filter_empty_truth"],
        params=_make_params(resolved),
        grid_alpha=resolved["grid_alpha"],
        grid_beta=resolved["grid_beta"],
        grid_lambda=resolved["grid_lambda"],
    )


def _load_experiment_dataset(cfg: ExperimentConfig) -> Dataset:
    """Assemble the working dataset; with r > 0 candidates are generated from truth."""
    if cfg.features is None:
        raise ValueError("a features file is required (--features)")
    X = load_matrix(cfg.features)
    if cfg.r > 0:
        if cfg.truth is None:
            raise ValueError("noise injection (r > 0) requires a ground-truth file (--truth)")
        if cfg.labels is not None:
            raise ValueError("r > 0 generates candidates from --truth; do not also pass --labels")
        Y_true = load_matrix(cfg.truth, binary=True)
        ds = Dataset(X=X, Y=Y_true.copy(), Y_true=Y_true)
        if cfg.filter_empty_truth:
            ds = drop_empty_truth(ds)
        Y = inject_noise(ds.Y_true, NoiseSpec(r=cfg.r, seed=cfg.seed))
        ds = Dataset(X=ds.X, Y=Y, Y_true=ds.Y_true)
    else:
        if cfg.labels is None:
            raise ValueError("a candidate-labels file is required (--labels) when r = 0")
        Y = load_matrix(cfg.labels, binary=True)
        Y_true = load_matrix(cfg.truth, binary=True) if cfg.truth is not None else None
        ds = Dataset(X=X, Y=Y, Y_true=Y_true)
        if cfg.filter_empty_truth:
            ds = drop_empty_truth(ds)
    if cfg.do_standardize:
        ds = Dataset(X=standardize(ds.X), Y=ds.Y, Y_true=ds.Y_true, names=ds.names)
    return ds


# ---------------------------------------------------------------------------
# cross-validation / grid / ablation runners


@dataclass
class CvOutcome:
    fold_reports: list
    mean: dict
    std: dict
    eval_target: str


def _metrics_as_row(report: MetricReport) -> dict:
    return {name: getattr(report, name) for name in METRIC_FIELDS}


def run_cv(ds: Dataset, params: SchirnParams, k_folds: int, seed: int, jobs: int = 1) -> CvOutcome:
    """k-fold cross-validation: fit on train, score and evaluate on test.

    Evaluation uses the ground-truth matrix when present, otherwise the
    candidate matrix; the outcome records which.
    """
    split = kfold_split(ds.n, k_folds, seed=seed + 1)
    target = ds.Y_true if ds.Y_true is not None else ds.Y
    eval_target = "truth" if ds.Y_true is not None else "candidates"

    def one_fold(fold: int) -> MetricReport:
        tr = split.train_indices(fold)
        te = split.test_indices(fold)
        model = fit(Dataset(X=ds.X[tr], Y=ds.Y[tr]), params)
        scores = predict_scores(model, ds.X[te])
        pred = predict_labels(model, ds.X[te])
        return evaluate_all(scores, pred, target[te])

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(one_fold, range(k_folds)))
    else:
        reports = [one_fold(fold) for fold in range(k_folds)]

    mean = {}
    std = {}
    for name in METRIC_FIELDS:
        values = np.array([getattr(rep, name) for rep in reports])
        mean[name] = float(values.mean())
        std[name] = float(values.std(ddof=1)) if len(values) > 1 else 0.0
    return CvOutcome(fold_reports=reports, mean=mean, std=std, eval_target=eval_target)


def run_grid(ds: Dataset, cfg: ExperimentConfig) -> list[dict]:
    """Evaluate the full Cartesian product of the grids by CV mean average precision."""
    alphas = cfg.grid_alpha if cfg.grid_alpha is not None else DEFAULT_GRID_ALPHA
    betas = cfg.grid_beta if cfg.grid_beta is not None else DEFAULT_GRID_BETA
    lambdas = cfg.grid_lambda if cfg.grid_lambda is not None else DEFAULT_GRID_LAMBDA
    for name, lst in (("alpha", alphas), ("beta", betas), ("lambda", lambdas)):
        if not lst:
            raise ValueError(f"grid list for {name} is empty")
    rows = []
    for a, b, lam in product(alphas, betas, lambdas):
        params = replace(cfg.params, alpha=a, beta=b, lam=lam)
        outcome = run_cv(ds, params, cfg.k_folds, cfg.seed, cfg.jobs)
        rows.append({"alpha": a, "beta": b, "lambda": lam, "mean": outcome.mean, "std": outcome.std})
    rows.sort(key=lambda r: (-r["mean"]["average_precision"], r["alpha"], r["beta"], r["lambda"]))
    for i, row in enumerate(rows):
        row["best"] = i == 0
    return rows


ABLATION_ORDER = (Variant.HIGH_RANK, Variant.NO_RANK, Variant.NO_SPARSITY, Variant.LOW_RANK)


def run_ablate(ds: Dataset, cfg: ExperimentConfig) -> list[dict]:
    """Four CV runs differing only in the variant, same seed and folds."""
    rows = []
    for variant in ABLATION_ORDER:
        params = replace(cfg.params, variant=variant)
        outcome = run_cv(ds, params, cfg.k_folds, cfg.seed, cfg.jobs)
        rows.append({"variant": variant.value, "mean": outcome.mean, "std": outcome.std})
    return rows


# ---------------------------------------------------------------------------
# output writers


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _open_csv(path):
    return open(path, "w", encoding="utf-8", newline="")


def _fmt(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def _write_cv_csv(path, outcome: CvOutcome, c_shift: str) -> None:
    with _open_csv(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["fold", *METRIC_COLUMNS, "rows_scored", "rows_total", "c_shift_convention"])
        for fold, rep in enumerate(outcome.fold_reports):
            row = _metrics_as_row(rep)
            writer.writerow(
                [fold, *(_fmt(row[name]) for name in METRIC_FIELDS), rep.rows_scored, rep.rows_total, c_shift]
            )
        writer.writerow(["mean", *(_fmt(outcome.mean[n]) for n in METRIC_FIELDS), "", "", c_shift])
        writer.writerow(["std", *(_fmt(outcome.std[n]) for n in METRIC_FIELDS), "", "", c_shift])


def _mean_std_columns():
    cols = []
    for name in METRIC_COLUMNS:
        cols.append(f"mean_{name}")
        cols.append(f"std_{name}")
    return cols


def _mean_std_cells(row):
    cells = []
    for name in METRIC_FIELDS:
        cells.append(_fmt(row["mean"][name]))
        cells.append(_fmt(row["std"][name]))
    return cells


def _write_grid_csv(path, rows, c_shift: str) -> None:
    with _open_csv(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "beta", "lambda", *_mean_std_columns(), "best", "c_shift_convention"])
        for row in rows:
            writer.writerow(
                [_fmt(row["alpha"]), _fmt(row["beta"]), _fmt(row["lambda"]),
                 *_mean_std_cells(row), int(row["best"]), c_shift]
            )


def _write_ablate_csv(path, rows, c_shift: str) -> None:
    with _open_csv(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", *_mean_std_columns(), "c_shift_convention"])
        for row in rows:
            writer.writerow([row["variant"], *_mean_std_cells(row), c_shift])


def _params_dict(params: SchirnParams) -> dict:
    return {
        "alpha": params.alpha,
        "beta": params.beta,
        "lambda": params.lam,
        "mu0": params.mu0,
        "mu_max": params.mu_max,
        "rho": params.rho,
        "max_iter": params.max_iter,
        "tol": params.tol,
        "variant": params.variant.value,
        "threshold": params.threshold,
        "c_shift": params.c_shift,
    }


_CONVENTIONS = {
    "coverage_normalization": "l",
    "rank_ties": "ascending label index",
    "ranking_loss_ties": "counted as violations",
}


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_inject(args) -> int:
    resolved = _resolve(args, ("truth", "r", "seed", "out"))
    if resolved["truth"] is None or resolved["out"] is None:
        raise ValueError("inject requires --truth and --out")
    truth = load_matrix(resolved["truth"], binary=True)
    Y = inject_noise(truth, NoiseSpec(r=resolved["r"], seed=resolved["seed"]))
    save_matrix(resolved["out"], Y, binary=True)
    return 0


def cmd_fit(args) -> int:
    cfg = _make_config(args)
    if cfg.out is None:
        raise ValueError("fit requires --out (a directory)")
    ds = _load_experiment_dataset(cfg)
    model = fit(ds, cfg.params)
    out_dir = Path(cfg.out)
    save_model(model, out_dir)
    _write_json(
        out_dir / "fit_report.json",
        {
            "objective_trace": model.report.objective_trace,
            "primal_residual_trace": model.report.primal_residual_trace,
            "iterations_run": model.report.iterations_run,
            "final_rank_xw": model.report.final_rank_XW,
            "first_noise_iter": model.report.first_noise_iter,
            "dataset": describe(ds),
            "params": _params_dict(cfg.params),
        },
    )
    return 0


def cmd_predict(args) -> int:
    resolved = _resolve(args, ("model", "features", "out", "standardize"))
    if resolved["model"] is None or resolved["features"] is None or resolved["out"] is None:
        raise ValueError("predict requires --model, --features and --out")
    model = load_model(resolved["model"])
    X = load_matrix(resolved["features"])
    if resolved["standardize"]:
        X = standardize(X)
    out_dir = Path(resolved["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    save_matrix(out_dir / "scores.txt", predict_scores(model, X))
    save_matrix(out_dir / "labels.txt", predict_labels(model, X), binary=True)
    return 0


def cmd_eval(args) -> int:
    resolved = _resolve(args, ("scores", "truth", "pred", "threshold", "out"))
    if resolved["scores"] is None or resolved["truth"] is None or resolved["out"] is None:
        raise ValueError("eval requires --scores, --truth and --out")
    scores = load_matrix(resolved["scores"])
    truth = load_matrix(resolved["truth"], binary=True)
    if resolved["pred"] is not None:
        pred = load_matrix(resolved["pred"], binary=True)
    else:
        pred = (scores > resolved["threshold"]).astype(np.float64)
    report = evaluate_all(scores, pred, truth)
    _write_json(
        resolved["out"],
        {
            "metrics": report.as_dict(),
            "threshold": resolved["threshold"],
            "conventions": _CONVENTIONS,
        },
    )
    return 0


def cmd_cv(args) -> int:
    cfg = _make_config(args)
    if cfg.out is None:
        raise ValueError("cv requires --out (a directory)")
    ds = _load_experiment_dataset(cfg)
    outcome = run_cv(ds, cfg.params, cfg.k_folds, cfg.seed, cfg.jobs)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_cv_csv(out_dir / "cv_results.csv", outcome, cfg.params.c_shift)
    _write_json(
        out_dir / "cv_results.json",
        {
            "folds": [rep.as_dict() for rep in outcome.fold_reports],
            "mean": outcome.mean,
            "std": outcome.std,
            "eval_target": outcome.eval_target,
            "seed": cfg.seed,
            "k_folds": cfg.k_folds,
            "noise_r": cfg.r,
            "params": _params_dict(cfg.params),
            "conventions": _CONVENTIONS,
        },
    )
    return 0


def cmd_grid(args) -> int:
    cfg = _make_config(args)
    if cfg.out is None:
        raise ValueError("grid requires --out (a directory)")
    ds = _load_experiment_dataset(cfg)
    rows = run_grid(ds, cfg)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_grid_csv(out_dir / "grid_results.csv", rows, cfg.params.c_shift)
    _write_json(
        out_dir / "grid_results.json",
        {
            "cells": rows,
            "best": rows[0],
            "seed": cfg.seed,
            "k_folds": cfg.k_folds,
            "noise_r": cfg.r,
            "fixed_params": _params_dict(cfg.params),
            "conventions": _CONVENTIONS,
        },
    )
    return 0


def cmd_ablate(args) -> int:
    cfg = _make_config(args)
    if cfg.out is None:
        raise ValueError("ablate requires --out (a directory)")
    ds = _load_experiment_dataset(cfg)
    rows = run_ablate(ds, cfg)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_ablate_csv(out_dir / "ablation.csv", rows, cfg.params.c_shift)
    _write_json(
        out_dir / "ablation.json",
        {
            "rows": rows,
            "seed": cfg.seed,
            "k_folds": cfg.k_folds,
            "noise_r": cfg.r,
            "base_params": _params_dict(cfg.params),
            "conventions": _CONVENTIONS,
        },
    )
    return 0


def cmd_rank_report(args) -> int:
    resolved = _resolve(args, ("model", "features", "labels", "truth", "standardize", "filter_empty_truth", "out"))
    if resolved["model"] is None or resolved["features"] is None or resolved["labels"] is None:
        raise ValueError("rank-report requires --model, --features and --labels")
    if resolved["out"] is None:
        raise ValueError("rank-report requires --out")
    model = load_model(resolved["model"])
    X = load_matrix(resolved["features"])
    Y = load_matrix(resolved["labels"], binary=True)
    Y_true = load_matrix(resolved["truth"], binary=True) if resolved["truth"] else None
    ds = Dataset(X=X, Y=Y, Y_true=Y_true)
    if resolved["filter_empty_truth"]:
        ds = drop_empty_truth(ds)
    if resolved["standardize"]:
        ds = Dataset(X=standardize(ds.X), Y=ds.Y, Y_true=ds.Y_true)
    report = rank_report(model, ds)
    _write_json(resolved["out"], {"ranks": report.as_dict(), "threshold": model.params.threshold})
    return 0


def cmd_theorem_check(args) -> int:
    resolved = _resolve(args, ("n", "l", "epsilon", "trials", "seed", "out"))
    for key in ("n", "l", "epsilon"):
        if resolved[key] is None:
            raise ValueError(f"theorem-check requires --{key}")
    if resolved["out"] is None:
        raise ValueError("theorem-check requires --out")
    result = verify_rank_theorem(
        n=resolved["n"],
        l=resolved["l"],
        epsilon=resolved["epsilon"],
        trials=resolved["trials"],
        seed=resolved["seed"],
    )
    _write_json(resolved["out"], result.as_dict())
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser):
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--seed", type=int, help="master RNG seed (default 0)")
    parser.add_argument("--out", help="output file or directory")


def _add_data_flags(parser):
    parser.add_argument("--features", help="feature matrix file (n x d)")
    parser.add_argument("--labels", help="candidate label matrix file (n x l, binary)")
    parser.add_argument("--truth", help="ground-truth label matrix file (n x l, binary)")
    parser.add_argument("--r", type=int, help="noisy labels to inject per sample (default 0)")
    parser.add_argument("--standardize", action="store_const", const=True, default=None,
                        help="standardize feature columns before fitting")
    parser.add_argument("--filter-empty-truth", dest="filter_empty_truth",
                        action="store_const", const=True, default=None,
                        help="drop samples whose ground-truth row is empty")


def _add_param_flags(parser):
    parser.add_argument("--alpha", type=float, help="noise-sparsity weight")
    parser.add_argument("--beta", type=float, help="rank-term weight")
    parser.add_argument("--lambda", dest="lambda", type=float, help="ridge weight")
    parser.add_argument("--mu0", type=float, help="initial penalty (default 1e-4)")
    parser.add_argument("--mu-max", dest="mu_max", type=float, help="penalty cap (default 10)")
    parser.add_argument("--rho", type=float, help="penalty growth factor (default 1.1)")
    parser.add_argument("--max-iter", dest="max_iter", type=int, help="iteration cap (default 100)")
    parser.add_argument("--tol", type=float, help="early-stop residual threshold (0 disables)")
    parser.add_argument("--variant", choices=[v.value for v in Variant],
                        help="solver variant (default high-rank)")
    parser.add_argument("--threshold", type=float, help="score binarization threshold (default 0.5)")
    parser.add_argument("--c-shift", dest="c_shift", choices=list(C_SHIFT_CONVENTIONS),
                        help="singular-value shift convention (default paper)")


def _add_cv_flags(parser):
    parser.add_argument("--folds", type=int, help="fold count (default 5)")
    parser.add_argument("--jobs", type=int, help="concurrent fold fits (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="schirn", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inject", help="add r noisy labels per sample to a truth matrix")
    p.add_argument("--truth", help="ground-truth label matrix file")
    p.add_argument("--r", type=int, help="noisy labels per sample")
    _add_common(p)
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("fit", help="fit a model and persist it with its traces")
    _add_data_flags(p)
    _add_param_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="score a feature matrix with a saved model")
    p.add_argument("--model", help="model directory written by fit")
    p.add_argument("--features", help="feature matrix file")
    p.add_argument("--standardize", action="store_const", const=True, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="evaluate a score matrix against ground truth")
    p.add_argument("--scores", help="score matrix file")
    p.add_argument("--pred", help="optional binary prediction matrix file")
    p.add_argument("--truth", help="ground-truth label matrix file")
    p.add_argument("--threshold", type=float, help="binarization threshold when --pred is absent")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("cv", help="k-fold cross-validation")
    _add_data_flags(p)
    _add_param_flags(p)
    _add_cv_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("grid", help="grid search over alpha/beta/lambda by CV mean average precision")
    _add_data_flags(p)
    _add_param_flags(p)
    _add_cv_flags(p)
    p.add_argument("--grid-alpha", dest="grid_alpha", type=_float_list,
                   help="comma-separated alpha grid")
    p.add_argument("--grid-beta", dest="grid_beta", type=_float_list,
                   help="comma-separated beta grid")
    p.add_argument("--grid-lambda", dest="grid_lambda", type=_float_list,
                   help="comma-separated lambda grid")
    _add_common(p)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("ablate", help="compare the four solver variants under identical CV")
    _add_data_flags(p)
    _add_param_flags(p)
    _add_cv_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("rank-report", help="numerical ranks of predictions and label matrices")
    p.add_argument("--model", help="model directory written by fit")
    p.add_argument("--features", help="feature matrix file")
    p.add_argument("--labels", help="candidate label matrix file")
    p.add_argument("--truth", help="optional ground-truth label matrix file")
    p.add_argument("--standardize", action="store_const", const=True, default=None)
    p.add_argument("--filter-empty-truth", dest="filter_empty_truth",
                   action="store_const", const=True, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_rank_report)

    p = sub.add_parser("theorem-check", help="Monte-Carlo check of the sparse-perturbation rank bound")
    p.add_argument("--n", type=int, help="row count")
    p.add_argument("--l", type=int, help="column count")
    p.add_argument("--epsilon", type=int, help="number of noise entries per trial")
    p.add_argument("--trials", type=int, help="Monte-Carlo trials (default 1000)")
    _add_common(p)
    p.set_defaults(func=cmd_theorem_check)

    return parser


def _float_list(text: str) -> list[float]:
    items = [tok for tok in text.split(",") if tok.strip()]
    if not items:
        raise argparse.ArgumentTypeError("empty list")
    try:
        return [float(tok) for tok in items]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MatrixFormatError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            PermissionError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

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
from dataclasses import dataclass, fields, replace
from itertools import product
from pathlib import Path

import numpy as np

from .data import (Dataset, MatrixFormatError, NoiseSpec, describe, drop_empty_truth, inject_noise, kfold_split,
                   load_dataset, load_matrix, save_matrix, standardize)
from .diagnostics import rank_report, verify_rank_theorem
from .linalg import NumericalError
from .metrics import evaluate_all
from .solver import SchirnParams, Variant, fit, load_model, predict_labels, predict_scores, save_model

__all__ = ["main", "run_ablate", "run_cv", "run_grid"]

# hyperparameter search ranges used when grid lists are not given:
# alpha 0.1..2.0 step 0.1, beta 0.01..0.10 step 0.01, lambda a fixed quintet
DEFAULT_GRID_ALPHA = [i / 10 for i in range(1, 21)]
DEFAULT_GRID_BETA = [i / 100 for i in range(1, 11)]
DEFAULT_GRID_LAMBDA = [0.1, 10.0, 100.0, 250.0, 1000.0]

METRIC_FIELDS = ("average_precision", "ranking_loss", "coverage", "hamming_loss", "one_error")
METRIC_COLUMNS = ("average_precision", "ranking_loss", "coverage_over_l", "hamming_loss", "one_error")


# ---------------------------------------------------------------------------
# options: one table for every flag and config key


def _bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(text)


def _float_list(text: str) -> list[float]:
    items = [tok for tok in text.split(",") if tok.strip()]
    if not items:
        raise argparse.ArgumentTypeError("empty list")
    try:
        return [float(tok) for tok in items]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@dataclass(frozen=True)
class Option:
    """One option: ``--key-with-dashes`` on the command line, ``key`` in a config file.

    ``parse`` turns the config-file text (and the flag's argument) into a
    value; a ``_bool`` option is a bare flag on the command line.
    """

    parse: object
    default: object
    help: str
    choices: tuple | None = None


_PARAM_DEFAULTS = SchirnParams().to_dict()  # external key -> default, in field order
_OPTIONS = {
    **{key: Option(type(default), default, f.metadata["help"], f.metadata["choices"])
       for f, (key, default) in zip(fields(SchirnParams), _PARAM_DEFAULTS.items())},
    "features": Option(str, None, "feature matrix file (n x d)"),
    "labels": Option(str, None, "candidate label matrix file (n x l, binary)"),
    "truth": Option(str, None, "ground-truth label matrix file (n x l, binary)"),
    "r": Option(int, 0, "noisy labels to inject per sample"),
    "standardize": Option(_bool, False, "standardize feature columns"),
    "filter_empty_truth": Option(_bool, False, "drop samples whose ground-truth row is empty"),
    "folds": Option(int, 5, "fold count"),
    "grid_alpha": Option(_float_list, None, "comma-separated alpha grid"),
    "grid_beta": Option(_float_list, None, "comma-separated beta grid"),
    "grid_lambda": Option(_float_list, None, "comma-separated lambda grid"),
    "model": Option(str, None, "model directory written by fit"),
    "scores": Option(str, None, "score matrix file"),
    "pred": Option(str, None, "optional binary prediction matrix file"),
    "n": Option(int, None, "row count"),
    "l": Option(int, None, "column count"),
    "epsilon": Option(int, None, "number of noise entries per trial"),
    "trials": Option(int, 1000, "Monte-Carlo trials"),
    "seed": Option(int, 0, "master RNG seed"),
    "out": Option(str, None, "output file or directory"),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def parse_config_file(path) -> dict:
    """Flat key=value grammar: one pair per line, '#' comments, blank lines ok."""
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            where = f"{path}:{line_no}"
            if "=" not in line:
                raise ValueError(f"{where}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().lower().replace("-", "_")
            value = value.strip()
            if key not in _OPTIONS:
                raise ValueError(f"{where}: unknown config key {key!r}")
            try:
                values[key] = _OPTIONS[key].parse(value)
            except (ValueError, argparse.ArgumentTypeError):
                raise ValueError(f"{where}: bad value {value!r} for key {key!r}") from None
    return values


def _resolve(args) -> dict:
    """Every option's value: command-line flag over config-file value over default.

    Flags that were not given are absent from ``args`` (their argparse
    default is SUPPRESS), so a plain dict merge does the layering.
    """
    file_values = parse_config_file(args.config) if getattr(args, "config", None) else {}
    return {**{key: opt.default for key, opt in _OPTIONS.items()}, **file_values, **vars(args)}


def _load_experiment_dataset(v: dict) -> Dataset:
    """Assemble the working dataset; with r > 0 candidates are generated from truth."""
    if v["features"] is None:
        raise ValueError("a features file is required (--features)")
    if v["r"] <= 0:
        if v["labels"] is None:
            raise ValueError("a candidate-labels file is required (--labels) when r = 0")
        return load_dataset(v["features"], v["labels"], v["truth"], standardize_features=v["standardize"],
                            filter_empty_truth=v["filter_empty_truth"])
    if v["truth"] is None:
        raise ValueError("noise injection (r > 0) requires a ground-truth file (--truth)")
    if v["labels"] is not None:
        raise ValueError("r > 0 generates candidates from --truth; do not also pass --labels")
    X = load_matrix(v["features"])
    Y_true = load_matrix(v["truth"], binary=True)
    ds = Dataset(X=X, Y=Y_true.copy(), Y_true=Y_true)
    if v["filter_empty_truth"]:
        ds = drop_empty_truth(ds)
    Y = inject_noise(ds.Y_true, NoiseSpec(r=v["r"], seed=v["seed"]))
    X = standardize(ds.X) if v["standardize"] else ds.X
    return Dataset(X=X, Y=Y, Y_true=ds.Y_true)


# ---------------------------------------------------------------------------
# cross-validation / grid / ablation runners


@dataclass
class CvOutcome:
    fold_reports: list
    mean: dict
    std: dict
    eval_target: str


def run_cv(ds: Dataset, params: SchirnParams, k_folds: int, seed: int) -> CvOutcome:
    """k-fold cross-validation: fit on train, score and evaluate on test, fold by fold.

    Evaluation uses the ground-truth matrix when present, otherwise the
    candidate matrix; the outcome records which.
    """
    split = kfold_split(ds.n, k_folds, seed=seed + 1)
    target = ds.Y_true if ds.Y_true is not None else ds.Y
    eval_target = "truth" if ds.Y_true is not None else "candidates"
    reports = []
    for fold in range(k_folds):
        tr = split.train_indices(fold)
        te = split.test_indices(fold)
        model = fit(Dataset(X=ds.X[tr], Y=ds.Y[tr]), params)
        reports.append(evaluate_all(predict_scores(model, ds.X[te]), predict_labels(model, ds.X[te]), target[te]))

    mean = {}
    std = {}
    for name in METRIC_FIELDS:
        values = np.array([getattr(rep, name) for rep in reports])
        mean[name] = float(values.mean())
        std[name] = float(values.std(ddof=1)) if len(values) > 1 else 0.0
    return CvOutcome(fold_reports=reports, mean=mean, std=std, eval_target=eval_target)


def run_grid(ds: Dataset, params: SchirnParams, k_folds: int, seed: int, alphas, betas, lambdas) -> list[dict]:
    """Evaluate the full Cartesian product of the grids by CV mean average precision.

    A grid list given as None is its default search range.
    """
    alphas = DEFAULT_GRID_ALPHA if alphas is None else alphas
    betas = DEFAULT_GRID_BETA if betas is None else betas
    lambdas = DEFAULT_GRID_LAMBDA if lambdas is None else lambdas
    for name, lst in (("alpha", alphas), ("beta", betas), ("lambda", lambdas)):
        if not lst:
            raise ValueError(f"grid list for {name} is empty")
    rows = []
    for a, b, lam in product(alphas, betas, lambdas):
        outcome = run_cv(ds, replace(params, alpha=a, beta=b, lam=lam), k_folds, seed)
        rows.append({"alpha": a, "beta": b, "lambda": lam, "mean": outcome.mean, "std": outcome.std})
    rows.sort(key=lambda r: (-r["mean"]["average_precision"], r["alpha"], r["beta"], r["lambda"]))
    for i, row in enumerate(rows):
        row["best"] = i == 0
    return rows


ABLATION_ORDER = (Variant.HIGH_RANK, Variant.NO_RANK, Variant.NO_SPARSITY, Variant.LOW_RANK)


def run_ablate(ds: Dataset, params: SchirnParams, k_folds: int, seed: int) -> list[dict]:
    """Four CV runs differing only in the variant, same seed and folds."""
    rows = []
    for variant in ABLATION_ORDER:
        outcome = run_cv(ds, replace(params, variant=variant), k_folds, seed)
        rows.append({"variant": variant.value, "mean": outcome.mean, "std": outcome.std})
    return rows


# ---------------------------------------------------------------------------
# output tables: (CSV header, CSV rows, JSON payload) of each CV experiment


def _fmt(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


_STATS = ("mean", "std")
_MEAN_STD_COLUMNS = [f"{stat}_{name}" for name in METRIC_COLUMNS for stat in _STATS]


def _mean_std_cells(row) -> list:
    return [_fmt(row[stat][name]) for name in METRIC_FIELDS for stat in _STATS]


def _cv_table(ds, params, v):
    outcome = run_cv(ds, params, v["folds"], v["seed"])
    rows = [[fold, *(_fmt(getattr(rep, name)) for name in METRIC_FIELDS), rep.rows_scored, rep.rows_total]
            for fold, rep in enumerate(outcome.fold_reports)]
    rows += [[stat, *(_fmt(getattr(outcome, stat)[name]) for name in METRIC_FIELDS), "", ""] for stat in _STATS]
    payload = {
        "folds": [rep.as_dict() for rep in outcome.fold_reports],
        "mean": outcome.mean,
        "std": outcome.std,
        "eval_target": outcome.eval_target,
        "params": params.to_dict(),
    }
    return ["fold", *METRIC_COLUMNS, "rows_scored", "rows_total"], rows, payload


def _grid_table(ds, params, v):
    cells = run_grid(ds, params, v["folds"], v["seed"], v["grid_alpha"], v["grid_beta"], v["grid_lambda"])
    rows = [[_fmt(c["alpha"]), _fmt(c["beta"]), _fmt(c["lambda"]), *_mean_std_cells(c), int(c["best"])]
            for c in cells]
    payload = {"cells": cells, "best": cells[0], "fixed_params": params.to_dict()}
    return ["alpha", "beta", "lambda", *_MEAN_STD_COLUMNS, "best"], rows, payload


def _ablate_table(ds, params, v):
    variants = run_ablate(ds, params, v["folds"], v["seed"])
    rows = [[row["variant"], *_mean_std_cells(row)] for row in variants]
    return ["variant", *_MEAN_STD_COLUMNS], rows, {"rows": variants, "base_params": params.to_dict()}


# output file stem and table of each CV experiment
_EXPERIMENTS = {
    "cv": ("cv_results", _cv_table),
    "grid": ("grid_results", _grid_table),
    "ablate": ("ablation", _ablate_table),
}

_CONVENTIONS = {
    "coverage_normalization": "l",
    "rank_ties": "ascending label index",
    "ranking_loss_ties": "counted as violations",
}


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommand handlers: each takes the resolved options of _resolve


def cmd_inject(v: dict) -> None:
    truth = load_matrix(v["truth"], binary=True)
    save_matrix(v["out"], inject_noise(truth, NoiseSpec(r=v["r"], seed=v["seed"])), binary=True)


def cmd_fit(v: dict) -> None:
    params = SchirnParams.from_mapping(v)
    ds = _load_experiment_dataset(v)
    model = fit(ds, params)
    out_dir = Path(v["out"])
    save_model(model, out_dir)
    report = model.report
    _write_json(
        out_dir / "fit_report.json",
        {
            "objective_trace": report.objective_trace,
            "primal_residual_trace": report.primal_residual_trace,
            "iterations_run": report.iterations_run,
            "final_rank_xw": report.final_rank_XW,
            "first_noise_iter": report.first_noise_iter,
            "dataset": describe(ds),
            "params": params.to_dict(),
        },
    )


def cmd_predict(v: dict) -> None:
    model = load_model(v["model"])
    X = load_matrix(v["features"])
    if v["standardize"]:
        X = standardize(X)
    out_dir = Path(v["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    save_matrix(out_dir / "scores.txt", predict_scores(model, X))
    save_matrix(out_dir / "labels.txt", predict_labels(model, X), binary=True)


def cmd_eval(v: dict) -> None:
    scores = load_matrix(v["scores"])
    truth = load_matrix(v["truth"], binary=True)
    if v["pred"] is not None:
        pred = load_matrix(v["pred"], binary=True)
    else:
        pred = (scores > v["threshold"]).astype(np.float64)
    report = evaluate_all(scores, pred, truth)
    _write_json(v["out"], {"metrics": report.as_dict(), "threshold": v["threshold"], "conventions": _CONVENTIONS})


def cmd_experiment(v: dict) -> None:
    """cv, grid and ablate: CV runs on one dataset, written as CSV and JSON."""
    params = SchirnParams.from_mapping(v)
    ds = _load_experiment_dataset(v)
    stem, tabulate = _EXPERIMENTS[v["command"]]
    header, rows, payload = tabulate(ds, params, v)
    out_dir = Path(v["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{stem}.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*header, "c_shift_convention"])
        writer.writerows([*row, params.c_shift] for row in rows)
    _write_json(
        out_dir / f"{stem}.json",
        {**payload, "seed": v["seed"], "k_folds": v["folds"], "noise_r": v["r"], "conventions": _CONVENTIONS},
    )


def cmd_rank_report(v: dict) -> None:
    model = load_model(v["model"])
    ds = load_dataset(v["features"], v["labels"], v["truth"], standardize_features=v["standardize"],
                      filter_empty_truth=v["filter_empty_truth"])
    _write_json(v["out"], {"ranks": rank_report(model, ds).as_dict(), "threshold": model.params.threshold})


def cmd_theorem_check(v: dict) -> None:
    result = verify_rank_theorem(n=v["n"], l=v["l"], epsilon=v["epsilon"], trials=v["trials"], seed=v["seed"])
    _write_json(v["out"], result.as_dict())


# ---------------------------------------------------------------------------
# argument parsing

_PARAMS = tuple(_PARAM_DEFAULTS)
_DATA = ("features", "labels", "truth", "r", "standardize", "filter_empty_truth")
_CV = _DATA + _PARAMS + ("folds",)

# name: (handler, help, options besides --config/--seed/--out, options that must be set)
_COMMANDS = {
    "inject": (cmd_inject, "add r noisy labels per sample to a truth matrix", ("truth", "r"), ("truth", "out")),
    "fit": (cmd_fit, "fit a model and persist it with its traces", _DATA + _PARAMS, ("out",)),
    "predict": (cmd_predict, "score a feature matrix with a saved model", ("model", "features", "standardize"),
                ("model", "features", "out")),
    "eval": (cmd_eval, "evaluate a score matrix against ground truth", ("scores", "pred", "truth", "threshold"),
             ("scores", "truth", "out")),
    "cv": (cmd_experiment, "k-fold cross-validation", _CV, ("out",)),
    "grid": (cmd_experiment, "grid search over alpha/beta/lambda by CV mean average precision",
             _CV + ("grid_alpha", "grid_beta", "grid_lambda"), ("out",)),
    "ablate": (cmd_experiment, "compare the four solver variants under identical CV", _CV, ("out",)),
    "rank-report": (cmd_rank_report, "numerical ranks of predictions and label matrices",
                    ("model", "features", "labels", "truth", "standardize", "filter_empty_truth"),
                    ("model", "features", "labels", "out")),
    "theorem-check": (cmd_theorem_check, "Monte-Carlo check of the sparse-perturbation rank bound",
                      ("n", "l", "epsilon", "trials"), ("n", "l", "epsilon", "out")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="schirn", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, keys, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        for key in keys:
            _add_option(p, key)
        p.add_argument("--config", help="flat key=value config file")
        _add_option(p, "seed")
        _add_option(p, "out")
    return parser


def _add_option(parser, key: str) -> None:
    opt = _OPTIONS[key]
    if opt.parse is _bool:
        parser.add_argument(_flag(key), dest=key, action="store_true", help=opt.help)
    else:
        default = "" if opt.default is None else f" (default {opt.default})"
        parser.add_argument(_flag(key), dest=key, type=opt.parse, choices=opt.choices, help=opt.help + default)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, _, _, required = _COMMANDS[args.command]
    try:
        v = _resolve(args)
        missing = [_flag(key) for key in required if v[key] is None]
        if missing:
            raise ValueError(f"{args.command} requires {', '.join(missing)}")
        handler(v)
        return 0
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MatrixFormatError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            PermissionError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

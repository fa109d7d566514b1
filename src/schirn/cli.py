"""Command-line experiment harness.

Subcommands: inject, fit, predict, eval, cv, grid, ablate, rank-report,
theorem-check. Every option can also be supplied through a flat key=value
config file (``--config``); explicit command-line flags win over the file,
which wins over built-in defaults. All randomness flows from the single
``seed`` option (noise injection consumes ``seed``, fold splitting
``seed + 1``), so identical inputs produce byte-identical outputs. cv,
grid and ablate run through ``schirn.cv``, which fits in worker processes;
fit and predict parse and write large matrix files on such workers too.

Exit codes: 0 success, 1 numerical failure (or a worker process that ended
without a result), 2 input/config error.
"""

import argparse
import csv
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from .cv import (METRIC_FIELDS, _ablate_fits, _ablate_rows, _grid_fits, _grid_rows, _io_workers, _run_cvs, _units,
                 _worker_count, _Workers)
from .data import (Dataset, MatrixFormatError, NoiseSpec, describe, inject_noise, load_dataset, load_matrix,
                   save_matrix, standardize)
from .diagnostics import rank_report, verify_rank_theorem
from .linalg import NumericalError
from .metrics import evaluate_all
from .solver import SchirnParams, binarize, fit, load_model, predict_scores, save_model

__all__ = ["main"]

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


def _load_experiment_dataset(v: dict, workers=None) -> Dataset:
    """Assemble the working dataset; with r > 0 candidates are generated from truth. ``workers``
    (cv._Workers) parse large files in spans."""
    noise = NoiseSpec(r=v["r"], seed=v["seed"])  # checks r >= 0
    if v["features"] is None:
        raise ValueError("a features file is required (--features)")
    if noise.r == 0 and v["labels"] is None:
        raise ValueError("a candidate-labels file is required (--labels) when r = 0")
    if noise.r > 0 and v["truth"] is None:
        raise ValueError("noise injection (r > 0) requires a ground-truth file (--truth)")
    if noise.r > 0 and v["labels"] is not None:
        raise ValueError("r > 0 generates candidates from --truth; do not also pass --labels")
    return load_dataset(v["features"], v["labels"], v["truth"], standardize_features=v["standardize"],
                        filter_empty_truth=v["filter_empty_truth"], noise=noise, workers=workers)


# ---------------------------------------------------------------------------
# output tables: (CSV header, CSV rows, JSON payload) of each CV experiment


def _fmt(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


_STATS = ("mean", "std")
_MEAN_STD_COLUMNS = [f"{stat}_{name}" for name in METRIC_COLUMNS for stat in _STATS]


def _mean_std_cells(row) -> list:
    return [_fmt(row[stat][name]) for name in METRIC_FIELDS for stat in _STATS]


def _cv_table(params, fits, outcomes):
    outcome = outcomes[0]
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


def _grid_table(params, fits, outcomes):
    cells = _grid_rows(fits, outcomes)
    rows = [[_fmt(c["alpha"]), _fmt(c["beta"]), _fmt(c["lambda"]), *_mean_std_cells(c), int(c["best"])]
            for c in cells]
    payload = {"cells": cells, "best": cells[0], "fixed_params": params.to_dict()}
    return ["alpha", "beta", "lambda", *_MEAN_STD_COLUMNS, "best"], rows, payload


def _ablate_table(params, fits, outcomes):
    variants = _ablate_rows(outcomes)
    rows = [[row["variant"], *_mean_std_cells(row)] for row in variants]
    return ["variant", *_MEAN_STD_COLUMNS], rows, {"rows": variants, "base_params": params.to_dict()}


# output file stem, the fits that _run_cvs runs on each fold, and the table of their outcomes, of
# each CV experiment
_EXPERIMENTS = {
    "cv": ("cv_results", lambda params, v: [params], _cv_table),
    "grid": ("grid_results", lambda params, v: _grid_fits(params, v["grid_alpha"], v["grid_beta"], v["grid_lambda"]),
             _grid_table),
    "ablate": ("ablation", lambda params, v: _ablate_fits(params), _ablate_table),
}

_CONVENTIONS = {
    "coverage_normalization": "l",
    "rank_ties": "ascending label index",
    "ranking_loss_ties": "counted as violations",
}


def _out_path(v: dict) -> Path:
    """--out, whose missing parent directories a command makes when it writes; checked before any
    work: its nearest existing ancestor must be a directory."""
    out = Path(v["out"])
    for parent in out.parents:
        if parent.exists():
            if not parent.is_dir():
                raise NotADirectoryError(f"--out {out}: {parent} exists and is not a directory")
            break
    return out


def _out_dir(v: dict) -> Path:
    """--out as the directory a command writes into; checked before any work."""
    out_dir = _out_path(v)
    if out_dir.exists() and not out_dir.is_dir():
        raise NotADirectoryError(f"--out {out_dir} exists and is not a directory")
    return out_dir


def _out_file(v: dict) -> Path:
    """--out as the file a command writes; checked before any work."""
    out = _out_path(v)
    if out.is_dir():
        raise IsADirectoryError(f"--out {out} is a directory")
    return out


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommand handlers: each takes the resolved options of _resolve


def cmd_inject(v: dict) -> None:
    out = _out_file(v)
    candidates = inject_noise(load_matrix(v["truth"], binary=True), NoiseSpec(r=v["r"], seed=v["seed"]))
    out.parent.mkdir(parents=True, exist_ok=True)
    save_matrix(out, candidates, binary=True)


def cmd_fit(v: dict) -> None:
    """The workers parse and are gone before the fit, whose row blocks take the CPUs."""
    params = SchirnParams.from_mapping(v)
    out_dir = _out_dir(v)
    with _io_workers(v["features"], v["labels"], v["truth"]) as workers:
        ds = _load_experiment_dataset(v, workers)
    model = fit(ds, params)
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
    """The same workers parse the features and format the scores."""
    out_dir = _out_dir(v)
    with _io_workers(v["features"]) as workers:
        model = load_model(v["model"])
        X = load_matrix(v["features"], workers=workers)
        if v["standardize"]:
            X = standardize(X)
        scores = predict_scores(model, X)
        out_dir.mkdir(parents=True, exist_ok=True)
        save_matrix(out_dir / "scores.txt", scores, workers=workers)
    save_matrix(out_dir / "labels.txt", binarize(scores, model.params.threshold), binary=True)


def cmd_eval(v: dict) -> None:
    threshold = SchirnParams(threshold=v["threshold"]).threshold  # checked as fit's threshold is
    out = _out_file(v)
    scores = load_matrix(v["scores"])
    truth = load_matrix(v["truth"], binary=True)
    if v["pred"] is not None:
        pred = load_matrix(v["pred"], binary=True)
    else:
        pred = binarize(scores, threshold)
    report = evaluate_all(scores, pred, truth)
    _write_json(out, {"metrics": report.as_dict(), "threshold": threshold, "conventions": _CONVENTIONS})


def cmd_experiment(v: dict) -> None:
    """cv, grid and ablate: CV runs on one dataset, written as CSV and JSON.

    The CV workers start before the data is read, so that their start-up overlaps the parse,
    which they share when the files are large.
    """
    params = SchirnParams.from_mapping(v)
    stem, make_fits, tabulate = _EXPERIMENTS[v["command"]]
    fits = make_fits(params, v)
    out_dir = _out_dir(v)
    with _Workers(_worker_count(len(_units(v["folds"], fits)))) as workers:
        ds = _load_experiment_dataset(v, workers)
        outcomes = _run_cvs(ds, fits, v["folds"], v["seed"], workers)
    header, rows, payload = tabulate(params, fits, outcomes)
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
    out = _out_file(v)
    model = load_model(v["model"])
    ds = load_dataset(v["features"], v["labels"], v["truth"], standardize_features=v["standardize"],
                      filter_empty_truth=v["filter_empty_truth"])
    _write_json(out, {"ranks": rank_report(model, ds).as_dict(), "threshold": model.params.threshold})


def cmd_theorem_check(v: dict) -> None:
    out = _out_file(v)
    result = verify_rank_theorem(n=v["n"], l=v["l"], epsilon=v["epsilon"], trials=v["trials"], seed=v["seed"])
    _write_json(out, result.as_dict())


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
    except (NumericalError, ChildProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MatrixFormatError, FileExistsError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            PermissionError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

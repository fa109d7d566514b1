"""SchirnParams as the one statement of the hyperparameters.

The round-trip tests are driven by ``dataclasses.fields(SchirnParams)``, so
a new field is covered without editing them: it must reach the CLI flag,
the config key, fit_report.json, model.meta and load_model unchanged. The
recorded table of each subcommand's flags is the one deliberate exception:
it fails until a new flag is recorded, so a flag is never added or dropped
by accident.
"""

import argparse
import json
from dataclasses import fields, replace

import numpy as np
import pytest

from schirn import SchirnParams, Variant, load_model, save_model
from schirn.cli import _resolve, build_parser, main
from schirn.data import save_matrix
from synthdata import make_synth

FIELDS = fields(SchirnParams)
# external key (flag stem, config key, JSON and model.meta key) of each field, in field order
KEYS = dict(zip((f.name for f in FIELDS), SchirnParams().to_dict()))


def non_default(f):
    """A valid value other than the field's default."""
    default = getattr(SchirnParams(), f.name)
    if f.metadata["choices"]:
        return type(default)(next(c for c in f.metadata["choices"] if c != _plain(default)))
    if isinstance(default, int):
        return default // 10 + 1
    return default + 0.25


def _plain(value):
    return value.value if isinstance(value, Variant) else value


def read_meta(path):
    return dict(line.split("=", 1) for line in path.read_text().splitlines())


@pytest.fixture(scope="module")
def data_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    ds, _ = make_synth(40, 6, 5, r=1, seed=0)
    save_matrix(root / "x.txt", ds.X)
    save_matrix(root / "y.txt", ds.Y, binary=True)
    return ["--features", str(root / "x.txt"), "--labels", str(root / "y.txt")]


@pytest.mark.parametrize("how", ["flag", "config"])
@pytest.mark.parametrize("f", FIELDS, ids=lambda f: f.name)
def test_field_reaches_report_meta_and_loaded_model(f, how, data_files, tmp_path):
    key, value = KEYS[f.name], non_default(f)
    text = repr(value) if isinstance(value, float) else str(_plain(value))
    if how == "flag":
        extra = ["--" + key.replace("_", "-"), text]
    else:
        (tmp_path / "exp.cfg").write_text(f"{key}={text}\n")
        extra = ["--config", str(tmp_path / "exp.cfg")]
    out = tmp_path / "model"
    assert main(["fit", *data_files, *extra, "--out", str(out)]) == 0

    expected = replace(SchirnParams(), **{f.name: value})
    assert expected != SchirnParams()
    report = json.loads((out / "fit_report.json").read_text())
    assert report["params"] == expected.to_dict()
    assert report["params"][key] == _plain(value)
    assert read_meta(out / "model.meta")[key] == text
    assert load_model(out).params == expected


# model.meta exactly as the format has always been written (one key=value per
# field in field order, floats as repr, then the two report counts)
LEGACY_META = """\
alpha=0.7
beta=0.03
lambda=5.0
mu0=0.0002
mu_max=8.0
rho=1.2
max_iter=12
tol=0.0
variant=low-rank
threshold=0.4
c_shift=derived
iterations_run=12
final_rank_xw=5
"""


def test_legacy_model_meta_loads_and_rewrites_identically(tmp_path):
    save_matrix(tmp_path / "weights.txt", np.eye(3))
    (tmp_path / "model.meta").write_text(LEGACY_META)
    model = load_model(tmp_path)
    assert model.params == SchirnParams(
        alpha=0.7, beta=0.03, lam=5.0, mu0=2e-4, mu_max=8.0, rho=1.2, max_iter=12,
        tol=0.0, variant=Variant.LOW_RANK, threshold=0.4, c_shift="derived",
    )
    assert (model.report.iterations_run, model.report.final_rank_XW) == (12, 5)
    save_model(model, tmp_path / "again")
    assert (tmp_path / "again" / "model.meta").read_text() == LEGACY_META


def test_meta_missing_a_field_is_rejected(tmp_path):
    save_matrix(tmp_path / "weights.txt", np.eye(3))
    for f in FIELDS:
        lines = [line for line in LEGACY_META.splitlines() if not line.startswith(KEYS[f.name] + "=")]
        (tmp_path / "model.meta").write_text("\n".join(lines) + "\n")
        with pytest.raises(KeyError):
            load_model(tmp_path)


def test_to_dict_from_mapping_round_trip():
    for f in FIELDS:
        params = replace(SchirnParams(), **{f.name: non_default(f)})
        assert SchirnParams.from_mapping(params.to_dict()) == params
        as_text = {k: repr(v) if isinstance(v, float) else str(v) for k, v in params.to_dict().items()}
        assert SchirnParams.from_mapping(as_text) == params


# flag -> (choices, default when neither the flag nor a config file sets it),
# per subcommand, as recorded from the hand-written parser this replaced (less
# --jobs, removed with the fold thread pool)
VARIANTS = ("high-rank", "low-rank", "no-rank", "no-sparsity")
COMMON = {"--config": (None, None), "--seed": (None, 0), "--out": (None, None)}
DATA = {
    "--features": (None, None), "--labels": (None, None), "--truth": (None, None), "--r": (None, 0),
    "--standardize": (None, False), "--filter-empty-truth": (None, False),
}
PARAMS = {
    "--alpha": (None, 1.0), "--beta": (None, 0.05), "--lambda": (None, 10.0), "--mu0": (None, 0.0001),
    "--mu-max": (None, 10.0), "--rho": (None, 1.1), "--max-iter": (None, 100), "--tol": (None, 0.0),
    "--variant": (VARIANTS, "high-rank"), "--threshold": (None, 0.5), "--c-shift": (("paper", "derived"), "paper"),
}
CV = {**DATA, **PARAMS, "--folds": (None, 5)}
RECORDED = {
    "inject": {"--truth": (None, None), "--r": (None, 0), **COMMON},
    "fit": {**DATA, **PARAMS, **COMMON},
    "predict": {"--model": (None, None), "--features": (None, None), "--standardize": (None, False), **COMMON},
    "eval": {"--scores": (None, None), "--pred": (None, None), "--truth": (None, None), "--threshold": (None, 0.5),
             **COMMON},
    "cv": {**CV, **COMMON},
    "grid": {**CV, "--grid-alpha": (None, None), "--grid-beta": (None, None), "--grid-lambda": (None, None),
             **COMMON},
    "ablate": {**CV, **COMMON},
    "rank-report": {"--model": (None, None), "--features": (None, None), "--labels": (None, None),
                    "--truth": (None, None), "--standardize": (None, False), "--filter-empty-truth": (None, False),
                    **COMMON},
    "theorem-check": {"--n": (None, None), "--l": (None, None), "--epsilon": (None, None), "--trials": (None, 1000),
                      **COMMON},
}


def test_generated_parser_matches_recorded_flags():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(RECORDED)
    for command, subparser in sub.choices.items():
        defaults = _resolve(parser.parse_args([command]))
        got = {
            a.option_strings[0]: (tuple(a.choices) if a.choices else None, defaults.get(a.dest))
            for a in subparser._actions if not isinstance(a, argparse._HelpAction)
        }
        assert got == RECORDED[command], command


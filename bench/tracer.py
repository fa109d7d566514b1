"""Span tracing of the package's public functions, installed from outside.

``install`` replaces each listed function, in every ``schirn`` module
namespace that binds it, by a wrapper that records one span per call:
function, start, end, parent span, plus a tag and an input size where the
function has one. ``cli`` binds ``load_matrix``, ``fit``, ``evaluate_all``
and others at import time, so patching only the defining module would miss
those calls. Spans stay in memory until ``save`` writes them out after the
timed region; ``summarize`` turns a saved file into per-layer metrics.

The layers are the package's modules. ``diagnostics`` is left out: no
benchmark workload calls it.
"""

import itertools
import os
import sys
import time

import numpy as np

LAYERS = {
    "cli": ("main", "run_cv", "run_grid", "run_ablate"),
    "data": ("load_matrix", "save_matrix", "inject_noise", "kfold_split", "standardize"),
    "solver": (
        "fit", "update_w", "update_n", "update_c", "update_lagrange", "objective",
        "predict_scores", "predict_labels", "save_model", "load_model",
    ),
    "linalg": ("svd", "sym_eig", "numerical_rank", "norms", "as_matrix"),
    "metrics": (
        "evaluate_all", "average_precision", "ranking_loss", "coverage", "hamming_loss", "one_error",
    ),
}
FUNCTIONS = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

# solver.update_c self time is also reported per solver variant.
VARIANTS = ("high-rank", "no-rank", "no-sparsity", "low-rank")
# Per-call percentiles are reported for these.
PERCENTILES = ("solver.fit",)


def _file_bytes(args, kwargs):
    path = args[0] if args else kwargs.get("path")
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _array_bytes(args, kwargs):
    return int(np.asarray(args[0] if args else kwargs["a"]).nbytes)


def _variant(args, kwargs):
    params = args[3] if len(args) > 3 else kwargs["params"]
    return VARIANTS.index(params.variant.value)


# Functions whose spans carry the bytes of their main input (computed, not
# measured: file size for the parser, array size for the SVD).
INPUT_BYTES = {"data.load_matrix": _file_bytes, "linalg.svd": _array_bytes}
_TAG = {"solver.update_c": _variant}


class Recorder:
    """In-memory span store: one tuple per call, appended when the call returns."""

    FIELDS = ("sid", "fid", "parent", "start", "end", "outer", "tag", "nbytes")

    def __init__(self):
        self.spans = []
        self._stack = []
        self._depth = [0] * len(FUNCTIONS)
        self._next = itertools.count()

    def wrap(self, fid: int, func):
        name = FUNCTIONS[fid]
        nbytes_of = INPUT_BYTES.get(name)
        tag_of = _TAG.get(name)
        append, stack, depth, next_id = self.spans.append, self._stack, self._depth, self._next.__next__
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = next_id()
            parent = stack[-1] if stack else -1
            outer = depth[fid] == 0
            tag = tag_of(args, kwargs) if tag_of else -1
            nbytes = nbytes_of(args, kwargs) if nbytes_of else 0
            stack.append(sid)
            depth[fid] += 1
            t0 = clock()
            try:
                return func(*args, **kwargs)
            finally:
                t1 = clock()
                depth[fid] -= 1
                stack.pop()
                append((sid, fid, parent, t0, t1, outer, tag, nbytes))

        traced.__wrapped__ = func
        traced.__name__ = func.__name__
        return traced

    def save(self, path) -> None:
        """Write the spans ordered by span id, so a parent id indexes its row."""
        table = np.array(sorted(self.spans), dtype=np.int64).reshape(-1, len(self.FIELDS))
        np.savez(path, names=np.array(FUNCTIONS), **{f: table[:, i] for i, f in enumerate(self.FIELDS)})


def install(recorder: Recorder) -> list[str]:
    """Wrap every listed function in every loaded schirn module; return the ones not found."""
    modules = [m for key, m in list(sys.modules.items()) if key == "schirn" or key.startswith("schirn.")]
    missing = []
    for fid, name in enumerate(FUNCTIONS):
        layer, fn = name.split(".")
        original = getattr(sys.modules.get(f"schirn.{layer}"), fn, None)
        if original is None:
            missing.append(name)
            continue
        traced = recorder.wrap(fid, original)
        for module in modules:
            for attr in [a for a, v in vars(module).items() if v is original]:
                setattr(module, attr, traced)
    return missing


def summarize(path) -> dict:
    """Per-function calls, self_s, total_s (+ extras) from a saved span file.

    Self time is a span's duration minus the durations of its direct
    children, which nest inside it and do not overlap (calls run on one
    thread). ``total_s`` counts only the outermost span when a function is
    re-entered, so it never counts the same interval twice.
    """
    z = np.load(path)
    fid, parent, tag, nbytes = z["fid"], z["parent"], z["tag"], z["nbytes"]
    outer = z["outer"].astype(bool)
    dur = (z["end"] - z["start"]).astype(np.float64)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_ns = dur - child
    k = len(FUNCTIONS)
    calls = np.bincount(fid, minlength=k)
    self_s = np.bincount(fid, weights=self_ns, minlength=k) / 1e9
    total_s = np.bincount(fid[outer], weights=dur[outer], minlength=k) / 1e9
    mb = np.bincount(fid, weights=nbytes.astype(np.float64), minlength=k) / 1e6

    out = {}
    for i, name in enumerate(FUNCTIONS):
        out[f"{name}.calls"] = (int(calls[i]), "count")
        out[f"{name}.self_s"] = (float(self_s[i]), "s")
        out[f"{name}.total_s"] = (float(total_s[i]), "s")
        if name in INPUT_BYTES:
            out[f"{name}.input_mb"] = (float(mb[i]), "MB")
        if name in PERCENTILES:
            d = dur[fid == i] / 1e6
            p50, p90 = np.percentile(d, [50, 90]) if d.size else (0.0, 0.0)
            out[f"{name}.p50_ms"] = (float(p50), "ms")
            out[f"{name}.p90_ms"] = (float(p90), "ms")
    uc = fid == FUNCTIONS.index("solver.update_c")
    for v, variant in enumerate(VARIANTS):
        sel = uc & (tag == v)
        out[f"solver.update_c.{variant}.self_s"] = (float(self_ns[sel].sum() / 1e9), "s")

    roots = ~has_parent
    root_names = {str(z["names"][i]) for i in np.unique(fid[roots])}
    out["trace.spans"] = (int(fid.size), "count")
    out["trace.self_sum_s"] = (float(self_ns.sum() / 1e9), "s")
    return {"metrics": out, "root_total_s": float(dur[roots].sum() / 1e9), "root_names": sorted(root_names)}

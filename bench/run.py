"""schirn benchmark: three CLI workloads, end-to-end timings, per-layer traced run.

Usage (from the repository root):

    python3 bench/run.py --workload {fit-tall,grid-small,ablate-mid} \
        --seed N --seconds S --trace {0,1}

The workload's inputs are drawn from ``--seed`` (bench/gen.py), written once
under .bench_cache/ and reused. Each repetition then runs the workload's CLI
commands through ``schirn.cli.main`` in one fresh interpreter (bench/child.py)
with BLAS pinned to one thread; repetitions fill a window of ``--seconds``
(another starts only if it is expected to fit). Every command's outputs
are checked. ``--trace 0`` reports the end-to-end metrics as medians over the
repetitions; ``--trace 1`` runs one untraced repetition, then traced ones, and
reports per-layer span metrics (bench/tracer.py) plus the tracing overhead.

Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. A full record,
environment included, is written to .bench_out/. See bench/README.md for why
each workload exists and what each metric should move.
"""

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import gen
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CACHE = ROOT / ".bench_cache"
OUT = ROOT / ".bench_out"

BLAS_THREADS = 1  # pinned in the child's environment; the bounds were measured on 2 cores
PROBES_PER_REP = 2  # import-only processes before each repetition, so setup_s is a median of several
RUN_LIMIT_S = 170.0  # a run must end within 180 s
ITERATIONS = 100  # the CLI default max_iter, checked in fit_report.json
METRIC_NAMES = ("average_precision", "ranking_loss", "coverage", "hamming_loss", "one_error")
REFERENCE = BENCH / "reference.json"


class CheckError(Exception):
    """A command's output is missing, malformed or wrong."""


# ---------------------------------------------------------------------------
# output checks: each returns the average-precision values the command reports


def _read_matrix(path: Path, rows: int, cols: int) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        A = np.loadtxt(fh, ndmin=2)
    if header != [str(rows), str(cols)] or A.shape != (rows, cols):
        raise CheckError(f"{path.name}: expected {rows}x{cols}, header {header}, body {A.shape}")
    return A


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckError(f"{path.name}: {exc}") from None


def _read_csv(path: Path) -> list:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return list(csv.reader(fh))
    except OSError as exc:
        raise CheckError(f"{path.name}: {exc}") from None


def _in_unit_interval(where: str, metrics: dict) -> None:
    for name in METRIC_NAMES:
        value = metrics.get(name)
        if not isinstance(value, float) or not 0.0 <= value <= 1.0:
            raise CheckError(f"{where}: {name} = {value!r} is not in [0, 1]")


def check_fit(work: Path, n, d, l) -> dict:
    report = _read_json(work / "model" / "fit_report.json")
    if report.get("iterations_run") != ITERATIONS:
        raise CheckError(f"fit_report.json: iterations_run = {report.get('iterations_run')}, expected {ITERATIONS}")
    _read_matrix(work / "model" / "weights.txt", d, l)
    return {}


def check_predict(work: Path, n, d, l) -> dict:
    _read_matrix(work / "pred" / "scores.txt", n, l)
    labels = _read_matrix(work / "pred" / "labels.txt", n, l)
    if not np.all((labels == 0) | (labels == 1)):
        raise CheckError("labels.txt: entries other than 0/1")
    return {}


def check_eval(work: Path, n, d, l) -> dict:
    metrics = _read_json(work / "report.json").get("metrics", {})
    _in_unit_interval("report.json", metrics)
    return {"eval": metrics["average_precision"]}


def check_grid(work: Path, n, d, l) -> dict:
    payload = _read_json(work / "grid" / "grid_results.json")
    cells = payload.get("cells", [])
    if len(cells) != 80 or sum(1 for c in cells if c.get("best")) != 1:
        raise CheckError(f"grid_results.json: {len(cells)} cells, expected 80 with exactly one best")
    for c in cells:
        _in_unit_interval(f"grid cell {c.get('alpha')},{c.get('beta')},{c.get('lambda')}", c["mean"])
    if not cells[0]["best"] or payload.get("best") != cells[0]:
        raise CheckError("grid_results.json: best cell is not the first row")
    if len(_read_csv(work / "grid" / "grid_results.csv")) != 81:
        raise CheckError("grid_results.csv: expected a header and 80 rows")
    return {"best": cells[0]["mean"]["average_precision"]}


ABLATION_ORDER = ("high-rank", "no-rank", "no-sparsity", "low-rank")


def check_ablate(work: Path, n, d, l) -> dict:
    rows = _read_json(work / "ablation" / "ablation.json").get("rows", [])
    if [r.get("variant") for r in rows] != list(ABLATION_ORDER):
        raise CheckError(f"ablation.json: variants {[r.get('variant') for r in rows]}, expected {ABLATION_ORDER}")
    for r in rows:
        _in_unit_interval(f"ablation row {r['variant']}", r["mean"])
    if len(_read_csv(work / "ablation" / "ablation.csv")) != 5:
        raise CheckError("ablation.csv: expected a header and 4 rows")
    return {r["variant"]: r["mean"]["average_precision"] for r in rows}


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    name: str
    shape: tuple  # (n, d, l)
    noise_scale: float  # feature noise; chosen so average precision is clearly below 1
    stream: int  # second RNG key next to the seed; fixed, so inputs never change with the workload list
    headline: str  # which reported average precision is the end-to-end metric
    steps: tuple  # (argv template, check); {x} {t} {w} {seed} are filled in
    expected_counts: dict  # traced call counts at the commit that defined the benchmark


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fit-tall",
            shape=(10000, 300, 50),
            noise_scale=6.0,
            stream=1,
            headline="eval",
            steps=(
                ("fit --features {x} --truth {t} --r 2 --seed {seed} --out {w}/model", check_fit),
                ("predict --model {w}/model --features {x} --out {w}/pred", check_predict),
                ("eval --scores {w}/pred/scores.txt --truth {t} --out {w}/report.json", check_eval),
            ),
            expected_counts={
                "solver.update_c.calls": 100, "linalg.svd.calls": 100,
                "linalg.norms.calls": 100, "linalg.sym_eig.calls": 1,
            },
        ),
        Workload(
            name="grid-small",
            shape=(200, 30, 12),
            noise_scale=1.2,
            stream=2,
            headline="best",
            steps=(
                ("grid --features {x} --truth {t} --r 2 --seed {seed} --folds 5 --grid-alpha 0.5,1.0,1.5,2.0 "
                 "--grid-beta 0.01,0.04,0.07,0.10 --out {w}/grid", check_grid),
            ),
            expected_counts={"solver.fit.calls": 400, "solver.update_c.calls": 40000, "linalg.sym_eig.calls": 400},
        ),
        Workload(
            name="ablate-mid",
            shape=(2000, 100, 20),
            noise_scale=1.2,
            stream=0,
            headline="high-rank",
            steps=(
                ("ablate --features {x} --truth {t} --r 2 --standardize --seed {seed} --folds 5 --out {w}/ablation",
                 check_ablate),
            ),
            expected_counts={"solver.fit.calls": 20, "linalg.svd.calls": 1500},
        ),
    )
}


# ---------------------------------------------------------------------------
# reference average precision


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


def check_reference(reference: dict, workload: str, seed: int, values: dict) -> None:
    """Every reported average precision must match the recorded one.

    For a recorded seed the tolerance is ``tolerance`` (absolute). For any
    other seed the value must lie within ``band_margin`` of the range the
    recorded seeds span.
    """
    table = reference.get("workloads", {}).get(workload)
    if not table:
        return
    for key, value in values.items():
        recorded = table.get(key, {})
        if str(seed) in recorded:
            ref, tol = recorded[str(seed)], reference["tolerance"]
            if abs(value - ref) > tol:
                raise CheckError(f"average precision {key} = {value!r}, recorded {ref!r} (tolerance {tol})")
        elif recorded:
            lo = min(recorded.values()) - reference["band_margin"]
            hi = max(recorded.values()) + reference["band_margin"]
            if not lo <= value <= hi:
                raise CheckError(f"average precision {key} = {value!r} outside [{lo:.4f}, {hi:.4f}]")


# ---------------------------------------------------------------------------
# running repetitions


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONNOUSERSITE"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(work: Path, commands: list, trace: bool, deadline: float) -> dict:
    """Run one child; return its result plus setup_s (spawn to schirn.cli imported)."""
    spec = {"src": str(SRC), "commands": commands, "trace": trace, "spans": str(work / "spans.npz")}
    (work / "spec.json").write_text(json.dumps(spec))
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(work / "spec.json"), str(work / "result.json")],
        env=child_env(), cwd=str(work), stdin=subprocess.DEVNULL, stdout=sys.stderr,
        timeout=max(1.0, deadline - started),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child exited with {proc.returncode}")
    result = json.loads((work / "result.json").read_text())
    result["setup_s"] = result["ready"] - started
    return result


def run_rep(wl: Workload, inputs: Path, seed: int, trace: bool, reference: dict, deadline: float) -> dict:
    """One repetition: run the commands, check each one's outputs, return timings and outcomes."""
    work = CACHE / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        fill = {"x": str(inputs / "features.txt"), "t": str(inputs / "truth.txt"), "w": str(work), "seed": seed}
        commands = [[token.format(**fill) for token in template.split()] for template, _ in wl.steps]
        result = spawn(work, commands, trace, deadline)
        ap = {}
        for (_, check), cmd in zip(wl.steps, result["commands"]):
            cmd["error"] = None
            if cmd["rc"] != 0:
                cmd["error"] = f"exit code {cmd['rc']}"
                continue
            try:
                values = check(work, *wl.shape)
                check_reference(reference, wl.name, seed, values)
                ap.update(values)
            except (CheckError, KeyError, TypeError, ValueError, OSError) as exc:
                cmd["error"] = f"{type(exc).__name__}: {exc}"
        result["average_precision"] = ap
        if trace:
            OUT.mkdir(exist_ok=True)
            spans = OUT / f"spans-{wl.name}.npz"
            shutil.move(str(work / "spans.npz"), spans)
            result["trace"] = tracer.summarize(spans)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(wl, inputs, seed, seconds, trace, reference, deadline, probes_per_rep=0) -> tuple:
    """Repetitions filling a window of ``seconds``; at least one.

    Each repetition is preceded by ``probes_per_rep`` import-only processes,
    so the set-up samples spread over the whole run. Another repetition starts
    only if, judged by the last one's duration, it ends inside the window, so
    the runs of a set take a predictable time; none starts that would overrun
    the run's deadline. Returns (repetitions, probe set-up times).
    """
    reps, probes = [], []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        probes += setup_probes(probes_per_rep, deadline)
        reps.append(run_rep(wl, inputs, seed, trace, reference, deadline))
        now = time.monotonic()
        last = now - began
        if now - start + last > seconds or now + last > deadline:
            return reps, probes


def setup_probes(count: int, deadline: float) -> list:
    if count == 0:
        return []
    work = CACHE / f"probe-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return [spawn(work, [], False, deadline)["setup_s"] for _ in range(count)]
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# environment record


def environment() -> dict:
    cfg = np.show_config(mode="dicts")["Build Dependencies"]
    blas = cfg.get("blas", {})
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "jobs": 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
    }


# ---------------------------------------------------------------------------
# reporting


def outcome(reps: list) -> tuple:
    attempted = sum(len(r["commands"]) for r in reps)
    failed = sum(1 for r in reps for c in r["commands"] if c["error"])
    return attempted, failed


def end_to_end(wl: Workload, reps: list, probes: list) -> dict:
    walls = [sum(c["seconds"] for c in r["commands"]) for r in reps]
    ap = reps[0]["average_precision"].get(wl.headline, 0.0)
    return {
        "setup_s": (statistics.median([r["setup_s"] for r in reps] + probes), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        "average_precision": (ap, "frac"),
    }


def per_layer(wl: Workload, untraced: dict, traced: list) -> tuple:
    """Median of each span metric over the traced repetitions, plus the tracing overhead."""
    untraced_wall = sum(c["seconds"] for c in untraced["commands"])
    traced_walls = [sum(c["seconds"] for c in r["commands"]) for r in traced]
    metrics = {}
    for name, (_, unit) in traced[0]["trace"]["metrics"].items():
        values = [r["trace"]["metrics"][name][0] for r in traced]
        metrics[name] = ((statistics.median_low if unit == "count" else statistics.median)(values), unit)
    overhead = statistics.median(traced_walls) - untraced_wall
    metrics["trace.wall_s"] = (statistics.median(traced_walls), "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    notes = []
    for r in traced:
        t = r["trace"]
        if t["root_names"] != ["cli.main"]:
            notes.append(f"root spans {t['root_names']}, expected only cli.main")
        gap = t["metrics"]["trace.self_sum_s"][0] - t["root_total_s"]
        notes.append(f"self-time sum minus cli.main total = {gap:.3e} s (overhead {overhead:.3f} s)")
    for name, want in wl.expected_counts.items():
        got = int(metrics[name][0])
        notes.append(f"{name} = {got} ({'as' if got == want else 'NOT as'} recorded: {want})")
    if traced[0]["not_traced"]:
        notes.append(f"functions not found, so not traced: {traced[0]['not_traced']}")
    return metrics, notes


def command_lines(wl: Workload, reps: list) -> list:
    """Per-command medians and failures; not gated, because not every workload runs every command."""
    attempted, failed = outcome(reps)
    lines = [f"failed_frac = {failed / attempted} ({failed} of {attempted} commands)"]
    for i, (template, _) in enumerate(wl.steps):
        verb = template.split()[0]
        times = [r["commands"][i]["seconds"] for r in reps]
        lines.append(f"{verb}_s = {statistics.median(times):.4f} s (median of {len(times)})")
    for r_i, r in enumerate(reps):
        for c in r["commands"]:
            if c["error"]:
                lines.append(f"FAILED rep {r_i}: {' '.join(c['argv'][:1])}: {c['error']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "schirn" / "cli.py").is_file():
        print(f"error: program source not found at {SRC / 'schirn'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    wl = WORKLOADS[args.workload]
    reference = load_reference()
    inputs = gen.ensure_inputs(CACHE / "inputs", wl.name, wl.shape, wl.noise_scale, args.seed, wl.stream)
    env = environment()

    if args.trace:
        untraced = run_rep(wl, inputs, args.seed, False, reference, deadline)
        traced, _ = measure(wl, inputs, args.seed, args.seconds, True, reference, deadline)
        reps = [untraced] + traced
        metrics, notes = per_layer(wl, untraced, traced)
    else:
        reps, probes = measure(wl, inputs, args.seed, args.seconds, False, reference, deadline, PROBES_PER_REP)
        metrics = end_to_end(wl, reps, probes)
        notes = command_lines(wl, reps)
        notes.append(f"setup_s samples: {len(reps) + len(probes)}; other timings: median of {len(reps)} repetitions")
    attempted, failed = outcome(reps)

    values = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "repetitions": len(reps), "notes": notes,
        "average_precision": [r["average_precision"] for r in reps],
        "command_seconds": [[c["seconds"] for c in r["commands"]] for r in reps],
        "setup_seconds": [r["setup_s"] for r in reps], "metrics": values,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(f"# workload {wl.name} seed {args.seed}: {len(reps)} repetitions, {attempted} commands, {failed} failed")
    print("# environment " + json.dumps(env))
    for line in notes:
        print("# " + line)
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

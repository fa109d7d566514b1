"""The CV runners fit their prefix chains, fold by fold, in worker processes (cv._Workers).

The oracle is a single-process runner that fits every cell from scratch:
every outcome and every output file must equal its. The process tests read
the test process's children from /proc before, during and after each call.
"""

import gc
import itertools
import os
import pickle
import signal
import subprocess
import sys
import time
import warnings
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import pytest

from schirn import Dataset, SchirnParams, Variant, kfold_split
from schirn import cli, cv
from schirn.cli import main
from schirn.cv import run_ablate, run_cv, run_grid
from schirn.data import save_matrix
from schirn.linalg import NumericalError
from schirn.metrics import evaluate_all
from schirn.solver import binarize, fit, predict_scores
from synthdata import count_w_steps, make_synth


def serial_run_cvs(ds, params_list, k_folds, seed, workers=None):
    """cv._run_cvs in this process, each fit from scratch; ``workers`` (as cmd_experiment
    passes them) go unused, left to their opener to close."""
    split = kfold_split(ds.n, k_folds, seed=seed + 1)
    target = ds.Y_true if ds.Y_true is not None else ds.Y
    eval_target = "truth" if ds.Y_true is not None else "candidates"
    reports = [[] for _ in params_list]
    for fold in range(k_folds):
        tr = split.train_indices(fold)
        te = split.test_indices(fold)
        train, X_test, T_test = Dataset(X=ds.X[tr], Y=ds.Y[tr]), ds.X[te], target[te]
        for params, fold_reports in zip(params_list, reports):
            model = fit(train, params, trace="none")
            scores = predict_scores(model, X_test)
            fold_reports.append(evaluate_all(scores, binarize(scores, params.threshold), T_test))
    return [cv._cv_outcome(fold_reports, eval_target) for fold_reports in reports]


BASE = SchirnParams(alpha=0.5, max_iter=60)
MIXED_CHAIN = [BASE, replace(BASE, alpha=1.0), replace(BASE, variant=Variant.NO_SPARSITY),
               replace(BASE, variant=Variant.NO_RANK), replace(BASE, alpha=0.3), replace(BASE, beta=0.5),
               replace(BASE, variant=Variant.LOW_RANK), replace(BASE, alpha=0.3, beta=0.5, threshold=0.7)]


@pytest.fixture
def synth_files(tmp_path):
    """The 60x8x6 instance, and the CLI arguments that name its files."""
    ds, _ = make_synth(60, 8, 6, r=1, seed=0)
    args = []
    for key, matrix in (("features", ds.X), ("labels", ds.Y), ("truth", ds.Y_true)):
        save_matrix(tmp_path / f"{key}.txt", matrix, binary=key != "features")
        args += [f"--{key}", str(tmp_path / f"{key}.txt")]
    return ds, args


class TestWorkersMatchTheSerialRunner:
    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_each_variant(self, variant):
        ds, _ = make_synth(60, 8, 6, r=1, seed=0)
        chain = [replace(BASE, variant=variant), replace(BASE, alpha=1.5, variant=variant)]
        assert cv._run_cvs(ds, chain, 5, 3) == serial_run_cvs(ds, chain, 5, 3)

    def test_mixed_grid_chain(self):
        ds, _ = make_synth(60, 8, 6, r=1, seed=0)
        assert cv._run_cvs(ds, MIXED_CHAIN, 3, 1) == serial_run_cvs(ds, MIXED_CHAIN, 3, 1)

    @pytest.mark.parametrize("cpus", [1, 4])
    @pytest.mark.parametrize("k_folds", [2, 3, 5, 7])
    def test_fold_counts_below_and_above_the_cpu_count(self, monkeypatch, k_folds, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        ds, _ = make_synth(70, 8, 6, r=1, seed=4)
        chain = MIXED_CHAIN[:3]
        assert cv._run_cvs(ds, chain, k_folds, 0) == serial_run_cvs(ds, chain, k_folds, 0)

    @pytest.mark.parametrize("shape", [(60, 8, 6), (45, 60, 6), (30, 6, 30)], ids=["primal", "dual-w", "wide-c"])
    def test_each_solver_route(self, shape):
        # 3 folds train on 2/3 of the rows: d > n for dual-w, l > n for wide-c
        ds, _ = make_synth(*shape, r=1, seed=1)
        chain = [replace(SchirnParams(), variant=v) for v in cv.ABLATION_ORDER]
        assert cv._run_cvs(ds, chain, 3, 0) == serial_run_cvs(ds, chain, 3, 0)

    def test_candidate_target(self):
        ds, _ = make_synth(60, 8, 6, r=1, seed=2)
        ds = Dataset(X=ds.X, Y=ds.Y)
        outcomes = cv._run_cvs(ds, [BASE], 4, 0)
        assert outcomes == serial_run_cvs(ds, [BASE], 4, 0)
        assert outcomes[0].eval_target == "candidates"

    @pytest.mark.parametrize("command", ["cv", "grid", "ablate"])
    def test_cli_files(self, tmp_path, synth_files, monkeypatch, command):
        args = [command, *synth_files[1], "--folds", "3", "--seed", "1", "--max-iter", "60"]
        if command == "grid":
            args += ["--grid-alpha", "1.5,0.5,1.0", "--grid-beta", "0.05,0.1", "--grid-lambda", "10"]
        assert main(args + ["--out", str(tmp_path / "workers")]) == 0
        monkeypatch.setattr(cli, "_run_cvs", serial_run_cvs)
        assert main(args + ["--out", str(tmp_path / "serial")]) == 0
        names = sorted(p.name for p in (tmp_path / "serial").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "workers").iterdir()) and len(names) == 2
        for name in names:
            assert (tmp_path / "workers" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()


def test_fold_body_in_process():
    """The workers run without pytest's warning filters, so run the unit body here
    too: a RuntimeWarning in it fails this test."""
    ds, _ = make_synth(60, 8, 6, r=1, seed=0)
    shared = (ds, kfold_split(ds.n, 3, seed=1), MIXED_CHAIN)
    by_params = [[None] * 3 for _ in MIXED_CHAIN]
    for fold, chain in cv._units(3, MIXED_CHAIN):
        for i, report in zip(chain, cv._unit_reports(shared, fold, chain), strict=True):
            by_params[i][fold] = report
    outcomes = serial_run_cvs(ds, MIXED_CHAIN, 3, 0)
    assert by_params == [outcome.fold_reports for outcome in outcomes]


def test_units_are_the_prefix_chains_of_each_fold():
    # ablate: [high-rank, no-sparsity], [no-rank], [low-rank]; grid: one chain per (beta, lambda),
    # cell (a, b, l) at 4 a + 2 b + l, in ascending alpha (0.5, 0.5, 1.0, 1.5)
    ablate_chains = [[0, 2], [1], [3]]
    assert cv._units(2, cv._ablate_fits(BASE)) == [(fold, c) for fold in (0, 1) for c in ablate_chains]
    grid = cv._grid_fits(BASE, [1.5, 0.5, 1.0, 0.5], [0.05, 0.1], [10.0, 100.0])
    assert cv._units(1, grid) == [(0, [4 + j, 12 + j, 8 + j, j]) for j in range(4)]
    assert cv._units(3, [BASE]) == [(fold, [0]) for fold in range(3)]


@pytest.mark.parametrize("fits, steps", [
    ([SchirnParams()], 300),
    (cv._grid_fits(SchirnParams(), [1.5, 0.5, 1.0, 0.5], [0.05, 0.5], [10.0]), 1185),
    (cv._ablate_fits(SchirnParams()), 972),
], ids=["cv", "grid", "ablate"])
def test_counted_work(monkeypatch, fits, steps):
    # the W steps of every unit of a 3-fold run, of 100 per fit without prefix sharing; a
    # change that shares less, or fits more, fails here
    ds, _ = make_synth(60, 8, 6, r=1, seed=0)
    shared = (ds, kfold_split(ds.n, 3, seed=1), fits)
    w_steps = count_w_steps(monkeypatch)
    for fold, chain in cv._units(3, fits):
        cv._unit_reports(shared, fold, chain)
    assert len(w_steps) == steps


def test_module_entry_point(tmp_path, synth_files):
    """`python -m schirn.cli` runs the module as __main__; what it sends the workers must
    still unpickle there, and the files must equal those of main()."""
    args = ["ablate", *synth_files[1], "--folds", "3", "--max-iter", "30"]
    subprocess.run([sys.executable, "-m", "schirn.cli", *args, "--out", str(tmp_path / "module")],
                   env=cv._worker_env(), check=True, timeout=120)
    assert main(args + ["--out", str(tmp_path / "main")]) == 0
    for name in ("ablation.csv", "ablation.json"):
        assert (tmp_path / "module" / name).read_bytes() == (tmp_path / "main" / name).read_bytes()


def test_worker_env_pins_blas_and_leaves_os_environ_alone(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "8")
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    before = dict(os.environ)
    env = cv._worker_env()
    assert dict(os.environ) == before
    assert [env[var] for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")] == ["1"] * 3
    src = str(Path(cv.__file__).resolve().parent.parent)
    assert env["PYTHONPATH"] == os.pathsep.join([src, "elsewhere"])
    set_here = (*cv._BLAS_THREAD_VARS, "PYTHONPATH")
    assert {k: v for k, v in env.items() if k not in set_here} == {k: v for k, v in before.items() if k not in set_here}


class TestStarmap:
    """_Workers.starmap on two workers, with builtins, which any worker unpickles."""

    def test_gives_what_itertools_starmap_gives(self):
        args = [(7, 2), (9, -4), (2.5, 1), (-1, 3), (0, 5)]
        with cv._Workers(2) as workers:
            assert list(workers.starmap(divmod, args)) == list(itertools.starmap(divmod, args))
            assert list(workers.starmap(divmod, [])) == []

    def test_lowest_failing_call_wins_and_the_workers_go_on(self, tmp_path):
        # calls 1 and 2 both raise, 2 first (1 sleeps); call 3 would write a file, but no call
        # is sent after a failure
        late = tmp_path / "late"
        calls = ["pass", "import time; time.sleep(1.0); raise ValueError('1')", "raise ValueError('2')",
                 f"open({str(late)!r}, 'w').close()"]
        with cv._Workers(2) as workers:
            with pytest.raises(ValueError, match="^1$"):
                list(workers.starmap(exec, [(call, {}) for call in calls]))
            assert not late.exists()
            assert list(workers.starmap(divmod, [(7, 2), (9, 4), (1, 1)])) == [(3, 1), (2, 1), (1, 0)]

    def test_a_caller_that_stops_early_leaves_the_workers_drained(self):
        # the answers still due when the caller closes the generator are read and dropped, so
        # the next starmap reads its own
        with cv._Workers(2) as workers:
            results = workers.starmap(exec, [("pass", {}), ("import time; time.sleep(0.5)", {}), ("pass", {})])
            assert next(results) is None
            results.close()
            assert list(workers.starmap(divmod, [(7, 2), (9, 4), (1, 1)])) == [(3, 1), (2, 1), (1, 0)]

    def test_calls_without_a_worker_raise(self):
        workers = cv._Workers(0)
        with pytest.raises(ValueError, match="^3 calls to run but no worker process$"):
            next(workers.starmap(divmod, [(7, 2)] * 3))
        assert list(workers.starmap(divmod, [])) == []

    def test_a_cv_job_pickles_the_shared_data_once(self):
        # ablate-mid's shape, 2000 x 100 x 20, and 5 folds: 15 units, each a tuple that starts
        # with the same (data, folds, fits)
        ds, _ = make_synth(2000, 100, 20, r=1, seed=0)
        fits = cv._ablate_fits(SchirnParams())
        jobs = []

        class Recorder(cv._Workers):
            def starmap(self, fn, args):
                jobs.append((len(args), pickle.dumps((fn, args), pickle.HIGHEST_PROTOCOL)))
                raise InterruptedError  # the fits themselves are not needed

        with pytest.raises(InterruptedError):
            cv._run_cvs(ds, fits, 5, 0, Recorder(0))
        shared = pickle.dumps((ds, kfold_split(ds.n, 5, seed=1), fits), pickle.HIGHEST_PROTOCOL)
        [(units, job)] = jobs
        assert units == 15 and len(job) < 1.01 * len(shared)

    def test_a_given_empty_pool_runs_the_units(self, monkeypatch):
        # a _Workers(0) passed in gets the call, and no pool of _run_cvs's own starts
        ds, _ = make_synth(60, 8, 6, r=1, seed=0)
        calls = []

        class InProcess(cv._Workers):
            def starmap(self, fn, args):
                calls.append(len(args))
                return itertools.starmap(fn, args)

        workers = InProcess(0)

        def no_pool(count):
            raise AssertionError("_run_cvs started workers of its own")

        monkeypatch.setattr(cv, "_Workers", no_pool)
        assert cv._run_cvs(ds, MIXED_CHAIN, 3, 0, workers) == serial_run_cvs(ds, MIXED_CHAIN, 3, 0)
        assert calls == [len(cv._units(3, MIXED_CHAIN))]


# ---------------------------------------------------------------------------
# worker lifetime and errors

needs_proc = pytest.mark.skipif(not Path("/proc/self/stat").is_file(), reason="reads children from /proc")


def child_pids() -> set:
    """PIDs whose parent is this process, zombies included, from /proc/<pid>/stat."""
    me = str(os.getpid())
    pids = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:  # the process ended meanwhile
            continue
        if text.rpartition(")")[2].split()[1] == me:  # fields after "(comm)": state, ppid
            pids.add(int(stat.parent.name))
    return pids


@contextmanager
def leaves_no_process():
    """Asserts that the block leaves this process's children and environment as it found them."""
    children, environ = child_pids(), dict(os.environ)
    yield
    assert child_pids() == children
    assert dict(os.environ) == environ


def started_workers(monkeypatch, record: list) -> None:
    """Appends to ``record`` the children started since this call that are alive when
    cmd_experiment reads the data and when each _Workers.starmap starts."""
    before = child_pids()
    load, starmap = cli._load_experiment_dataset, cv._Workers.starmap

    def watched_load(v, workers=None):
        record.append(child_pids() - before)
        return load(v, workers)

    def watched_starmap(self, fn, args):
        record.append(child_pids() - before)
        return starmap(self, fn, args)

    monkeypatch.setattr(cli, "_load_experiment_dataset", watched_load)
    monkeypatch.setattr(cv._Workers, "starmap", watched_starmap)


def simulate_cpus(monkeypatch, cpus: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


# a worker whose fits fail: high-rank after a delay, every other variant at once; each unit it
# starts is logged to LOG
FAILING_WORKER = """
import sys, time
from schirn import cv

def fit_chain(ds, params_list):
    if params_list[0].variant.value == "high-rank":
        time.sleep(DELAY)
    raise ValueError(params_list[0].variant.value)

unit_reports = cv._unit_reports

def logged(shared, fold, chain):
    with open(LOG, "a") as fh:
        print(f"{fold}:{chain[0]}", file=fh)
    return unit_reports(shared, fold, chain)

cv.fit_chain, cv._unit_reports = fit_chain, logged
cv._worker(sys.stdin.buffer, sys.stdout.buffer)
"""


@needs_proc
class TestWorkerLifetime:
    def test_runners_leave_no_process(self):
        ds, _ = make_synth(60, 8, 6, r=1, seed=0)
        params = SchirnParams(max_iter=20)
        with leaves_no_process():
            run_cv(ds, params, 3, 0)
            run_grid(ds, params, 5, 0, [0.5, 1.0], [0.05], [10.0])
            run_ablate(ds, params, 2, 0)

    def test_a_given_pool_is_left_running(self):
        # the with that opened the workers closes them, not _run_cvs
        ds, _ = make_synth(60, 8, 6, r=1, seed=0)
        with leaves_no_process(), cv._Workers(2) as workers:
            assert cv._run_cvs(ds, [BASE], 3, 0, workers) == serial_run_cvs(ds, [BASE], 3, 0)
            assert [proc.poll() for proc in workers.procs] == [None, None]
            assert list(workers.starmap(divmod, [(7, 2)])) == [(3, 1)]

    @pytest.mark.parametrize("cpus, command, folds, workers", [
        (4, "cv", 2, 2), (4, "ablate", 3, 4), (1, "cv", 2, 1), (1, "ablate", 3, 1),
    ])
    def test_worker_count(self, tmp_path, synth_files, monkeypatch, cpus, command, folds, workers):
        # a 2-fold cv has 2 units, a 3-fold ablate 9; the workers start before the data is read
        simulate_cpus(monkeypatch, cpus)
        seen = []
        started_workers(monkeypatch, seen)
        args = [command, *synth_files[1], "--folds", str(folds), "--max-iter", "10"]
        with leaves_no_process():
            assert main(args + ["--out", str(tmp_path / "out")]) == 0
        assert len(seen) == 2 and len(seen[0]) == workers and seen[1] == seen[0]

    @pytest.mark.parametrize("cpus, runner, folds, workers", [
        (4, run_cv, 2, 2), (4, run_ablate, 3, 4), (1, run_cv, 2, 1), (1, run_ablate, 3, 1),
    ], ids=["4-cv", "4-ablate", "1-cv", "1-ablate"])
    def test_worker_count_from_python(self, monkeypatch, cpus, runner, folds, workers):
        simulate_cpus(monkeypatch, cpus)
        seen = []
        started_workers(monkeypatch, seen)
        ds, _ = make_synth(60, 8, 6, r=1, seed=0)
        with leaves_no_process():
            runner(ds, SchirnParams(max_iter=10), folds, 0)
        assert [len(started) for started in seen] == [workers]

    @pytest.mark.parametrize("span, workers", [(1 << 22, 0), (64, 2)], ids=["small-inputs", "span-sized-inputs"])
    def test_fit_and_predict_start_workers_only_for_span_sized_inputs(self, tmp_path, synth_files, monkeypatch,
                                                                      span, workers):
        # the synth files are about 1-10 kB: below two 4 MB spans no worker starts, above
        # two 64-byte spans one per usable CPU does
        simulate_cpus(monkeypatch, 2)
        monkeypatch.setattr(cv, "_SPAN", span)
        counts = []

        class Counted(cv._Workers):
            def __init__(self, count):
                counts.append(count)
                super().__init__(count)

        monkeypatch.setattr(cv, "_Workers", Counted)
        features = synth_files[1][1]
        with leaves_no_process():
            assert main(["fit", *synth_files[1], "--max-iter", "5", "--out", str(tmp_path / "model")]) == 0
            assert main(["predict", "--model", str(tmp_path / "model"), "--features", features,
                         "--out", str(tmp_path / "pred")]) == 0
        assert counts == [workers, workers]

    def test_fold_error_keeps_its_type_and_exit_code(self, tmp_path, synth_files, capsys):
        ds, _ = synth_files
        # finite features whose X^T X overflows, so every fit rejects its Gram matrix
        huge = Dataset(X=ds.X * 1e160, Y=ds.Y, Y_true=ds.Y_true)
        save_matrix(tmp_path / "huge.txt", huge.X)
        args = ["cv", "--features", str(tmp_path / "huge.txt"), "--labels", str(tmp_path / "labels.txt"),
                "--truth", str(tmp_path / "truth.txt"), "--out", str(tmp_path / "cv")]
        with leaves_no_process():
            with pytest.raises(NumericalError, match="^the Gram matrix of X overflows$"):
                run_cv(huge, SchirnParams(), 5, 0)
            assert main(args) == 1
        assert capsys.readouterr().err.splitlines()[-1] == "error: the Gram matrix of X overflows"
        assert not (tmp_path / "cv").exists()

    def test_lowest_failing_unit_wins(self, tmp_path, monkeypatch):
        # units 0 (fold 0, high-rank) and 1 (fold 0, no-rank) both fail, 1 first; the call
        # waits for 0 and raises its error, as the serial runner does, and sends no other unit
        simulate_cpus(monkeypatch, 2)
        log = tmp_path / "units.log"
        monkeypatch.setattr(cv, "_WORKER", f"DELAY, LOG = 1.0, {str(log)!r}\n" + FAILING_WORKER)
        ds, _ = make_synth(60, 8, 6, r=1, seed=0)
        params_list = [BASE, replace(BASE, variant=Variant.NO_RANK)]
        with leaves_no_process(), pytest.raises(ValueError, match="^high-rank$"):
            cv._run_cvs(ds, params_list, 3, 0)
        assert sorted(log.read_text().split()) == ["0:0", "0:1"]  # units 0 and 1
        serial = {"DELAY": 0.0, "LOG": os.devnull}
        exec(FAILING_WORKER.partition("cv.fit_chain, ")[0], serial)
        monkeypatch.setattr(sys.modules[__name__], "fit", lambda ds, params, trace: serial["fit_chain"](ds, [params]))
        with pytest.raises(ValueError, match="^high-rank$"):
            serial_run_cvs(ds, params_list, 3, 0)

    @pytest.mark.parametrize("body, status", [
        ("import sys; sys.exit(3)", "3"),
        ("import os, signal; os.kill(os.getpid(), signal.SIGKILL)", "-9"),
        ("import os, pickle, signal, sys; pickle.load(sys.stdin.buffer); pickle.load(sys.stdin.buffer); "
         "os.kill(os.getpid(), signal.SIGKILL)", "-9"),
    ], ids=["exit", "killed", "killed-in-a-unit"])
    def test_worker_without_result_exits_1(self, tmp_path, synth_files, monkeypatch, capsys, body, status):
        _, args = synth_files
        monkeypatch.setattr(cv, "_WORKER", body)
        with leaves_no_process():
            assert main(["cv", *args, "--out", str(tmp_path / "cv")]) == 1
        assert capsys.readouterr().err == f"error: a worker process exited with status {status} without a result\n"

    @pytest.mark.parametrize("features", ["missing", "malformed"])
    @pytest.mark.parametrize("command", ["cv", "grid", "ablate"])
    def test_load_error_after_the_workers_started(self, tmp_path, synth_files, monkeypatch, capsys, command,
                                                  features):
        simulate_cpus(monkeypatch, 2)
        seen = []
        started_workers(monkeypatch, seen)
        bad = tmp_path / "bad.txt"
        if features == "malformed":
            bad.write_text("2 2\n1.0 x\n3.0 4.0\n")
        _, args = synth_files
        args = [command, *args[2:], "--features", str(bad), "--out", str(tmp_path / "out")]
        with warnings.catch_warnings(record=True) as caught, leaves_no_process():
            warnings.simplefilter("always")
            assert main(args) == 2
            gc.collect()
        assert [len(workers) for workers in seen] == [2]
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_interrupt_during_the_load_kills_the_workers(self, tmp_path, synth_files, monkeypatch):
        simulate_cpus(monkeypatch, 2)
        seen = []
        started_workers(monkeypatch, seen)
        load = cli._load_experiment_dataset

        def interrupted(v, workers=None):
            load(v, workers)
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_load_experiment_dataset", interrupted)
        with leaves_no_process(), pytest.raises(KeyboardInterrupt):
            main(["ablate", *synth_files[1], "--out", str(tmp_path / "out")])
        assert [len(workers) for workers in seen] == [2]

    def test_interrupt_while_the_workers_fit_kills_them(self, monkeypatch):
        # the workers would sleep for minutes, so the call returns at once only if it kills them
        ds, _ = make_synth(60, 8, 6, r=1, seed=0)
        monkeypatch.setattr(cv, "_WORKER", "import sys, time; sys.stdin.buffer.read(1); time.sleep(120)")

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, interrupt)
        started = time.monotonic()
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.5)
            with leaves_no_process(), pytest.raises(KeyboardInterrupt):
                run_cv(ds, SchirnParams(), 5, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - started < 60

"""Cross-validation, grid search and ablation runners, and the worker processes.

Their fits run in worker processes with BLAS on one thread, one per usable
CPU but never more than there are units of work (one prefix chain of one
fold each). The CLI starts them before it reads the data, and each takes
the next unit as it frees up; the outputs depend on none of this. A worker
imports this module and what it needs, never the CLI. A job is a
module-level function and the argument tuples to call it with, as for
itertools.starmap; the same workers run any such job (the matrix text spans
of schirn.data too), and a worker may run several jobs in its life: fit and
predict start one per usable CPU for their matrix text I/O alone, when an
input file is large enough for its spans to go to workers.
"""

import os
import pickle
import sys
from contextlib import nullcontext, suppress
from dataclasses import dataclass, replace
from itertools import product
from pathlib import Path

import numpy as np

from .data import _SPAN, Dataset, kfold_split
from .metrics import evaluate_all
from .solver import SchirnParams, Variant, _usable_cpus, binarize, fit_chain, predict_scores, prefix_chains

__all__ = ["CvOutcome", "run_ablate", "run_cv", "run_grid"]

# hyperparameter search ranges used when grid lists are not given:
# alpha 0.1..2.0 step 0.1, beta 0.01..0.10 step 0.01, lambda a fixed quintet
DEFAULT_GRID_ALPHA = [i / 10 for i in range(1, 21)]
DEFAULT_GRID_BETA = [i / 100 for i in range(1, 11)]
DEFAULT_GRID_LAMBDA = [0.1, 10.0, 100.0, 250.0, 1000.0]

METRIC_FIELDS = ("average_precision", "ranking_loss", "coverage", "hamming_loss", "one_error")


@dataclass
class CvOutcome:
    fold_reports: list
    mean: dict
    std: dict
    eval_target: str


def run_cv(ds: Dataset, params: SchirnParams, k_folds: int, seed: int) -> CvOutcome:
    """k-fold cross-validation: fit on train, score and evaluate on test, for each fold.

    Evaluation uses the ground-truth matrix when present, otherwise the
    candidate matrix; the outcome records which. The fits skip their
    traces (trace="none"), which nothing here reads.
    """
    return _run_cvs(ds, [params], k_folds, seed)[0]


def _run_cvs(ds: Dataset, params_list, k_folds: int, seed: int, workers=None) -> list[CvOutcome]:
    """run_cv for each params on the same folds. The unit of work is one prefix chain
    (solver.prefix_chains) of one fold, run in a worker process by solver.fit_chain.
    ``workers`` are the _Workers to run them on, left open for their opener to close; when
    None, workers are started here and closed on return."""
    shared = (ds, kfold_split(ds.n, k_folds, seed=seed + 1), list(params_list))
    units = _units(k_folds, shared[2])
    by_params = [[None] * k_folds for _ in shared[2]]
    with _Workers(_worker_count(len(units))) if workers is None else nullcontext(workers) as workers:
        for (fold, chain), reports in zip(units, workers.starmap(_unit_reports, [(shared, *u) for u in units])):
            for i, report in zip(chain, reports):
                by_params[i][fold] = report
    eval_target = "truth" if ds.Y_true is not None else "candidates"
    return [_cv_outcome(reports, eval_target) for reports in by_params]


def _units(k_folds: int, params_list) -> list[tuple[int, list[int]]]:
    """(fold, chain) of each unit, fold by fold, each fold's chains as prefix_chains gives them."""
    chains = prefix_chains(params_list)
    return [(fold, chain) for fold in range(k_folds) for chain in chains]


def _unit_reports(shared: tuple, fold: int, chain: list[int]) -> list:
    """One unit of _run_cvs: the test-fold MetricReport of each fit of ``chain`` on ``fold``, in
    chain order. ``shared`` is what every unit reads: (the data, its folds, the fits to run)."""
    ds, split, params_list = shared
    target = ds.Y_true if ds.Y_true is not None else ds.Y
    tr = split.train_indices(fold)
    te = split.test_indices(fold)
    train, X_test, T_test = Dataset(X=ds.X[tr], Y=ds.Y[tr]), ds.X[te], target[te]
    reports = []
    for model in fit_chain(train, [params_list[i] for i in chain]):
        scores = predict_scores(model, X_test)
        reports.append(evaluate_all(scores, binarize(scores, model.params.threshold), T_test))
    return reports


# the program of a _Workers worker interpreter
_WORKER = "import sys; from schirn.cv import _worker; _worker(sys.stdin.buffer, sys.stdout.buffer)"
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _worker_env() -> dict:
    """The caller's environment (a copy), with BLAS on one thread and this package's source first
    on PYTHONPATH, so a worker imports the same schirn as its parent."""
    env = dict(os.environ)
    env.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    src = str(Path(__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _worker_count(units: int) -> int:
    """One worker per usable CPU, and never more than there are units."""
    return min(units, _usable_cpus())


def _io_workers(*paths) -> "_Workers":
    """Workers for a command's matrix text I/O: one per usable CPU when one of the input ``paths``
    (None for an absent one) is a file of two spans or more, else none. A smaller file is parsed
    in less time than the workers take to start, and on one CPU a lone worker would parse no
    faster than the command's own process, which waits for it."""
    cpus = _usable_cpus()
    large = any(path is not None and os.path.isfile(path) and os.path.getsize(path) >= 2 * _SPAN
                for path in paths)
    return _Workers(cpus if cpus > 1 and large else 0)


class _Workers:
    """Worker interpreters for the jobs of one command; they start when this is made.

    A job is a module-level function and a list of argument tuples (see starmap). Each worker is
    a fresh ``sys.executable`` with BLAS on one thread: w workers then use w cores, and the
    results do not depend on the caller's BLAS setting. (A forked worker would inherit a
    multi-threaded BLAS; threads serialize on the interpreter lock.) Their start-up overlaps
    whatever the caller does before its first starmap (reading files too small for spans, or a
    model). Leaving the context, or close, kills every worker still running, waits for it and
    closes its pipes.
    """

    def __init__(self, count: int):
        self.procs = []
        if not count:  # fit and predict on small inputs: no subprocess import either
            return
        import subprocess  # here, not at module level, so that importing schirn.cv stays cheap

        env = _worker_env()
        try:
            for _ in range(count):
                self.procs.append(subprocess.Popen([sys.executable, "-c", _WORKER], env=env,
                                                   stdin=subprocess.PIPE, stdout=subprocess.PIPE))
        except BaseException:
            self.close()
            raise

    def __len__(self) -> int:
        return len(self.procs)

    def __enter__(self) -> "_Workers":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        for proc in self.procs:
            proc.kill()  # a no-op for a worker already waited for
            proc.wait()
            proc.stdout.close()
            with suppress(BrokenPipeError):  # unsent input of a killed worker
                proc.stdin.close()

    def starmap(self, fn, args: list):
        """``fn(*a)`` for each tuple ``a`` of ``args``, run in the workers and yielded in order as
        itertools.starmap yields them: each once it and every one before it have arrived.

        ``fn`` is a module-level function, which pickle sends by name. Each worker gets ``(fn,
        args)`` once, then one index at a time: the next goes to whichever worker answers first.
        An exception raised by a call reaches the caller as itself, in its place in the order; of
        several, the lowest index's, as a serial loop would raise it. Once a call has failed no
        further index is sent, but those already sent finish, since a lower one may fail too.
        Their answers, and those still due when the caller stops early (closes or drops the
        generator), are read and dropped, so that the workers are ready for the next starmap. A
        worker that ends without a result raises ChildProcessError with its exit status. Args
        with no worker to run them raise ValueError.
        """
        if args and not self.procs:
            raise ValueError(f"{len(args)} calls to run but no worker process")
        import selectors

        todo = list(reversed(range(len(args))))  # the indices not sent, the next one last
        answers = {}  # index -> (result, None), or (None, the exception it raised)
        busy = {}  # worker -> its index

        def send(proc, *messages) -> None:
            if not todo:
                return
            busy[proc] = todo.pop()
            try:
                for message in (*messages, pickle.dumps(busy[proc])):
                    proc.stdin.write(message)
                proc.stdin.flush()
            except BrokenPipeError:
                raise _ended(proc) from None

        def receive() -> None:
            """Reads the answers that have arrived, and sends each of their workers its next index."""
            for key, _ in ready.select():
                proc = key.data
                try:
                    answer = pickle.load(proc.stdout)
                except (EOFError, pickle.UnpicklingError):
                    raise _ended(proc) from None
                answers[busy.pop(proc)] = answer
                if answer[1] is not None:
                    todo.clear()
                send(proc)

        job = pickle.dumps((fn, args), pickle.HIGHEST_PROTOCOL)
        with selectors.DefaultSelector() as ready:
            for proc in self.procs:
                send(proc, job)
                if proc in busy:
                    ready.register(proc.stdout, selectors.EVENT_READ, proc)
            for i in range(len(args)):
                while i not in answers:
                    receive()
                result, error = answers.pop(i)
                try:
                    if error is not None:
                        raise error
                    yield result
                except BaseException:  # a call failed, or the caller stopped early (GeneratorExit)
                    todo.clear()
                    while busy:
                        receive()
                    raise


def _ended(proc) -> ChildProcessError:
    return ChildProcessError(f"a worker process exited with status {proc.wait()} without a result")


def _worker(stdin, stdout) -> None:
    """Body of a _Workers worker: reads messages until its input ends. An index i is answered
    with (``fn(*args[i])``, None), or (None, the exception that stopped it), for the last job
    ``(fn, args)`` read; any other message is the next job.

    Ctrl-C is left to the parent, which kills its workers.
    """
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    fn = args = None
    try:
        while True:
            message = pickle.load(stdin)
            if not isinstance(message, int):
                fn, args = message
                continue
            try:
                answer = fn(*args[message]), None
            except Exception as exc:  # sent to the parent, which raises it
                answer = None, exc
            pickle.dump(answer, stdout, pickle.HIGHEST_PROTOCOL)
            stdout.flush()
    except EOFError:  # no more messages
        return


def _cv_outcome(reports, eval_target: str) -> CvOutcome:
    mean = {}
    std = {}
    for name in METRIC_FIELDS:
        values = np.array([getattr(rep, name) for rep in reports])
        mean[name] = float(values.mean())
        std[name] = float(values.std(ddof=1)) if len(values) > 1 else 0.0
    return CvOutcome(fold_reports=reports, mean=mean, std=std, eval_target=eval_target)


def run_grid(ds: Dataset, params: SchirnParams, k_folds: int, seed: int, alphas, betas, lambdas) -> list[dict]:
    """Evaluate the full Cartesian product of the grids by CV mean average precision.

    A grid list given as None is its default search range. The rows are
    those of one run_cv per cell.
    """
    fits = _grid_fits(params, alphas, betas, lambdas)
    return _grid_rows(fits, _run_cvs(ds, fits, k_folds, seed))


def _grid_fits(params: SchirnParams, alphas, betas, lambdas) -> list:
    """The grid's cells as params, in the order of product(alphas, betas, lambdas)."""
    alphas = DEFAULT_GRID_ALPHA if alphas is None else alphas
    betas = DEFAULT_GRID_BETA if betas is None else betas
    lambdas = DEFAULT_GRID_LAMBDA if lambdas is None else lambdas
    for name, lst in (("alpha", alphas), ("beta", betas), ("lambda", lambdas)):
        if not lst:
            raise ValueError(f"grid list for {name} is empty")
    return [replace(params, alpha=a, beta=b, lam=lam) for a, b, lam in product(alphas, betas, lambdas)]


def _grid_rows(fits, outcomes) -> list[dict]:
    """run_grid's rows from the CV outcome of each fit, best first."""
    rows = [{"alpha": p.alpha, "beta": p.beta, "lambda": p.lam, "mean": o.mean, "std": o.std}
            for p, o in zip(fits, outcomes)]
    rows.sort(key=lambda r: (-r["mean"]["average_precision"], r["alpha"], r["beta"], r["lambda"]))
    for i, row in enumerate(rows):
        row["best"] = i == 0
    return rows


ABLATION_ORDER = (Variant.HIGH_RANK, Variant.NO_RANK, Variant.NO_SPARSITY, Variant.LOW_RANK)


def _ablate_fits(params: SchirnParams) -> list:
    return [replace(params, variant=v) for v in ABLATION_ORDER]


def run_ablate(ds: Dataset, params: SchirnParams, k_folds: int, seed: int) -> list[dict]:
    """Four CV runs differing only in the variant, same seed and folds."""
    return _ablate_rows(_run_cvs(ds, _ablate_fits(params), k_folds, seed))


def _ablate_rows(outcomes) -> list[dict]:
    """run_ablate's rows, in ABLATION_ORDER, from the CV outcomes of _ablate_fits."""
    return [{"variant": v.value, "mean": o.mean, "std": o.std} for v, o in zip(ABLATION_ORDER, outcomes)]

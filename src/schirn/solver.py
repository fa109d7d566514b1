"""Augmented-Lagrangian solver for partial multi-label learning.

The model fits a linear map W so that X W tracks the denoised labels Y - N,
where N is a binary noise-label matrix confined to the candidate set
(N <= Y). Sparsity of N is encouraged through an l1 term while the nuclear
norm of the prediction matrix is *maximized* so that predictions keep the
near-full-rank structure real label matrices exhibit:

    min_{W,N}  ||XW - (Y - N)||_F^2 + alpha ||N||_1 - beta ||XW||_* + lam ||W||_F^2
    s.t.       N in {0,1}^{n x l},  N <= Y elementwise.

The equality-constrained reformulation C = XW is solved by an augmented
Lagrangian loop with closed-form block updates, in the fixed order
W -> N -> C -> multiplier -> penalty:

    W step   (mu X^T X + 2 lam I) W = mu X^T C - X^T Lam
    N step   N_ij = 1  iff  Y_ij = 1 and (Y - C)_ij > alpha/2
             (one exact proximal-gradient step with Lipschitz constant 2:
             soft-threshold by alpha/2, sign-threshold to {0,1}, clip to <= Y)
    C step   G = (2Y - 2N + Lam + mu XW) / (2 + mu); with G = U diag(s) V^T,
             high-rank: s + shift, low-rank: max(0, s - shift), shift from
             the configured convention ("paper": 2*beta/(2+mu),
             "derived": beta/(2+mu) from the stationarity condition).
             s and V come from an eigendecomposition of the small Gram
             matrix G^T G (G G^T when l > n), never from an n x l SVD.
    Lam step Lam += mu (XW - C), then mu = min(mu_max, rho * mu)

Each iteration forms XW = X W once, right after the W step, and hands it to
the C step, the multiplier step, the residual and the objective. The
objective's nuclear norm ||XW||_* comes from the W step's eigendecomposition
X^T X = Q diag(e) Q^T: XW and diag(sqrt(e)) Q^T W have the same singular
values, and the latter is only d x l, so fit factors X once. The dual route
(d > n), whose eigendecomposition is of X X^T, takes them from XW itself.

When d <= n and l <= n, the W step works in d x l space: fit keeps four
products of X^T with the n x l iterates (XtProducts), each maintained by
the block that changes its iterate:

    X^T Y     formed once;
    X^T X W   Q diag(e) Q^T W, from the W step's eigendecomposition of X^T X;
    X^T N     updated only from the rows where the N step changed N;
    X^T Lam   X^T Lam += mu (X^T X W - X^T C), the multiplier recursion.

On that route C = G M with M the l x l map of the C step (M = I for no-rank
or a zero shift), so X^T C = (X^T G) M and X^T G follows from the four
products by the same formula as G. The W step's right-hand side
mu X^T C - X^T Lam then needs no n-row product, and X W is the only
n x d x l product of an iteration. The dual W route (d > n) and the wide
C route (l > n, where C = M G with M of size n x n) keep the n-space
right-hand side X^T (mu C - Lam). The products track their n-space
counterparts up to rounding, so W moves in its last digits against the
n-space route while N, which depends on W only through thresholds,
is in practice unchanged.

fit(..., trace="none") skips the diagnostics: no objective and no stored
residual. The residual is still formed when tol > 0, because the early stop
reads it.

Shared prefixes. While N = 0, alpha has no effect on the iterates: it
enters only the N step's threshold, and a zero N adds alpha * 0 = 0 to the
objective. So a run with a larger alpha repeats, bit for bit, every
iterate of a run with a smaller one up to the state after iteration
f - 1, where f is the first iteration whose N step gives the smaller-alpha
run a non-zero N: the same C has not crossed the smaller threshold, so it
cannot cross the larger one. No-sparsity counts as alpha = infinity: its
C step is high-rank's, and its frozen N = 0 is high-rank's N before
iteration f. The two runs must agree on every other SchirnParams field
but threshold (which fit does not read), high-rank and no-sparsity
counting as one variant. prefix_chains groups a list of fits, in any
order, into chains of fits that agree on all of that, each in ascending
alpha, and fit_chain fits each chain on one pair of training arrays, each
fit resuming from the state its predecessor had at f - 1. A predecessor
whose N stayed zero hands on its state before its last iteration: the
follower runs that iteration again, with the same bits, and stops where
it stopped. The loop writes its iterates into arrays it owns (Row blocks
below), but no step writes into the C, multiplier or X^T products of the
state before an iteration, so that state stands until the iteration ends.
A lead copies the state it hands on once, when noise enters its N; one
whose N stayed zero is done with the arrays when it hands them on.

Row blocks. After the W step, each iteration of fit is two parallel phases
over blocks of rows, with only l x l work between them:

    phase A  per block: X W, the N step, the block's part of X^T N's
             change (its changed rows), the pull G, and the partials
             G^T G and max |G| of the C step's Gram matrix;
    between  the Gram parts summed in block order, its eigendecomposition
             and the map M;
    phase B  per block: C = G M, the multiplier step and, when traced or
             tol > 0, the partial sums ||XW - C||^2, ||C||^2,
             ||XW - Y + N||^2 and sum N of the residual and the objective;
             beside the blocks, on the calling thread, the d x l work that
             phase B does not need: X^T N, X^T C, X^T Lam and the
             objective's nuclear term.

The layout comes from the shape (n, d, l) alone (_row_blocks): blocks of
about 2^16 entries of the n x l iterates or more, starting at multiples of
48 rows, so one block below 2^17 entries and on the dual (d > n) and wide
(l > n) routes. Threads take whole blocks and every partial is summed in
block order, so the bytes of a fit depend on neither the CPU count nor on
which thread ran a block (fixed-order blocked sums are reproducible:
Demmel and Nguyen, "Parallel reproducible summation", IEEE TC 2015). fit
runs the blocks on up to one thread per usable CPU, fit_chain on one,
because its callers already run one fit per CPU; so fit_chain equals
fit(trace="none") by construction. One block is the public update_* and
objective composed, bit for bit in W, N and the residual; blocks move W
and the traces in their last digits only, through the blocked sums. The
n x l iterates live in buffers the loop allocates once: after the first
iteration of the primal route it allocates no n x l array of floats, only
a block's boolean masks and the indices of entries N changed (the dual W
step still forms its n-space right-hand side).

Ablation variants: "high-rank" is the full method; "no-rank" drops the
nuclear term (C = G); "no-sparsity" keeps the high-rank term but freezes
N = 0; "low-rank" flips the nuclear term's sign so singular values are
shrunk instead of inflated.
"""

import enum
import math
import os
import threading
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .linalg import _EPS, EigResult, NumericalError, _eigh, as_matrix, numerical_rank, sym_eig

__all__ = [
    "Variant",
    "SchirnParams",
    "SolverState",
    "XtProducts",
    "FitReport",
    "Model",
    "prefix_chains",
    "fit",
    "fit_chain",
    "update_w",
    "update_n",
    "update_c",
    "update_lagrange",
    "objective",
    "predict_scores",
    "binarize",
    "save_model",
    "load_model",
]

C_SHIFT_CONVENTIONS = ("paper", "derived")
TRACE_LEVELS = ("none", "residual")
# C step: Gram eigenvalues below this fraction of the largest take sigma from ||G v||
_WEAK_EIG = 1e-4
# fit's row blocks hold at least about this many entries of the n x l iterates (_row_blocks): fewer
# make each block's share of an iteration small against a thread hand-off
_BLOCK_ENTRIES = 1 << 16
# row blocks start at multiples of this many rows: on OpenBLAS's SkylakeX kernels the rows of X W and
# G M then keep the bits of the whole product, so the blocks change only the blocked sums; the bytes
# of a fit depend on the layout, never on which thread ran a block
_ROW_ALIGN = 48


class Variant(str, enum.Enum):
    HIGH_RANK = "high-rank"
    LOW_RANK = "low-rank"
    NO_RANK = "no-rank"
    NO_SPARSITY = "no-sparsity"


def _hyper(default, help, *, key=None, choices=None):
    """A SchirnParams field with its CLI help, external key and allowed values."""
    return field(default=default, metadata={"help": help, "key": key, "choices": choices})


@dataclass(frozen=True)
class SchirnParams:
    """Hyperparameters and penalty schedule.

    alpha weights the noise-sparsity term, beta the rank term, lam the ridge
    term. The penalty mu starts at mu0 and grows by rho per iteration up to
    mu_max. tol = 0 disables early stopping (the default run is exactly
    max_iter iterations). threshold binarizes scores for label prediction.

    The fields are the single statement of every hyperparameter: the CLI
    flags and config keys, fit_report.json and the model.meta sidecar are
    all derived from them. Each field's external key is its name, except
    where the metadata gives one (lam is written "lambda"); see to_dict and
    from_mapping.
    """

    alpha: float = _hyper(1.0, "noise-sparsity weight")
    beta: float = _hyper(0.05, "rank-term weight")
    lam: float = _hyper(10.0, "ridge weight", key="lambda")
    mu0: float = _hyper(1e-4, "initial penalty")
    mu_max: float = _hyper(10.0, "penalty cap")
    rho: float = _hyper(1.1, "penalty growth factor")
    max_iter: int = _hyper(100, "iteration cap")
    tol: float = _hyper(0.0, "early-stop residual threshold (0 disables)")
    variant: Variant = _hyper(Variant.HIGH_RANK, "solver variant", choices=tuple(v.value for v in Variant))
    threshold: float = _hyper(0.5, "score binarization threshold")
    c_shift: str = _hyper("paper", "singular-value shift convention", choices=C_SHIFT_CONVENTIONS)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not np.isfinite(value):
                raise ValueError(f"{_param_key(f)} must be finite, got {value}")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if self.lam <= 0:
            raise ValueError(f"lambda must be > 0, got {self.lam}")
        if self.mu0 <= 0:
            raise ValueError(f"mu0 must be > 0, got {self.mu0}")
        if self.mu_max < self.mu0:
            raise ValueError(f"mu_max must be >= mu0, got {self.mu_max} < {self.mu0}")
        if self.rho <= 1:
            raise ValueError(f"rho must be > 1, got {self.rho}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be >= 0, got {self.max_iter}")
        if self.tol < 0:
            raise ValueError(f"tol must be >= 0, got {self.tol}")
        if not 0 < self.threshold < 1:
            raise ValueError(f"threshold must lie in (0, 1), got {self.threshold}")
        if not isinstance(self.variant, Variant):
            object.__setattr__(self, "variant", Variant(self.variant))
        if self.c_shift not in C_SHIFT_CONVENTIONS:
            raise ValueError(f"c_shift must be one of {C_SHIFT_CONVENTIONS}, got {self.c_shift!r}")

    def to_dict(self) -> dict:
        """Field values by external key, in field order; the variant as its string value."""
        return {_param_key(f): _plain(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_mapping(cls, values) -> "SchirnParams":
        """Inverse of to_dict: every field is read from its external key
        and coerced to its default's type (see _read), so the strings of a
        model.meta file work too; other keys are ignored. The coercion
        assumes float, int, str or str-enum fields (bool("0") would be True)."""
        return cls(**{f.name: _read(values, _param_key(f), type(f.default)) for f in fields(cls)})


def _read(values, key: str, kind):
    """``kind(values[key])``; a ValueError names the key when it is missing or ``kind`` rejects it."""
    if key not in values:
        raise ValueError(f"missing key {key!r}")
    try:
        return kind(values[key])
    except ValueError:
        raise ValueError(f"bad value {values[key]!r} for key {key!r}") from None


def _param_key(f) -> str:
    """External key of a SchirnParams field: CLI flag stem, config, JSON and model.meta key."""
    return f.metadata["key"] or f.name


def _plain(value):
    return value.value if isinstance(value, enum.Enum) else value


@dataclass
class SolverState:
    """The five evolving quantities of the ALM loop."""

    W: np.ndarray
    N: np.ndarray
    C: np.ndarray
    Lam: np.ndarray
    mu: float
    iter: int = 0


@dataclass
class XtProducts:
    """X^T times the n x l iterates, for the d x l W step (d <= n, l <= n).

    update_w sets XtXW, update_n updates XtN, update_c sets XtC and
    update_lagrange steps XtLam; see the module docstring.
    """

    X: np.ndarray
    XtY: np.ndarray
    XtN: np.ndarray
    XtC: np.ndarray
    XtLam: np.ndarray
    XtXW: np.ndarray | None = None

    @classmethod
    def start(cls, X: np.ndarray, Y: np.ndarray, state: SolverState) -> "XtProducts":
        """The products at the initial state, where N = 0 and C = Lam; every step rebinds them, none
        writes into them, so XtLam may be XtC."""
        XtC = X.T @ state.C
        return cls(X=X, XtY=X.T @ Y, XtN=np.zeros_like(XtC), XtC=XtC, XtLam=XtC)

    def add_noise(self, changes) -> None:
        """X^T N plus the blocks' changes (_noise_change; None where a block's N kept its value),
        in block order."""
        for change in changes:
            if change is not None:
                self.XtN = self.XtN + change

    def c_step(self, mu: float, M) -> None:
        """X^T C = (X^T G) M, X^T G by the pull's formula from the products (M None: C = G)."""
        XtG = _pull(self.XtY, self.XtN, self.XtLam, self.XtXW, mu)
        self.XtC = XtG if M is None else XtG @ M

    def ascent(self, mu: float) -> None:
        """The multiplier step X^T Lam += mu (X^T X W - X^T C), with the pre-update mu."""
        self.XtLam = self.XtLam + mu * (self.XtXW - self.XtC)


@dataclass
class FitReport:
    """Per-iteration traces plus the final prediction-matrix rank.

    first_noise_iter is the 1-based iteration whose N step first produced a
    non-zero entry, or None if N stayed zero throughout (always the case
    for the no-sparsity variant).
    """

    objective_trace: list[float] = field(default_factory=list)
    primal_residual_trace: list[float] = field(default_factory=list)
    iterations_run: int = 0
    final_rank_XW: int = 0
    first_noise_iter: int | None = None


@dataclass
class Model:
    W: np.ndarray
    params: SchirnParams
    report: FitReport
    # final noise-label matrix from the fit; None for models loaded from disk
    noise: np.ndarray | None = None


class _Branch(NamedTuple):
    """Where a fit's loop starts: its state before an iteration, its W-step factors and its X^T
    products. _start gives a fresh fit's; a follower takes its lead's last one with N = 0."""

    eig: EigResult
    state: SolverState
    Xt: XtProducts | None


def _prefix_link(params: SchirnParams) -> tuple:
    """(key, alpha): the key holds everything two fits must share for their
    zero-noise prefixes to agree, and a fit repeats the prefix of one with
    the same key and an alpha no larger than its own.

    threshold does not reach fit; no-sparsity takes high-rank's C step and
    counts as alpha = infinity.
    """
    no_sparsity = params.variant is Variant.NO_SPARSITY
    key = replace(params, alpha=1.0, threshold=0.5, variant=Variant.HIGH_RANK if no_sparsity else params.variant)
    return key, math.inf if no_sparsity else params.alpha


def prefix_chains(params_list) -> list[list[int]]:
    """The prefix chains of a list of fits on the same training arrays, as lists of indices: the
    fits of one _prefix_link key in ascending alpha (ties in list order), so that each repeats its
    predecessor's zero-noise prefix (module docstring), and the chains in the order of their first
    fits in the list. fit_chain on each apart gives the same models from the same iterations.
    """
    chains = {}
    for i, params in enumerate(params_list):
        key, alpha = _prefix_link(params)
        chains.setdefault(key, []).append((alpha, i))
    return [[i for _, i in sorted(chain)] for chain in chains.values()]


def _c_shift(params: SchirnParams, mu: float) -> float:
    """The C step's singular-value shift at penalty mu; 0 for no-rank, whose C is G."""
    if params.variant is Variant.NO_RANK:
        return 0.0
    if params.c_shift == "paper":
        return 2.0 * params.beta / (2.0 + mu)
    return params.beta / (2.0 + mu)


def _nuclear_sign(variant: Variant) -> float:
    if variant in (Variant.HIGH_RANK, Variant.NO_SPARSITY):
        return -1.0
    if variant is Variant.LOW_RANK:
        return 1.0
    return 0.0


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _row_blocks(n: int, d: int, l: int) -> list[slice]:
    """fit's row blocks, from the shape alone: n l // _BLOCK_ENTRIES blocks of about equal size,
    each starting at a multiple of _ROW_ALIGN rows; one block below 2 * _BLOCK_ENTRIES entries of
    the n x l iterates, and on the dual (d > n) and wide (l > n) routes."""
    count = n * l // _BLOCK_ENTRIES if d <= n and l <= n else 1
    cuts = sorted({n * i // count // _ROW_ALIGN * _ROW_ALIGN for i in range(1, count)} - {0})
    bounds = [0, *cuts, n]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


class _Rows:
    """Row blocks and the threads that run them: the calling thread and a pool of ``threads`` - 1
    helpers, fewer if there are fewer blocks, none for one. Leaving the context shuts the pool down."""

    def __init__(self, blocks: list[slice], threads: int = 1):
        self.blocks = blocks
        self._helpers = min(threads, len(blocks)) - 1
        self._pool = None
        if self._helpers:
            from concurrent.futures import ThreadPoolExecutor  # imported here: about 10 ms, paid by blocked fits only

            self._pool = ThreadPoolExecutor(self._helpers)

    def __enter__(self) -> "_Rows":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._pool is not None:
            self._pool.shutdown()

    def run(self, kernel, first=None) -> tuple[list, object]:
        """([kernel(rows) for rows in self.blocks], first() or None if not given).

        The helpers start on the blocks at once; the calling thread runs ``first``, then takes
        blocks too, each thread the next block not yet taken. No block is running when this
        returns or raises; an error of ``first`` wins, then that of the first block that raised.
        """
        if self._pool is None:
            value = None if first is None else first()
            return [kernel(rows) for rows in self.blocks], value
        results = [None] * len(self.blocks)
        errors = [None] * len(self.blocks)
        todo = iter(range(len(self.blocks)))
        lock = threading.Lock()

        def take():
            while True:
                with lock:
                    b = next(todo, None)
                if b is None:
                    return
                try:
                    results[b] = kernel(self.blocks[b])
                except Exception as exc:
                    errors[b] = exc

        helpers = [self._pool.submit(take) for _ in range(self._helpers)]
        try:
            value = None if first is None else first()
            take()
        finally:
            for helper in helpers:
                helper.result()
        for error in errors:
            if error is not None:
                raise error
        return results, value


def _sym_gram(X: np.ndarray, dual: bool) -> np.ndarray:
    """X^T X (X X^T when ``dual``), made exactly symmetric."""
    gram = X @ X.T if dual else X.T @ X
    return (gram + gram.T) / 2.0


def _sqnorm(A: np.ndarray) -> float:
    """||A||_F^2 as np.linalg.norm forms it before its square root: one dot product of the entries."""
    a = A.ravel()
    return float(a.dot(a))


def update_w(state: SolverState, X: np.ndarray, params: SchirnParams, eig=None, dual=False,
             Xt=None) -> np.ndarray:
    """Solve (mu X^T X + 2 lam I) W = mu X^T C - X^T Lam.

    ``eig`` is an optional precomputed eigendecomposition of the Gram matrix
    (X^T X, or X X^T when ``dual``); with it the solve reduces to two dense
    products and a diagonal scaling, which is what makes the per-iteration
    mu change cheap. The dual route uses the push-through identity
    (mu X^T X + 2 lam I)^{-1} X^T = X^T (mu X X^T + 2 lam I)^{-1} and is the
    right choice when there are more features than samples.

    ``Xt`` is optional XtProducts (primal route only): the right-hand side
    is then read from Xt.XtC and Xt.XtLam, and Xt.XtXW is set to X^T X W.
    """
    if eig is None:
        eig = sym_eig(_sym_gram(X, dual))
    denom = state.mu * eig.eigenvalues + 2.0 * params.lam
    if dual:
        target = state.mu * state.C - state.Lam
        return X.T @ (eig.Q @ ((eig.Q.T @ target) / denom[:, None]))
    if Xt is None:
        Z = (eig.Q.T @ (X.T @ (state.mu * state.C - state.Lam))) / denom[:, None]
    else:
        Z = (eig.Q.T @ (state.mu * Xt.XtC - Xt.XtLam)) / denom[:, None]
        Xt.XtXW = eig.Q @ (eig.eigenvalues[:, None] * Z)
    return eig.Q @ Z


def _noise_step(Y, C, half: float, out: np.ndarray) -> np.ndarray:
    """The N step in ``out``: 1 where Y - C > ``half`` (alpha/2) on a candidate (Y = 1), else 0.
    shrink(Y - C, alpha/2) > 0 exactly where Y - C > alpha/2; N <= Y keeps the candidates."""
    noisy = np.subtract(Y, C, out=out) > half
    noisy &= Y == 1.0
    np.copyto(out, noisy)
    return out


def _noise_change(X, N_new, N_old) -> np.ndarray | None:
    """X^T (N_new - N_old) over the rows where N changed; None if none did."""
    changed = np.flatnonzero(N_new != N_old)
    if not changed.size:
        return None
    # the changed rows, ascending; np.unique would import numpy.ma (about 12 ms, once per process)
    rows = np.flatnonzero(np.bincount(changed // N_new.shape[1]))
    return X[rows].T @ (N_new[rows] - N_old[rows])


def update_n(state: SolverState, Y: np.ndarray, params: SchirnParams, Xt=None) -> np.ndarray:
    """One exact proximal step for the noise matrix.

    Soft-threshold M = Y - C by alpha/2, map positive survivors to 1, then
    clip to the candidate set; computed as the single comparison
    M > alpha/2 on the candidate entries. Under the no-sparsity variant N
    stays zero. ``Xt`` is optional XtProducts whose X^T N is kept in step.
    """
    N = np.zeros(Y.shape)
    if params.variant is not Variant.NO_SPARSITY:
        _noise_step(Y, state.C, params.alpha / 2.0, out=N)
    if Xt is not None:
        Xt.add_noise([_noise_change(Xt.X, N, state.N)])
    return N


def _pull(Y, N, Lam, XW, mu: float, out=None, tmp=None) -> np.ndarray:
    """G = (2Y - 2N + Lam + mu XW) / (2 + mu), in ``out`` if given, with ``tmp`` as scratch if given;
    linear, so also X^T G from the X^T products. The operations are those of the formula, in its
    order, but for 2Y - 2N formed as 2 (Y - N): doubling is exact, so the two agree bit for bit."""
    G = np.subtract(Y, N, out=out)
    G *= 2.0
    G += Lam
    G += np.multiply(XW, mu, out=tmp)
    G /= 2.0 + mu
    return G


def _gram_part(G: np.ndarray, wide: bool, tmp=None) -> tuple:
    """(max |G|, the Gram matrix of G 2^-k), with k such that max |G| 2^-k lies in [0.5, 1): a row
    block's part of the C step's Gram matrix (_spectral_map); ``tmp`` (G's shape) is scratch."""
    top = max(G.max(), -G.min())
    return top, _sym_gram(np.ldexp(G, -np.frexp(top)[1], out=tmp), dual=wide)


def update_c(state: SolverState, X: np.ndarray, Y: np.ndarray, params: SchirnParams, XW=None,
             Xt=None) -> np.ndarray:
    """Singular-value shift update of the relaxed prediction matrix.

    The quadratic part pulls C toward G = (2Y - 2N + Lam + mu XW) / (2 + mu);
    the rank term inflates (high-rank) or shrinks (low-rank) G's spectrum:
    C = U diag(f(s)) V^T with f(s) = s + shift or max(0, s - shift), where
    G = U diag(s) V^T. ``XW`` is an optional precomputed X @ state.W.

    The spectrum comes from the l x l Gram matrix G^T G = V diag(s^2) V^T
    (the n x n G G^T when l > n), so no n x l SVD is formed:
    C = G V diag(f(s)/s) V^T, or U diag(f(s)/s) U^T G on the G G^T route.
    Squaring G costs accuracy in its small singular values: the relative
    error of sqrt(lambda) as sigma is about eps * sigma_max^2 / sigma^2,
    against eps for an SVD of G itself (the Gram-versus-QR trade-off
    analysed by Halko, Martinsson and Tropp, "Finding structure with
    randomness", SIAM Review 2011). Gram eigenvalues at or below
    max(n, l) * eps * lambda_max are therefore rounding noise and count as
    null directions of G. A kept direction v whose eigenvalue is below
    1e-4 * lambda_max takes sigma = ||G v|| instead: an error in v moves
    that norm only to second order, whereas an error delta in sigma would
    reach C as shift * delta along v. Only those weak directions pay for
    the extra product with G.

    Null directions get no shift: they are treated as exact zeros of G and
    stay zero in C, so C is the shift applied to G with those directions
    removed (a pseudo-inverse rule, deterministic because it does not
    depend on which basis spans the null space; G = 0 gives C = 0). For
    low-rank this is the exact minimiser of 0.5 ||C - G||_F^2 +
    shift ||C||_* (singular-value thresholding zeroes those directions
    anyway). For high-rank and full-rank G it is the exact minimiser of
    0.5 ||C - G||_F^2 - shift ||C||_*; on rank-deficient G that minimiser
    is not unique (it shifts the zero singular values too, along any
    orthonormal completion), and the rule returns a stationary point whose
    value is higher by shift^2 / 2 per null direction.

    The Gram matrix is formed from G scaled by the power of two that brings
    its largest entry into [0.5, 1), so it cannot overflow. A power-of-two
    scaling is exact for every entry that stays in the normal range, so on
    ordinary G the result is bit-for-bit that of the unscaled Gram. NaN or
    Inf in G raises ValueError, detected on the small Gram matrix.

    ``Xt`` is optional XtProducts (l <= n only): Xt.XtC is then set to
    X^T C = (X^T G) M, with X^T G formed from the X^T products.
    """
    mu = state.mu
    if XW is None:
        XW = X @ state.W
    G = _pull(Y, state.N, state.Lam, XW, mu)
    wide = G.shape[1] > G.shape[0]
    shift = _c_shift(params, mu)
    M = _spectral_map([_gram_part(G, wide)], G, params, shift) if shift else None
    if Xt is not None:
        Xt.c_step(mu, M)
    if M is None:
        return G
    return M @ G if wide else G @ M


def _spectral_map(parts, G: np.ndarray, params: SchirnParams, shift: float) -> np.ndarray:
    """The C step's map M, C = G M (M G when G is wide), from the _gram_part of each row block of G:
    each part is brought to the power of two of the largest block's and they are summed in block
    order; for one block that is its Gram matrix as it stands."""
    wide = G.shape[1] > G.shape[0]
    k = np.frexp(max(top for top, _ in parts))[1]
    gram = None
    for top, part in parts:
        k_part = np.frexp(top)[1]
        if k_part != k:
            part = np.ldexp(part, 2 * (k_part - k))
        gram = part if gram is None else gram + part
    # symmetric by construction, so one finiteness check stands in for sym_eig's scans
    if not np.isfinite(gram).all():
        raise ValueError("matrix contains NaN or Inf entries")
    eig = _eigh(gram)
    lam = eig.eigenvalues
    keep = lam > max(G.shape) * _EPS * lam[-1]
    V = eig.Q[:, keep]
    s = np.sqrt(lam[keep])
    weak = lam[keep] < _WEAK_EIG * lam[-1]
    if weak.any():
        s[weak] = np.linalg.norm(np.ldexp(G.T @ V[:, weak] if wide else G @ V[:, weak], -k), axis=0)
    s = np.ldexp(s, k)
    if params.variant is Variant.LOW_RANK:
        f = np.maximum(0.0, s - shift)
    else:
        f = s + shift
    return (V * (f / s)) @ V.T


def _ascent(XW, C, Lam, mu: float, out=None, gap: bool = False) -> tuple[np.ndarray, float | None]:
    """(Lam + mu (XW - C), in ``out`` if given; with ``gap``, ||XW - C||_F^2, else None)."""
    step = np.subtract(XW, C, out=out)
    sqnorm = _sqnorm(step) if gap else None
    step *= mu
    step += Lam
    return step, sqnorm


def update_lagrange(state: SolverState, X: np.ndarray, params: SchirnParams, XW=None,
                    Xt=None) -> tuple[np.ndarray, float]:
    """Multiplier ascent with the pre-update mu, then the geometric mu step.

    ``XW`` is an optional precomputed X @ state.W. ``Xt`` is optional
    XtProducts whose X^T Lam takes the same step.
    """
    if XW is None:
        XW = X @ state.W
    new_lam, _ = _ascent(XW, state.C, state.Lam, state.mu)
    if Xt is not None:
        Xt.ascent(state.mu)
    return new_lam, min(params.mu_max, params.rho * state.mu)


def _misfit(XW, Y, N, out=None) -> float:
    """||XW - (Y - N)||_F^2, with ``out`` (XW's shape) as scratch if given."""
    R = np.subtract(Y, N, out=out)
    return _sqnorm(np.subtract(XW, R, out=R))


def _rank_term(params: SchirnParams, W, XW, eig) -> float:
    """The objective's nuclear term, +-beta ||XW||_* or 0 by the variant (see objective)."""
    sign = _nuclear_sign(params.variant)
    if sign == 0.0:
        return 0.0
    P = XW if eig is None else np.sqrt(np.maximum(eig.eigenvalues, 0.0))[:, None] * (eig.Q.T @ W)
    return sign * params.beta * float(np.linalg.svd(P, compute_uv=False).sum())


def _objective_value(params: SchirnParams, misfit: float, noise_l1: float, rank_term: float, W) -> float:
    """The objective from its terms ||XW - (Y - N)||_F^2, ||N||_1 and the nuclear term."""
    return misfit + params.alpha * noise_l1 + rank_term + params.lam * _sqnorm(W)


def objective(state: SolverState, X: np.ndarray, Y: np.ndarray, params: SchirnParams, XW=None, eig=None) -> float:
    """Value of the un-augmented objective at the current state.

    The nuclear term enters with the variant's sign: negative (maximize) for
    high-rank and no-sparsity, positive for low-rank, absent for no-rank.
    ``XW`` is an optional precomputed X @ state.W. ``eig`` is an optional
    eigendecomposition X^T X = Q diag(e) Q^T (the W step's); ||XW||_* is
    then the sum of the singular values of the d x l diag(sqrt(e)) Q^T W,
    with e clamped at zero, else of XW. In X's weak directions sqrt(e) is
    off by up to about sqrt(eps) ||X||_2 (update_c's Gram-versus-QR
    trade-off); a W step damps W there by 1 / (mu e + 2 lam), and for its W
    the sum stayed within 4e-13 of ||XW||_* for cond(X) up to 1e10, where
    a random W with l >= d/2 can be 1e-8 off.
    """
    if XW is None:
        XW = X @ state.W
    return _objective_value(params, _misfit(XW, Y, state.N), float(np.abs(state.N).sum()),
                            _rank_term(params, state.W, XW, eig), state.W)


def fit(ds, params: SchirnParams, trace: str = "residual") -> Model:
    """Run the full ALM loop on a dataset; deterministic for fixed inputs.

    Executes max_iter iterations of W -> N -> C -> multiplier -> penalty
    (or stops early once the relative primal residual ||XW - C||_F /
    max(1, ||C||_F) drops to tol, when tol > 0) and returns the weight
    matrix together with the objective and residual traces. With
    trace="none" both traces stay empty and the objective is never
    evaluated; everything else is bit-identical to the default "residual".
    """
    if trace not in TRACE_LEVELS:
        raise ValueError(f"trace must be one of {TRACE_LEVELS}, got {trace!r}")
    X, Y = _training_arrays(ds)
    return _fit(X, Y, params, trace == "residual", threads=_usable_cpus())[0]


def fit_chain(ds, params_list) -> list[Model]:
    """[fit(ds, params, trace="none") for params in params_list], bit for bit.

    Within each of prefix_chains(params_list), a fit resumes from the
    zero-noise prefix of the fit before it (module docstring) and skips
    the W, N, C and multiplier steps of the iterations they share, in
    whatever order the list gives the fits. The models share no arrays.
    """
    X, Y = _training_arrays(ds)
    models = [None] * len(params_list)
    for chain in prefix_chains(params_list):
        branch = None
        for i in chain:
            models[i], branch = _fit(X, Y, params_list[i], False, start=branch, keep=i != chain[-1])
    return models


def _training_arrays(ds) -> tuple[np.ndarray, np.ndarray]:
    X = as_matrix(ds.X, "X")
    Y = as_matrix(ds.Y, "Y")
    if X.shape[0] != Y.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but Y has {Y.shape[0]}")
    return X, Y


def _start(X, Y, params: SchirnParams) -> _Branch:
    """A fresh fit's _Branch: W and N at zero, C and the multiplier at all-ones."""
    n, d = X.shape
    l = Y.shape[1]
    dual = d > n  # factor the smaller Gram matrix
    state = SolverState(W=np.zeros((d, l)), N=np.zeros((n, l)), C=np.ones((n, l)), Lam=np.ones((n, l)),
                        mu=params.mu0)
    with np.errstate(over="ignore", invalid="ignore"):  # finite features can overflow their Gram
        gram = _sym_gram(X, dual)
    # symmetric by construction, so one finiteness check stands in for sym_eig's scans
    if not np.isfinite(gram).all():
        raise NumericalError("the Gram matrix of X overflows")
    return _Branch(_eigh(gram), state, XtProducts.start(X, Y, state) if not dual and l <= n else None)


def _fit(X, Y, params: SchirnParams, traced: bool, threads: int = 1, start: _Branch | None = None,
         keep: bool = False) -> tuple[Model, _Branch | None]:
    """The ALM loop of fit and fit_chain, from ``start`` (a fresh fit's _start when None), whose
    state, arrays and X^T products it takes over, with up to ``threads`` threads on the row blocks
    (module docstring). Returns the model and, with ``keep``, the _Branch before its last
    iteration with N = 0 (None if no iteration ran), which owns its arrays: a fit whose zero-noise
    prefix repeats this one's may start there.
    """
    n, d = X.shape
    l = Y.shape[1]
    dual, wide = d > n, l > n
    eig, state, Xt = start or _start(X, Y, params)
    sparse = params.variant is not Variant.NO_SPARSITY
    half = params.alpha / 2.0
    measured = traced or params.tol > 0
    # the n x l buffers: state.C and state.Lam keep the state before an iteration until it ends,
    # G, S and L take its pull, new C and new multiplier, and whichever is free serves as scratch
    XW = np.zeros((n, l))  # X @ W for W = 0: the final rank of a fresh fit that runs no iteration
    N = state.N
    G, S, L = np.empty((n, l)), np.empty((n, l)), np.empty((n, l))
    report = FitReport()
    branch = None
    with _Rows(_row_blocks(n, d, l), threads) as rows:
        for _ in range(state.iter, params.max_iter):
            if keep and report.first_noise_iter is None:
                branch = _Branch(eig, replace(state), Xt and replace(Xt))  # before this iteration
            state.W = W = update_w(state, X, params, eig=eig, dual=dual, Xt=Xt)
            C, Lam, mu = state.C, state.Lam, state.mu
            shift = _c_shift(params, mu)
            watch = sparse and report.first_noise_iter is None

            def phase_a(r):
                # X W, the N step, the pull, and the block's parts of X^T N's change and of G^T G
                np.matmul(X[r], W, out=XW[r])
                change = None
                if sparse:
                    N_new = _noise_step(Y[r], C[r], half, out=G[r])
                    if Xt is not None:
                        change = _noise_change(X[r], N_new, N[r])
                    if Xt is None or change is not None:  # N may have changed
                        np.copyto(N[r], N_new)
                _pull(Y[r], N[r], Lam[r], XW[r], mu, out=G[r], tmp=S[r])
                return change, watch and N[r].any(), _gram_part(G[r], wide, tmp=S[r]) if shift else None

            changes, noisy, parts = zip(*rows.run(phase_a)[0])
            M = _spectral_map(parts, G, params, shift) if shift else None
            C_new, free = (G, S) if M is None else (S, G)

            def phase_b(r):
                # C = G M, the multiplier step, and the block's parts of the residual and the objective
                if M is not None and wide:  # one block
                    np.matmul(M, G, out=C_new)
                elif M is not None:
                    np.matmul(G[r], M, out=C_new[r])
                _, gap = _ascent(XW[r], C_new[r], Lam[r], mu, out=L[r], gap=measured)
                if not measured:
                    return 0.0, 0.0, 0.0, 0.0
                if not traced:
                    return gap, _sqnorm(C_new[r]), 0.0, 0.0
                return gap, _sqnorm(C_new[r]), _misfit(XW[r], Y[r], N[r], out=free[r]), float(N[r].sum())

            def beside():
                # the d x l work phase B does not need: the X^T products and the objective's nuclear term
                if Xt is not None:
                    Xt.add_noise(changes)
                    Xt.c_step(mu, M)
                    Xt.ascent(mu)
                return _rank_term(params, W, XW, None if dual else eig) if traced else None

            parts, rank_term = rows.run(phase_b, first=beside)
            gap, size, misfit, noise_l1 = (sum(part) for part in zip(*parts))  # in block order
            state.C, G, S = C_new, C, free
            state.Lam, L = L, Lam
            state.mu = min(params.mu_max, params.rho * mu)
            state.iter += 1
            if watch and any(noisy):
                report.first_noise_iter = state.iter
                if keep:  # later iterations reuse the buffers of the state before this one
                    branch.state.C, branch.state.Lam = C.copy(), Lam.copy()

            if traced:
                report.objective_trace.append(_objective_value(params, misfit, noise_l1, rank_term, W))
            if measured:
                residual = math.sqrt(gap) / max(1.0, math.sqrt(size))
                if traced:
                    report.primal_residual_trace.append(residual)
                if params.tol > 0 and residual <= params.tol:
                    break

    if branch is not None:
        branch.state.N = np.zeros((n, l))  # N = 0 before a noise-free iteration; this fit keeps its own
    report.iterations_run = state.iter
    report.final_rank_XW = numerical_rank(XW)
    return Model(W=state.W, params=params, report=report, noise=N), branch


def predict_scores(model: Model, X_test) -> np.ndarray:
    """Raw scores X_test @ W."""
    X = as_matrix(X_test, "X_test")
    if X.shape[1] != model.W.shape[0]:
        raise ValueError(
            f"X_test has {X.shape[1]} features but the model expects {model.W.shape[0]}"
        )
    return X @ model.W


def binarize(scores: np.ndarray, threshold: float) -> np.ndarray:
    """Binary predictions from scores: 1 iff the score strictly exceeds the threshold."""
    return (scores > threshold).astype(np.float64)


def save_model(model: Model, out_dir) -> None:
    """Persist W in the matrix text format plus a key=value metadata sidecar."""
    from .data import save_matrix

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_matrix(out_dir / "weights.txt", model.W)
    values = {
        **model.params.to_dict(),
        "iterations_run": model.report.iterations_run,
        "final_rank_xw": model.report.final_rank_XW,
    }
    with open(out_dir / "model.meta", "w", encoding="utf-8", newline="\n") as fh:
        for key, value in values.items():
            fh.write(f"{key}={value!r}\n" if isinstance(value, float) else f"{key}={value}\n")


def load_model(model_dir) -> Model:
    """Inverse of save_model; traces are not persisted and come back empty."""
    from .data import load_matrix

    model_dir = Path(model_dir)
    W = load_matrix(model_dir / "weights.txt")
    meta_path = model_dir / "model.meta"
    with open(meta_path, "r", encoding="utf-8") as fh:
        meta = dict(line.strip().partition("=")[::2] for line in fh if "=" in line)
    try:
        params = SchirnParams.from_mapping(meta)
        report = FitReport(iterations_run=_read(meta, "iterations_run", int),
                           final_rank_XW=_read(meta, "final_rank_xw", int))
    except ValueError as exc:
        raise ValueError(f"{meta_path}: {exc}") from None
    return Model(W=W, params=params, report=report)

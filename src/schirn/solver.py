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
objective's nuclear norm ||XW||_* is taken from the singular values of R W,
where X = QR is a reduced QR factorization computed once per fit.

Ablation variants: "high-rank" is the full method; "no-rank" drops the
nuclear term (C = G); "no-sparsity" keeps the high-rank term but freezes
N = 0; "low-rank" flips the nuclear term's sign so singular values are
shrunk instead of inflated.
"""

import enum
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .linalg import _EPS, as_matrix, numerical_rank, sym_eig

__all__ = [
    "Variant",
    "SchirnParams",
    "SolverState",
    "FitReport",
    "Model",
    "fit",
    "update_w",
    "update_n",
    "update_c",
    "update_lagrange",
    "objective",
    "predict_scores",
    "predict_labels",
    "save_model",
    "load_model",
]

C_SHIFT_CONVENTIONS = ("paper", "derived")
# C step: Gram eigenvalues below this fraction of the largest take sigma from ||G v||
_WEAK_EIG = 1e-4


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
        (KeyError if one is missing) and coerced to its default's type, so
        the strings of a model.meta file work too; other keys are ignored.
        The coercion assumes float, int, str or str-enum fields (bool("0")
        would be True)."""
        return cls(**{f.name: type(f.default)(values[_param_key(f)]) for f in fields(cls)})


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


def _initial_state(n: int, d: int, l: int, params: SchirnParams) -> SolverState:
    # W and N start at zero, C and the multiplier at all-ones
    return SolverState(
        W=np.zeros((d, l)),
        N=np.zeros((n, l)),
        C=np.ones((n, l)),
        Lam=np.ones((n, l)),
        mu=params.mu0,
    )


def _c_shift_amount(params: SchirnParams, mu: float) -> float:
    if params.c_shift == "paper":
        return 2.0 * params.beta / (2.0 + mu)
    return params.beta / (2.0 + mu)


def _nuclear_sign(variant: Variant) -> float:
    if variant in (Variant.HIGH_RANK, Variant.NO_SPARSITY):
        return -1.0
    if variant is Variant.LOW_RANK:
        return 1.0
    return 0.0


def _gram_eig(X: np.ndarray, dual: bool):
    gram = X @ X.T if dual else X.T @ X
    return sym_eig((gram + gram.T) / 2.0)


def update_w(state: SolverState, X: np.ndarray, params: SchirnParams, eig=None, dual=False) -> np.ndarray:
    """Solve (mu X^T X + 2 lam I) W = mu X^T C - X^T Lam.

    ``eig`` is an optional precomputed eigendecomposition of the Gram matrix
    (X^T X, or X X^T when ``dual``); with it the solve reduces to two dense
    products and a diagonal scaling, which is what makes the per-iteration
    mu change cheap. The dual route uses the push-through identity
    (mu X^T X + 2 lam I)^{-1} X^T = X^T (mu X X^T + 2 lam I)^{-1} and is the
    right choice when there are more features than samples.
    """
    if eig is None:
        eig = _gram_eig(X, dual)
    denom = state.mu * eig.eigenvalues + 2.0 * params.lam
    target = state.mu * state.C - state.Lam
    if dual:
        return X.T @ (eig.Q @ ((eig.Q.T @ target) / denom[:, None]))
    return eig.Q @ ((eig.Q.T @ (X.T @ target)) / denom[:, None])


def update_n(state: SolverState, Y: np.ndarray, params: SchirnParams) -> np.ndarray:
    """One exact proximal step for the noise matrix.

    Soft-threshold M = Y - C by alpha/2, map positive survivors to 1, then
    clip to the candidate set; computed as the single comparison
    M > alpha/2 on the candidate entries. Under the no-sparsity variant N
    stays zero.
    """
    if params.variant is Variant.NO_SPARSITY:
        return np.zeros_like(Y)
    # shrink(Y - C, alpha/2) > 0 exactly where Y - C > alpha/2; N <= Y keeps the candidates
    return ((Y - state.C > params.alpha / 2.0) & (Y == 1.0)).astype(np.float64)


def update_c(state: SolverState, X: np.ndarray, Y: np.ndarray, params: SchirnParams, XW=None) -> np.ndarray:
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
    """
    mu = state.mu
    if XW is None:
        XW = X @ state.W
    G = (2.0 * Y - 2.0 * state.N + state.Lam + mu * XW) / (2.0 + mu)
    shift = _c_shift_amount(params, mu)
    if params.variant is Variant.NO_RANK or shift == 0.0:
        return G
    wide = G.shape[1] > G.shape[0]
    _, k = np.frexp(max(G.max(), -G.min()))
    eig = _gram_eig(np.ldexp(G, -k), dual=wide)
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
    M = (V * (f / s)) @ V.T
    return M @ G if wide else G @ M


def update_lagrange(state: SolverState, X: np.ndarray, params: SchirnParams, XW=None) -> tuple[np.ndarray, float]:
    """Multiplier ascent with the pre-update mu, then the geometric mu step.

    ``XW`` is an optional precomputed X @ state.W.
    """
    if XW is None:
        XW = X @ state.W
    new_lam = state.Lam + state.mu * (XW - state.C)
    new_mu = min(params.mu_max, params.rho * state.mu)
    return new_lam, new_mu


def objective(state: SolverState, X: np.ndarray, Y: np.ndarray, params: SchirnParams, XW=None, R=None) -> float:
    """Value of the un-augmented objective at the current state.

    The nuclear term enters with the variant's sign: negative (maximize) for
    high-rank and no-sparsity, positive for low-rank, absent for no-rank.
    ``XW`` is an optional precomputed X @ state.W. ``R`` is the triangular
    factor of a reduced QR factorization X = QR (computed here when not
    given): Q has orthonormal columns, so ||XW||_* is the sum of the
    singular values of the small R W (min(n, d) x l), with no squaring of
    its condition number.
    """
    if XW is None:
        XW = X @ state.W
    fit_term = float(np.linalg.norm(XW - (Y - state.N), "fro") ** 2)
    sparsity_term = params.alpha * float(np.abs(state.N).sum())
    ridge_term = params.lam * float(np.linalg.norm(state.W, "fro") ** 2)
    sign = _nuclear_sign(params.variant)
    rank_term = 0.0
    if sign != 0.0:
        if R is None:
            R = np.linalg.qr(X, mode="r")
        rank_term = sign * params.beta * float(np.linalg.svd(R @ state.W, compute_uv=False).sum())
    return fit_term + sparsity_term + rank_term + ridge_term


def fit(ds, params: SchirnParams) -> Model:
    """Run the full ALM loop on a dataset; deterministic for fixed inputs.

    Executes max_iter iterations of W -> N -> C -> multiplier -> penalty
    (or stops early once the relative primal residual ||XW - C||_F /
    max(1, ||C||_F) drops to tol, when tol > 0) and returns the weight
    matrix together with the objective and residual traces.
    """
    X = as_matrix(ds.X, "X")
    Y = as_matrix(ds.Y, "Y")
    if X.shape[0] != Y.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but Y has {Y.shape[0]}")
    n, d = X.shape
    l = Y.shape[1]

    state = _initial_state(n, d, l, params)
    dual = d > n  # factor the smaller Gram matrix
    eig = _gram_eig(X, dual)
    R = np.linalg.qr(X, mode="r")

    report = FitReport()
    for _ in range(params.max_iter):
        state.W = update_w(state, X, params, eig=eig, dual=dual)
        XW = X @ state.W
        state.N = update_n(state, Y, params)
        state.C = update_c(state, X, Y, params, XW=XW)
        state.Lam, state.mu = update_lagrange(state, X, params, XW=XW)
        state.iter += 1
        if report.first_noise_iter is None and state.N.any():
            report.first_noise_iter = state.iter

        report.objective_trace.append(objective(state, X, Y, params, XW=XW, R=R))
        residual = float(
            np.linalg.norm(XW - state.C, "fro") / max(1.0, np.linalg.norm(state.C, "fro"))
        )
        report.primal_residual_trace.append(residual)
        if params.tol > 0 and residual <= params.tol:
            break

    report.iterations_run = state.iter
    report.final_rank_XW = numerical_rank(X @ state.W)
    return Model(W=state.W, params=params, report=report, noise=state.N)


def predict_scores(model: Model, X_test) -> np.ndarray:
    """Raw scores X_test @ W."""
    X = as_matrix(X_test, "X_test")
    if X.shape[1] != model.W.shape[0]:
        raise ValueError(
            f"X_test has {X.shape[1]} features but the model expects {model.W.shape[0]}"
        )
    return X @ model.W


def predict_labels(model: Model, X_test) -> np.ndarray:
    """Binary predictions: 1 iff score strictly exceeds the threshold."""
    return (predict_scores(model, X_test) > model.params.threshold).astype(np.float64)


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
    meta: dict[str, str] = {}
    with open(model_dir / "model.meta", "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and "=" in line:
                key, _, value = line.partition("=")
                meta[key] = value
    params = SchirnParams.from_mapping(meta)
    report = FitReport(
        iterations_run=int(meta["iterations_run"]),
        final_rank_XW=int(meta["final_rank_xw"]),
    )
    return Model(W=W, params=params, report=report)

"""Partial multi-label learning with a sparse noise matrix and a high-rank
prediction constraint, plus the experiment harness around it."""

from .data import (
    Dataset,
    FoldSplit,
    MatrixFormatError,
    NoiseSpec,
    describe,
    inject_noise,
    kfold_split,
    load_dataset,
    load_matrix,
    save_matrix,
    standardize,
)
from .diagnostics import (
    RankReport,
    TheoremCheckResult,
    rank_report,
    verify_rank_theorem,
)
from .linalg import NumericalError, numerical_rank
from .metrics import (
    MetricReport,
    average_precision,
    coverage,
    evaluate_all,
    hamming_loss,
    one_error,
    ranking_loss,
)
from .solver import (
    FitReport,
    Model,
    SchirnParams,
    SolverState,
    Variant,
    binarize,
    fit,
    load_model,
    objective,
    predict_scores,
    save_model,
)

__version__ = "0.1.0"

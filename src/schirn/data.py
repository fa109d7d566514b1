"""Dataset representation, matrix text I/O, noise injection, and fold splitting.

Matrix text format: a header line ``<rows> <cols>`` (two positive ASCII
decimal integers), then ``rows`` lines of ``cols`` tokens; blank lines are
allowed only at the end. The file is UTF-8, lines are those of
``str.splitlines`` and tokens those of ``str.split``. A feature token is
anything ``float`` accepts, with non-finite values rejected; a label token
is exactly ``0`` or ``1``. A dataset on disk is a (features, labels) file
pair plus an optional ground-truth labels file.

``load_matrix`` parses a plain file (ASCII digits, signs, points, exponents,
spaces, tabs, LF or CRLF; every file ``save_matrix`` writes) in bulk with
numpy. It reads the bytes once, in blocks of whole lines that it checks
before numpy sees them, so it never holds more than a block of the text.
Any other file goes to the row loop, one ``float`` per token. The loop
stays because it states the full language above (``1_000``, non-ASCII
digits, a form feed as a line break) and because it is the only error
reporter, so a malformed file gets the same message and line number
whichever path saw it first.

Spans. Given a command's worker processes (``cv._Workers``), two or more,
``load_matrix`` cuts the body of a file of at least two spans (``_SPAN``
bytes each) into spans of whole lines, which the workers check and parse
by the rules above; ``save_matrix`` formats a float matrix whose text may
reach two spans in spans of rows. The in-process path is one span. Each
span's array is the one numpy gives for those lines alone, so the result
is bit-identical, and a file outside the plain subset still goes to the
row loop whole, whatever span showed it.
"""

import io
import itertools
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .linalg import as_matrix

__all__ = [
    "MatrixFormatError",
    "Dataset",
    "NoiseSpec",
    "FoldSplit",
    "load_matrix",
    "save_matrix",
    "load_dataset",
    "inject_noise",
    "kfold_split",
    "describe",
    "standardize",
    "drop_empty_truth",
]


class MatrixFormatError(ValueError):
    """A matrix file violates the text format; carries path and line number."""

    def __init__(self, path, line_no: int, message: str):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


def _check_binary(Y: np.ndarray, name: str) -> np.ndarray:
    if not np.all((Y == 0.0) | (Y == 1.0)):
        raise ValueError(f"{name} must contain only 0/1 entries")
    return Y


@dataclass
class Dataset:
    """Feature matrix X (n x d), candidate labels Y (n x l, binary), optional truth.

    Every ground-truth label must also be a candidate: Y_true <= Y elementwise.
    """

    X: np.ndarray
    Y: np.ndarray
    Y_true: np.ndarray | None = None
    names: list[str] | None = None

    def __post_init__(self):
        self.X = as_matrix(self.X, "X")
        self.Y = _check_binary(as_matrix(self.Y, "Y"), "Y")
        if self.X.shape[0] != self.Y.shape[0]:
            raise ValueError(
                f"X has {self.X.shape[0]} rows but Y has {self.Y.shape[0]}"
            )
        if self.Y_true is not None:
            self.Y_true = _check_binary(as_matrix(self.Y_true, "Y_true"), "Y_true")
            if self.Y_true.shape != self.Y.shape:
                raise ValueError(
                    f"Y_true shape {self.Y_true.shape} != Y shape {self.Y.shape}"
                )
            if np.any(self.Y_true > self.Y):
                raise ValueError("Y_true must satisfy Y_true <= Y elementwise")
        if self.names is not None and len(self.names) != self.Y.shape[1]:
            raise ValueError("names length must equal the label count")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def l(self) -> int:
        return self.Y.shape[1]


@dataclass(frozen=True)
class NoiseSpec:
    """Per-sample count of noisy labels to add, plus the RNG seed."""

    r: int
    seed: int

    def __post_init__(self):
        if self.r < 0:
            raise ValueError(f"noise count r must be >= 0, got {self.r}")


@dataclass(frozen=True)
class FoldSplit:
    """k-fold assignment: ``assignments[i]`` is the fold index of sample i."""

    k: int
    assignments: np.ndarray = field(repr=False)

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments != fold)


def load_matrix(path, *, binary: bool = False, workers=None) -> np.ndarray:
    """Parse a matrix text file; ``binary=True`` restricts tokens to 0/1.

    ``workers`` (cv._Workers) parse a large plain file in spans; see the module docstring.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"file not found: {path}")
    out = _parse_plain(path, binary, workers)
    if out is None:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        out = _parse_rows(path, lines, binary)
    return out


_BLOCK = 1 << 20  # bytes of text the span parser holds at a time
# the most bytes of text in a span of a file or a matrix. Below two spans a file is parsed in the
# command's process: a worker takes about 0.2 s to start, in which the parent parses 9-14 MB.
_SPAN = 1 << 22
_FLOAT_TEXT = 25  # the most bytes a float takes in save_matrix's text: "-2.2250738585072014e-308" and a separator
_BLANK = b" \t\r\n"
_HEADER_BYTES = b"0123456789" + _BLANK
_FLOAT_BYTES = b"+-.eE" + _HEADER_BYTES
_LABEL_BYTES = b"01" + _BLANK
_LABEL_PAIRS = (b"00", b"01", b"10", b"11")


class _NotPlain(ValueError):
    """A span of the file is outside the plain subset."""


def _span_count(size: int, workers) -> int:
    """How many spans ``size`` bytes of text are cut into: one, or, with two workers or more and
    ``size`` of two spans or more, a multiple of the worker count of spans of at most _SPAN bytes."""
    count = len(workers) if workers is not None else 0
    if count < 2 or size < 2 * _SPAN:
        return 1
    return count * -(-size // (count * _SPAN))


def _parse_plain(path: Path, binary: bool, workers) -> np.ndarray | None:
    """Parse a plain file with numpy, span by span; ``None`` sends it to the row loop.

    Plain means: a header of two ASCII numbers, a body of only the bytes in
    ``_FLOAT_BYTES`` (``_LABEL_BYTES`` with no two digits adjacent for label
    files), CR only before LF, and as many body lines before any trailing
    blank ones as the header says. In that subset numpy and ``float`` both
    parse a token with ``PyOS_string_to_double``, so the values are
    bit-identical; numpy's result must still have the header's shape and be
    finite.
    """
    with open(path, "rb") as fh:
        header = fh.readline()
        tokens = header.split()
        if (len(tokens) != 2 or header.translate(None, _HEADER_BYTES) or not header.endswith(b"\n")
                or header.count(b"\r") != header.count(b"\r\n")):
            return None
        rows, cols = int(tokens[0]), int(tokens[1])
        cuts = _line_cuts(fh, workers)
        try:
            if len(cuts) == 2:
                spans = [_parse_span(fh, cuts[1], binary)]
            else:
                spans = workers.run(_SpanParse(str(path), binary, cuts))
        except _NotPlain:
            return None
    parts = []
    filled = 0  # body lines up to the last one that is not blank
    seen = 0  # line feeds in the spans before this one
    for part, span_filled, span_lines in spans:
        if part is not None:
            if part.shape[1] != cols:
                return None
            parts.append(part)
        if span_filled:
            filled = seen + span_filled
        seen += span_lines
    if not parts or filled != rows or sum(len(part) for part in parts) != rows:
        return None
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _line_cuts(fh, workers) -> list[int]:
    """Offsets that cut the body, from fh's position to the end of the file, into spans of whole
    lines (_span_count of them, or fewer where lines are long), the first and the last included."""
    start = fh.tell()
    end = fh.seek(0, os.SEEK_END)
    count = _span_count(end - start, workers)
    cuts = [start]
    for i in range(1, count):
        fh.seek(start + (end - start) * i // count - 1)
        fh.readline()  # to the start of the next line
        if cuts[-1] < fh.tell() < end:
            cuts.append(fh.tell())
    fh.seek(start)
    return [*cuts, end]


def _parse_span(fh, stop: int, binary: bool) -> tuple:
    """Parse the body lines from fh's position up to byte ``stop``, a line start or the end of the file.

    Returns (array, filled, lines): ``array`` is numpy's, or None when every line is blank,
    ``filled`` counts the lines up to the last one that is not blank and ``lines`` the line
    feeds. Raises _NotPlain when the span is outside the plain subset (see _parse_plain) or
    has a blank line before a data line.
    """
    allowed = _LABEL_BYTES if binary else _FLOAT_BYTES
    filled = seen = 0

    def body_lines():
        nonlocal filled, seen
        while (left := stop - fh.tell()) > 0:
            block = fh.read(min(_BLOCK, left))
            if fh.tell() < stop:
                block += fh.readline()  # the rest of the last line, which ends by ``stop``
            if (block.translate(None, allowed)
                    or b"\r" in block and block.count(b"\r") != block.count(b"\r\n")
                    or binary and any(pair in block for pair in _LABEL_PAIRS)):
                raise _NotPlain
            text = block.rstrip(_BLANK)
            if text:
                filled = seen + text.count(b"\n") + 1
            seen += block.count(b"\n")
            yield from io.BytesIO(block)

    lines = body_lines()
    # a data line comes first, so numpy never sees an empty input
    first = next(lines, b"")
    if not first.strip():
        for _ in lines:  # checks and counts the rest, which must be blank
            pass
        if filled:
            raise _NotPlain
        return None, 0, seen
    try:
        out = np.loadtxt(itertools.chain([first], lines), comments=None, ndmin=2)
    except ValueError:  # numpy's parse errors
        raise _NotPlain from None
    if not np.isfinite(out).all():
        raise _NotPlain
    return out, filled, seen


@dataclass(frozen=True)
class _SpanParse:
    """A worker job (cv._Workers.run): _parse_span of each span between consecutive ``cuts``."""

    path: str
    binary: bool
    cuts: list

    @property
    def units(self) -> range:
        return range(len(self.cuts) - 1)

    def run_unit(self, unit: int) -> tuple:
        with open(self.path, "rb") as fh:
            fh.seek(self.cuts[unit])
            return _parse_span(fh, self.cuts[unit + 1], self.binary)


def _parse_rows(path: Path, lines: list[str], binary: bool) -> np.ndarray:
    """The general parser and the only error reporter: one ``float`` per token."""
    if not lines:
        raise MatrixFormatError(path, 1, "empty file; expected '<rows> <cols>' header")
    header = lines[0].split()
    if len(header) != 2 or not all(tok.isascii() and tok.isdigit() for tok in header):
        raise MatrixFormatError(path, 1, f"malformed header {lines[0]!r}; expected '<rows> <cols>'")
    rows, cols = int(header[0]), int(header[1])
    if rows < 1 or cols < 1:
        raise MatrixFormatError(path, 1, f"dimensions must be positive, got {rows} x {cols}")

    body = lines[1:]
    # tolerate blank lines only at EOF
    while body and not body[-1].strip():
        body.pop()
    if len(body) != rows:
        raise MatrixFormatError(
            path, len(lines), f"row count mismatch: header says {rows}, body has {len(body)}"
        )

    out = np.empty((rows, cols), dtype=np.float64)
    for i, line in enumerate(body):
        line_no = i + 2
        tokens = line.split()
        if len(tokens) != cols:
            raise MatrixFormatError(
                path, line_no, f"expected {cols} values, found {len(tokens)}"
            )
        if binary:
            for tok in tokens:
                if tok != "0" and tok != "1":
                    raise MatrixFormatError(
                        path, line_no, f"label entry must be 0 or 1, got {tok!r}"
                    )
            out[i] = [float(t) for t in tokens]
        else:
            try:
                out[i] = [float(t) for t in tokens]
            except ValueError:
                bad = next(t for t in tokens if not _is_float(t))
                raise MatrixFormatError(path, line_no, f"non-numeric token {bad!r}") from None
            if not np.isfinite(out[i]).all():
                raise MatrixFormatError(path, line_no, "non-finite value")
    return out


def _is_float(tok: str) -> bool:
    try:
        float(tok)
    except ValueError:
        return False
    return True


def save_matrix(path, a, *, binary: bool = False, workers=None) -> None:
    """Write a matrix in the text format; floats use shortest round-trip repr.

    ``workers`` (cv._Workers) format a large float matrix in spans of rows; see the module docstring.
    """
    A = as_matrix(a)
    if binary:
        _check_binary(A, "matrix")
        # each entry is one digit and one separator, the row's last one a newline
        cells = np.full((A.shape[0], 2 * A.shape[1]), ord(" "), dtype=np.uint8)
        cells[:, ::2] = A + ord("0")
        cells[:, -1] = ord("\n")
        spans = [cells.tobytes()]
    else:
        count = min(A.shape[0], _span_count(A.size * _FLOAT_TEXT, workers))
        spans = [_format_rows(A)] if count == 1 else workers.run(_RowFormat(A, count))
    with open(path, "wb") as fh:
        fh.write(f"{A.shape[0]} {A.shape[1]}\n".encode("ascii"))
        fh.writelines(spans)


def _format_rows(A: np.ndarray) -> bytes:
    return "".join([" ".join(map(repr, row)) + "\n" for row in A.tolist()]).encode("ascii")


@dataclass(frozen=True)
class _RowFormat:
    """A worker job (cv._Workers.run): _format_rows of each of ``count`` near-equal spans of A's rows."""

    A: np.ndarray
    count: int

    @property
    def units(self) -> range:
        return range(self.count)

    def run_unit(self, unit: int) -> bytes:
        rows = self.A.shape[0]
        return _format_rows(self.A[rows * unit // self.count:rows * (unit + 1) // self.count])


def load_dataset(
    features,
    labels,
    truth=None,
    *,
    standardize_features: bool = False,
    filter_empty_truth: bool = False,
    workers=None,
) -> Dataset:
    """Load a dataset from its on-disk file pair (plus optional truth file); ``workers`` as for
    load_matrix."""
    X = load_matrix(features, workers=workers)
    Y = load_matrix(labels, binary=True, workers=workers)
    Y_true = load_matrix(truth, binary=True, workers=workers) if truth is not None else None
    ds = Dataset(X=X, Y=Y, Y_true=Y_true)
    if filter_empty_truth:
        ds = drop_empty_truth(ds)
    if standardize_features:
        ds = Dataset(X=standardize(ds.X), Y=ds.Y, Y_true=ds.Y_true, names=ds.names)
    return ds


def drop_empty_truth(ds: Dataset) -> Dataset:
    """Drop samples whose ground-truth row is all-zero."""
    if ds.Y_true is None:
        raise ValueError("filter-empty-truth requires a ground-truth matrix")
    keep = ds.Y_true.sum(axis=1) > 0
    if not np.any(keep):
        raise ValueError("every sample has empty ground truth; nothing left")
    return Dataset(X=ds.X[keep], Y=ds.Y[keep], Y_true=ds.Y_true[keep], names=ds.names)


def inject_noise(truth, spec: NoiseSpec) -> np.ndarray:
    """Add ``spec.r`` noisy labels per sample by flipping 0 -> 1 in each row.

    Flip positions are drawn uniformly without replacement from the row's
    zero entries (partial Fisher-Yates over the zero-index list, PCG64 seeded
    with ``spec.seed``, rows consumed in order). Rows with fewer than r zeros
    receive all of them; ground-truth labels are never removed.
    """
    T = _check_binary(as_matrix(truth, "truth"), "truth")
    rng = np.random.default_rng(spec.seed)
    Y = T.copy()
    for i in range(T.shape[0]):
        zeros = np.flatnonzero(T[i] == 0.0)
        k = min(spec.r, zeros.size)
        if k > 0:
            Y[i, rng.permutation(zeros)[:k]] = 1.0
    return Y


def kfold_split(n: int, k: int, seed: int) -> FoldSplit:
    """Seeded k-fold partition of range(n); fold sizes differ by at most one."""
    if k < 2:
        raise ValueError(f"fold count must be >= 2, got {k}")
    if n < k:
        raise ValueError(f"cannot split {n} samples into {k} folds")
    perm = np.random.default_rng(seed).permutation(n)
    assignments = np.empty(n, dtype=np.int64)
    start = 0
    for fold in range(k):
        size = n // k + (1 if fold < n % k else 0)
        assignments[perm[start : start + size]] = fold
        start += size
    return FoldSplit(k=k, assignments=assignments)


def describe(ds: Dataset) -> dict:
    """Size summary: n, d, l, mean candidate labels per sample, mean true labels."""
    out = {
        "n": ds.n,
        "d": ds.d,
        "l": ds.l,
        "avg_candidate_labels": float(ds.Y.sum(axis=1).mean()),
    }
    if ds.Y_true is not None:
        out["avg_true_labels"] = float(ds.Y_true.sum(axis=1).mean())
    return out


def standardize(X) -> np.ndarray:
    """Center each column and scale to unit population variance; constant columns map to zero."""
    A = as_matrix(X)
    mu = A.mean(axis=0)
    sd = A.std(axis=0)
    out = A - mu
    nonzero = sd > 0
    out[:, nonzero] /= sd[nonzero]
    out[:, ~nonzero] = 0.0
    return out

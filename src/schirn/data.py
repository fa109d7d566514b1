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
numpy. It reads the bytes once, a span of whole lines at a time that it
checks before numpy sees it, so it never holds more than a span of the text.
Any other file goes to the row loop, one ``float`` per token. The loop
stays because it states the full language above (``1_000``, non-ASCII
digits, a form feed as a line break) and because it is the only error
reporter, so a malformed file gets the same message and line number
whichever path saw it first.

Spans. ``load_matrix`` cuts the body of a file into spans of whole lines,
each of at most ``_SPAN`` bytes plus the rest of its last line, and
``save_matrix`` formats a float matrix in spans of rows whose text stays
within ``_SPAN`` bytes. Each is a job of one function and its argument
tuples, one tuple per span: given a command's worker processes
(``cv._Workers``), two or more, and text of two spans or more, the workers'
``starmap`` runs it; otherwise ``itertools.starmap`` runs it in the
command's process, in order. Either yields the spans' results in order,
each as it is ready. Each span's array is the one numpy gives for those
lines alone, so the result is bit-identical, and a file outside the plain
subset still goes to the row loop whole, whatever span showed it.
"""

import io
import os
from dataclasses import dataclass, field
from itertools import starmap
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


# the most bytes of text in a span of a file or a matrix. Below two spans the command's process
# runs the spans: a worker takes about 0.2 s to start, in which the parent parses 9-14 MB.
_SPAN = 1 << 22
_FLOAT_TEXT = 25  # the most bytes a float takes in save_matrix's text: "-2.2250738585072014e-308" and a separator
_BLANK = b" \t\r\n"
_HEADER_BYTES = b"0123456789" + _BLANK
_FLOAT_BYTES = b"+-.eE" + _HEADER_BYTES
_LABEL_BYTES = b"01" + _BLANK
_LABEL_PAIRS = (b"00", b"01", b"10", b"11")


class _NotPlain(ValueError):
    """A span of the file is outside the plain subset."""


def _spans(size: int, workers) -> tuple:
    """(count, starmap): how many spans ``size`` bytes of text are cut into, and what runs a job
    of them. With two workers or more and ``size`` of two spans or more, the workers run a
    multiple of their count of spans of at most _SPAN bytes; otherwise itertools.starmap runs
    spans of at most _SPAN bytes in this process, one at a time."""
    count = len(workers) if workers is not None else 0
    if count < 2 or size < 2 * _SPAN:
        return -(-size // _SPAN), starmap
    return count * -(-size // (count * _SPAN)), workers.starmap


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
        start = fh.tell()
        end = fh.seek(0, os.SEEK_END)
        # every value takes a byte or more, so a larger header is the row loop's error, not an allocation
        if not 0 < rows * cols <= end - start:
            return None
        count, run = _spans(end - start, workers)
        cuts = _line_cuts(fh, start, end, count)
    body = np.empty((rows, cols)) if len(cuts) > 2 else None  # a lone span's array is the result
    done = 0  # rows filled
    filled = 0  # body lines up to the last one that is not blank
    seen = 0  # line feeds in the spans before this one
    try:
        for part, span_filled, span_lines in run(_parse_span, [(str(path), *cut, binary)
                                                               for cut in zip(cuts, cuts[1:])]):
            if part is not None:
                if part.shape[1] != cols or done + len(part) > rows:
                    return None
                if body is None:
                    body = part
                else:
                    body[done:done + len(part)] = part
                done += len(part)
            del part  # so that no span's array outlives its copy
            if span_filled:
                filled = seen + span_filled
            seen += span_lines
    except _NotPlain:
        return None
    return body if done == filled == rows else None


def _line_cuts(fh, start: int, end: int, count: int) -> list[int]:
    """Offsets that cut bytes ``start`` (a line start) to ``end`` (the end) of the file into
    ``count`` spans of whole lines, or fewer where lines are long, the first and the last included."""
    cuts = [start]
    for i in range(1, count):
        fh.seek(start + (end - start) * i // count - 1)
        fh.readline()  # to the start of the next line
        if cuts[-1] < fh.tell() < end:
            cuts.append(fh.tell())
    return [*cuts, end]


def _parse_span(path: str, start: int, stop: int, binary: bool) -> tuple:
    """Parse the body lines from byte ``start`` to byte ``stop``, each a line start or the file's end.

    Returns (array, filled, lines): ``array`` is numpy's, or None when every line is blank,
    ``filled`` counts the lines up to the last one that is not blank and ``lines`` the line
    feeds; numpy skips blank lines, so ``filled`` is the array's length only when no blank line
    comes before a data line. Raises _NotPlain when the span is outside the plain subset (see
    _parse_plain).
    """
    with open(path, "rb") as fh:
        fh.seek(start)
        text = fh.read(stop - start)
    if (text.translate(None, _LABEL_BYTES if binary else _FLOAT_BYTES)
            or b"\r" in text and text.count(b"\r") != text.count(b"\r\n")
            or binary and any(pair in text for pair in _LABEL_PAIRS)):
        raise _NotPlain
    lines = text.count(b"\n")
    if text.isspace():  # numpy warns on an empty input
        return None, 0, lines
    # numpy takes no token without a digit, so the last digit is on the last line that is not blank
    filled = text.count(b"\n", 0, max(map(text.rfind, b"0123456789"))) + 1
    try:
        out = np.loadtxt(io.BytesIO(text), comments=None, ndmin=2)
    except ValueError:  # numpy's parse errors
        raise _NotPlain from None
    del text  # before the finiteness check's temporary
    if not np.isfinite(out).all():
        raise _NotPlain
    return out, filled, lines


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
        count, run = _spans(A.size * _FLOAT_TEXT, workers)
        spans = run(_format_rows, [(rows,) for rows in np.array_split(A, min(A.shape[0], count))])
    with open(path, "wb") as fh:
        fh.write(f"{A.shape[0]} {A.shape[1]}\n".encode("ascii"))
        fh.writelines(spans)


def _format_rows(A: np.ndarray) -> bytes:
    return "".join([" ".join(map(repr, row)) + "\n" for row in A.tolist()]).encode("ascii")


def load_dataset(
    features,
    labels,
    truth=None,
    *,
    standardize_features: bool = False,
    filter_empty_truth: bool = False,
    noise: NoiseSpec | None = None,
    workers=None,
) -> Dataset:
    """Load a dataset from its on-disk file pair (plus optional truth file); ``workers`` as for
    load_matrix. With ``noise`` of r > 0 the candidates are the truth with that noise injected,
    after the empty-truth filter, and ``labels`` is not read."""
    noisy = noise is not None and noise.r > 0
    if noisy and truth is None:
        raise ValueError("noise injection (r > 0) requires a ground-truth file")
    X = load_matrix(features, workers=workers)
    Y = None if noisy else load_matrix(labels, binary=True, workers=workers)
    Y_true = load_matrix(truth, binary=True, workers=workers) if truth is not None else None
    ds = Dataset(X=X, Y=Y_true if noisy else Y, Y_true=Y_true)
    if filter_empty_truth:
        ds = drop_empty_truth(ds)
    if noisy:
        ds = Dataset(X=ds.X, Y=inject_noise(ds.Y_true, noise), Y_true=ds.Y_true)
    if standardize_features:
        ds = Dataset(X=standardize(ds.X), Y=ds.Y, Y_true=ds.Y_true)
    return ds


def drop_empty_truth(ds: Dataset) -> Dataset:
    """Drop samples whose ground-truth row is all-zero."""
    if ds.Y_true is None:
        raise ValueError("filter-empty-truth requires a ground-truth matrix")
    keep = ds.Y_true.sum(axis=1) > 0
    if not np.any(keep):
        raise ValueError("every sample has empty ground truth; nothing left")
    return Dataset(X=ds.X[keep], Y=ds.Y[keep], Y_true=ds.Y_true[keep])


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

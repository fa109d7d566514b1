import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import schirn.data
from schirn.cli import main
from schirn.data import (
    Dataset,
    MatrixFormatError,
    NoiseSpec,
    describe,
    drop_empty_truth,
    inject_noise,
    kfold_split,
    load_dataset,
    load_matrix,
    save_matrix,
    standardize,
)
from schirn.linalg import as_matrix


# The row-by-row reader and writer as they were before the bulk path, kept
# verbatim as the oracles for the token language, the error reports and the
# output bytes.

def reference_load_matrix(path, *, binary: bool = False) -> np.ndarray:
    """Parse a matrix text file; ``binary=True`` restricts tokens to 0/1."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
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


def reference_save_matrix(path, a, *, binary: bool = False) -> None:
    """Write a matrix in the text format; floats use shortest round-trip repr."""
    A = as_matrix(a)
    if binary:
        schirn.data._check_binary(A, "matrix")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{A.shape[0]} {A.shape[1]}\n")
        for row in A.tolist():
            if binary:
                fh.write(" ".join(str(int(v)) for v in row))
            else:
                fh.write(" ".join(map(repr, row)))
            fh.write("\n")


def outcome(load, path, binary):
    """What a reader makes of a file: the array's bytes, or the error it reports."""
    try:
        A = load(path, binary=binary)
    except ValueError as exc:  # MatrixFormatError, and UnicodeDecodeError
        return type(exc), str(exc), getattr(exc, "line_no", None)
    return A.shape, A.tobytes()


def assert_same_as_reference(path, binary):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # neither reader may warn, e.g. numpy on an empty body
        got = outcome(load_matrix, path, binary)
        assert got == outcome(reference_load_matrix, path, binary)
    return got


class TestLoadMatrix:
    def test_basic_binary(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("2 3\n1 0 1\n0 1 0\n")
        M = load_matrix(p, binary=True)
        assert M.shape == (2, 3)
        assert np.array_equal(M, [[1, 0, 1], [0, 1, 0]])

    def test_label_file_rejects_fraction(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("1 1\n0.5\n")
        with pytest.raises(MatrixFormatError) as exc:
            load_matrix(p, binary=True)
        assert exc.value.line_no == 2

    def test_row_count_mismatch(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("2 2\n1 0\n")
        with pytest.raises(MatrixFormatError, match="row count mismatch"):
            load_matrix(p, binary=True)

    def test_column_count_mismatch(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("1 3\n1 0\n")
        with pytest.raises(MatrixFormatError, match="expected 3 values"):
            load_matrix(p)

    def test_non_numeric_token(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("1 2\n1.0 abc\n")
        with pytest.raises(MatrixFormatError, match="non-numeric token 'abc'"):
            load_matrix(p)

    def test_rejects_nan_and_inf_tokens(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("1 2\nnan 1.0\n")
        with pytest.raises(MatrixFormatError, match="non-finite"):
            load_matrix(p)
        p.write_text("1 2\n1.0 inf\n")
        with pytest.raises(MatrixFormatError, match="non-finite"):
            load_matrix(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="file not found"):
            load_matrix(tmp_path / "absent.txt")

    def test_crlf_and_no_trailing_newline(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_bytes(b"2 2\r\n1.5 2.5\r\n-3.0 4e-2")
        M = load_matrix(p)
        assert np.allclose(M, [[1.5, 2.5], [-3.0, 0.04]])

    def test_scientific_notation(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("1 3\n1e3 -2.5E-4 0.125\n")
        assert np.allclose(load_matrix(p), [[1000.0, -0.00025, 0.125]])

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("two 3\n1 2 3\n")
        with pytest.raises(MatrixFormatError, match="header"):
            load_matrix(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("")
        with pytest.raises(MatrixFormatError, match="empty file"):
            load_matrix(p)

    def test_zero_dimension_header(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("0 5\n")
        with pytest.raises(MatrixFormatError, match="positive"):
            load_matrix(p)

    def test_trailing_blank_lines_tolerated(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("2 2\n1.0 2.0\n3.0 4.0\n\n\n")
        assert np.allclose(load_matrix(p), [[1.0, 2.0], [3.0, 4.0]])


class TestSaveLoadRoundTrip:
    def test_float_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((7, 4)) * 10.0 ** rng.integers(-8, 8, size=(7, 4))
        p = tmp_path / "m.txt"
        save_matrix(p, A)
        assert np.array_equal(load_matrix(p), A)

    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        Y = (rng.random((5, 9)) < 0.4).astype(float)
        p = tmp_path / "y.txt"
        save_matrix(p, Y, binary=True)
        assert np.array_equal(load_matrix(p, binary=True), Y)

    @settings(max_examples=25, deadline=None)
    @given(A=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
                        elements=st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False)))
    def test_round_trip_property(self, A, tmp_path_factory):
        p = tmp_path_factory.mktemp("rt") / "m.txt"
        save_matrix(p, A)
        assert np.array_equal(load_matrix(p), A)


_SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
                   1e300, -1e300, 1.7976931348623157e308, 0.1, 1e16, 1e-5, 123456789.0]
_SHAPES = hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6)


class TestWriterBytes:
    """``save_matrix`` writes the same bytes as the per-row writer it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(A=hnp.arrays(np.float64, _SHAPES, elements=st.one_of(
        st.sampled_from(_SPECIAL_VALUES), st.floats(allow_nan=False, allow_infinity=False))))
    def test_float_bytes(self, A, tmp_path_factory):
        d = tmp_path_factory.mktemp("w")
        save_matrix(d / "new.txt", A)
        reference_save_matrix(d / "old.txt", A)
        assert (d / "new.txt").read_bytes() == (d / "old.txt").read_bytes()

    @settings(max_examples=40, deadline=None)
    @given(A=hnp.arrays(np.float64, _SHAPES, elements=st.sampled_from([0.0, -0.0, 1.0])))
    def test_binary_bytes(self, A, tmp_path_factory):
        d = tmp_path_factory.mktemp("w")
        save_matrix(d / "new.txt", A, binary=True)
        reference_save_matrix(d / "old.txt", A, binary=True)
        assert (d / "new.txt").read_bytes() == (d / "old.txt").read_bytes()

    def test_binary_rejects_other_values(self, tmp_path):
        with pytest.raises(ValueError, match="0/1"):
            save_matrix(tmp_path / "y.txt", np.array([[0.0, 2.0]]), binary=True)
        assert not (tmp_path / "y.txt").exists()


# Tokens at the edges of Python's float() language: underscores, words,
# signs, bare exponents, hex, overflow, non-ASCII decimal digits.
_TOKENS = [
    "0", "1", "-0", "+0", "00", "01", "10", "1.5", "+.5", "5.", ".5", "-.5e-3", "1e5", "1E+05",
    "1e", "e5", ".", "-", "+", "+-1", "1.2.3", "1e5.0", "1_000", "1__0", "_1", "1_", "nan", "NaN",
    "-nan", "inf", "-inf", "infinity", "+Infinity", "0x10", "0x1p3", "1e400", "-1e400", "1e-400",
    "4.9e-324", "1.7976931348623157e308", "1.7976931348623159e308", "١٢٣", "٣.٥", "１２", "-１",
    "1٣", "²", "½",
]
_TOKEN = st.one_of(
    st.sampled_from(_TOKENS),
    st.floats().map(repr),
    st.floats(allow_nan=False).map("{:.3E}".format),
    st.text(alphabet="0123456789+-.eE_xinfa١３", min_size=1, max_size=8),
)


class TestTokenLanguage:
    """One token, read by the bulk path or the row loop: the same value or the same error."""

    @pytest.mark.parametrize("binary", [False, True])
    @pytest.mark.parametrize("token", _TOKENS)
    def test_edge_tokens(self, tmp_path, token, binary):
        p = tmp_path / "m.txt"
        p.write_text(f"1 1\n{token}\n", encoding="utf-8")
        assert_same_as_reference(p, binary)

    def test_the_language_is_python_float(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("1 3\n1_000 ١٢ -0\n", encoding="utf-8")
        A = load_matrix(p)
        assert A.tolist() == [[1000.0, 12.0, 0.0]] and np.signbit(A[0, 2])
        p.write_text("1 1\ninfinity\n", encoding="utf-8")
        with pytest.raises(MatrixFormatError, match="non-finite"):
            load_matrix(p)

    @settings(max_examples=200, deadline=None)
    @given(token=_TOKEN, binary=st.booleans())
    def test_single_token(self, token, binary, tmp_path_factory):
        d = tmp_path_factory.mktemp("tok")
        (d / "alone.txt").write_text(f"1 1\n{token}\n", encoding="utf-8")
        (d / "row.txt").write_text(f"1 3\n1 {token} 0\n", encoding="utf-8")
        assert_same_as_reference(d / "alone.txt", binary)
        assert_same_as_reference(d / "row.txt", binary)


_SEPARATORS = [" ", "\t", "\x0b", "\x0c", "\x1c", "\u2003", "\x85"]
_HEADERS = ["{r} {c}", "{r}\t{c}", "  {r}  {c} ", "0{r} {c}", "{r} {c} 1", "{r},{c}", "{r}",
            "{r1} {c}", "{r} {c1}", "0 {c}", "{r} -{c}", "{r}\x0b{c}", "{r}\x1c{c}"]


@st.composite
def matrix_files(draw):
    """(file bytes, binary): a small matrix in one of many layouts, most of them plain."""
    binary = draw(st.booleans())
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if binary:
        cell = st.sampled_from(["0", "1"])
    else:
        cell = st.one_of(
            st.floats(allow_nan=False, allow_infinity=False).map(repr),
            st.floats(allow_nan=False, allow_infinity=False).map("{:.4e}".format),
            st.sampled_from(["1e400", "-1e400", "+.5", "5.", "-0", "0", "7"]),
        )
    sep = st.one_of(st.just(" "), st.text(alphabet=_SEPARATORS, min_size=1, max_size=3))
    margin = st.sampled_from(["", "", " ", "\t", "\x0c"])
    ending = st.sampled_from(["\n", "\n", "\r\n", "\r"])
    blank = st.tuples(st.text(alphabet=" \t", max_size=2), ending).map("".join)
    header = draw(st.sampled_from(_HEADERS)).format(r=rows, c=cols, r1=rows + 1, c1=cols + 1)
    lines = [header + draw(ending)]
    for _ in range(rows):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(blank))
        tokens = draw(st.lists(cell, min_size=cols, max_size=cols))
        line = draw(margin)
        for i, tok in enumerate(tokens):
            line += (draw(sep) if i else "") + tok
        lines.append(line + draw(margin) + draw(ending))
    lines += draw(st.lists(blank, max_size=2))
    text = "".join(lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    if draw(st.integers(0, 9)) == 0:
        text = "\ufeff" + text
    return text.encode("utf-8"), binary


class TestFileLayouts:
    """Whole files: bit-identical arrays, or the same error message and line number."""

    @settings(max_examples=300, deadline=None)
    @given(case=matrix_files(), block=st.sampled_from([1, 7, 64, schirn.data._BLOCK]))
    def test_same_outcome_as_the_row_loop(self, case, block, tmp_path_factory):
        raw, binary = case
        p = tmp_path_factory.mktemp("layout") / "m.txt"
        p.write_bytes(raw)
        with mock.patch.object(schirn.data, "_BLOCK", block):
            assert_same_as_reference(p, binary)

    @pytest.mark.parametrize("raw", [
        b"", b"\n", b"1 1", b"1 1\n", b"1 1\n\n", b"1 1\n \n2\n", b"\xef\xbb\xbf1 1\n2\n", b"1 1\n\xff\n",
        b"1 1\n2\x00\n", b"1 1\n2\r\r\n", b"1 1\r2\n", b"2 1\n1\r2\n", b"1 2\n1\x0b2\n", b"1 1\n-\n",
        b"1 1\n1e400\n", b"1\x0b1\n1\n", b"1\x0c1\n1\n", b"1\r1\n1\n", b"2 2\n\n\n", b"1 1\n\n1\n", b"1 1\n\xe2\x80\x832\n", b"99999999999999999999 1\n1\n",
    ])
    @pytest.mark.parametrize("binary", [False, True])
    def test_edge_files(self, tmp_path, raw, binary):
        p = tmp_path / "m.txt"
        p.write_bytes(raw)
        assert_same_as_reference(p, binary)


# (file bytes, exit code of ``eval`` against a 2x2 truth file)
_CORPUS = {
    "plain": (b"2 2\n0.5 0.25\n0.75 1e-3\n", 0),
    "crlf_no_final_newline": (b"2 2\r\n0.5 0.25\r\n0.75 1e-3", 0),
    "lone_cr": (b"2 2\r0.5 0.25\r0.75 1e-3\r", 0),
    "underscore_digit": (b"2 2\n0.5 1_0\n0.75 1e-3\n", 0),
    "ragged": (b"2 2\n0.5 0.25\n0.75\n", 2),
    "nan": (b"2 2\n0.5 nan\n0.75 1e-3\n", 2),
    "overflow": (b"2 2\n0.5 0.25\n1e400 1e-3\n", 2),
    "bom": (b"\xef\xbb\xbf2 2\n0.5 0.25\n0.75 1e-3\n", 2),
    "blank_in_body": (b"2 2\n0.5 0.25\n\n0.75 1e-3\n", 2),
    "form_feed": (b"2 2\n0.5\x0c0.25\n0.75 1e-3\n", 2),
    "bad_utf8": (b"2 2\n0.5 0.25\n0.75 \xff\n", 2),
    "word": (b"2 2\n0.5 0.25\n0.75 abc\n", 2),
    "header": (b"2 x\n0.5 0.25\n0.75 1e-3\n", 2),
    "short": (b"3 2\n0.5 0.25\n0.75 1e-3\n", 2),
    "empty": (b"", 2),
}


class TestCliExitCodes:
    """The CLI's exit code, and a format error's message, on a small malformed corpus.

    Exit code 1 is for numerical failures, which no file content causes; see
    ``TestFit::test_numerical_failure_exits_1`` in the CLI tests.
    """

    @pytest.mark.parametrize("name", sorted(_CORPUS))
    def test_eval_exit_code(self, tmp_path, capsys, name):
        raw, code = _CORPUS[name]
        save_matrix(tmp_path / "t.txt", np.array([[1.0, 0.0], [0.0, 1.0]]), binary=True)
        scores = tmp_path / "s.txt"
        scores.write_bytes(raw)
        rc = main(["eval", "--scores", str(scores), "--truth", str(tmp_path / "t.txt"),
                   "--out", str(tmp_path / "r.json")])
        assert rc == code
        err = capsys.readouterr().err
        if code == 0:
            assert err == "" and (tmp_path / "r.json").is_file()
        else:
            with pytest.raises(ValueError) as expected:
                reference_load_matrix(scores)
            assert err == f"error: {expected.value}\n"


class TestBulkPath:
    """Files ``save_matrix`` writes never reach the row loop, whose cost the bulk path removes."""

    @pytest.fixture
    def no_row_loop(self, monkeypatch):
        def fail(path, lines, binary):
            raise AssertionError(f"{path} went through the row loop")

        monkeypatch.setattr(schirn.data, "_parse_rows", fail)

    @pytest.mark.parametrize("block", [16, schirn.data._BLOCK])
    @pytest.mark.parametrize("layout", ["as_written", "crlf", "no_final_newline", "trailing_blank_lines"])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (13, 5), (12, 11)])
    @pytest.mark.parametrize("binary", [False, True])
    def test_saved_files_skip_the_row_loop(self, tmp_path, monkeypatch, no_row_loop, binary, shape, layout, block):
        monkeypatch.setattr(schirn.data, "_BLOCK", block)
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        if binary:
            A = (rng.random(shape) < 0.5).astype(float)
        else:
            A = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
            A.flat[0], A.flat[-1] = -0.0, 5e-324
        p = tmp_path / "m.txt"
        save_matrix(p, A, binary=binary)
        raw = p.read_bytes()
        p.write_bytes({
            "as_written": raw,
            "crlf": raw.replace(b"\n", b"\r\n"),
            "no_final_newline": raw[:-1],
            "trailing_blank_lines": raw + b"\n \t\r\n\n",
        }[layout])
        assert load_matrix(p, binary=binary).tobytes() == A.tobytes()

    def test_other_files_reach_the_row_loop(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(schirn.data, "_parse_rows",
                            lambda path, lines, binary: seen.append(lines) or np.ones((1, 1)))
        p = tmp_path / "m.txt"
        p.write_text("1 1\n1_000\n")
        load_matrix(p)
        assert seen == [["1 1", "1_000"]]


class TestDataset:
    def test_rejects_truth_outside_candidates(self):
        X = np.ones((2, 2))
        Y = np.array([[1.0, 0.0], [1.0, 1.0]])
        Y_true = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="Y_true"):
            Dataset(X=X, Y=Y, Y_true=Y_true)

    def test_rejects_non_binary_labels(self):
        with pytest.raises(ValueError, match="0/1"):
            Dataset(X=np.ones((1, 2)), Y=np.array([[0.5, 1.0]]))

    def test_rejects_row_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            Dataset(X=np.ones((3, 2)), Y=np.ones((2, 2)))

    def test_load_dataset_pair(self, tmp_path):
        save_matrix(tmp_path / "x.txt", np.arange(6.0).reshape(3, 2))
        save_matrix(tmp_path / "y.txt", np.array([[1.0, 0], [0, 1], [1, 1]]), binary=True)
        ds = load_dataset(tmp_path / "x.txt", tmp_path / "y.txt")
        assert ds.n == 3 and ds.d == 2 and ds.l == 2
        assert ds.Y_true is None

    def test_load_dataset_standardizes_after_filtering(self, tmp_path):
        X = np.array([[1.0, 5.0], [3.0, 5.0], [100.0, 100.0]])
        Y = np.array([[1.0, 0], [0, 1], [1, 1]])
        T = np.array([[1.0, 0], [0, 1], [0, 0]])
        save_matrix(tmp_path / "x.txt", X)
        save_matrix(tmp_path / "y.txt", Y, binary=True)
        save_matrix(tmp_path / "t.txt", T, binary=True)
        ds = load_dataset(tmp_path / "x.txt", tmp_path / "y.txt", tmp_path / "t.txt",
                          standardize_features=True, filter_empty_truth=True)
        # the third sample drops first, so its outlier never enters the stats
        assert ds.n == 2
        assert np.allclose(ds.X, [[-1.0, 0.0], [1.0, 0.0]])

    def test_names_length_validated(self):
        with pytest.raises(ValueError, match="names"):
            Dataset(X=np.ones((1, 2)), Y=np.ones((1, 3)), names=["a", "b"])
        ds = Dataset(X=np.ones((1, 2)), Y=np.ones((1, 3)), names=["a", "b", "c"])
        assert ds.names == ["a", "b", "c"]

    def test_drop_empty_truth(self):
        ds = Dataset(
            X=np.arange(8.0).reshape(4, 2),
            Y=np.array([[1.0, 1], [1, 0], [0, 1], [1, 1]]),
            Y_true=np.array([[1.0, 0], [0, 0], [0, 1], [0, 0]]),
        )
        kept = drop_empty_truth(ds)
        assert kept.n == 2
        assert np.array_equal(kept.X, ds.X[[0, 2]])

    def test_drop_empty_truth_requires_truth(self):
        ds = Dataset(X=np.ones((2, 1)), Y=np.ones((2, 2)))
        with pytest.raises(ValueError):
            drop_empty_truth(ds)

    def test_drop_empty_truth_rejects_all_empty(self):
        ds = Dataset(X=np.ones((2, 1)), Y=np.ones((2, 2)), Y_true=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="nothing left"):
            drop_empty_truth(ds)

    def test_rejects_truth_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            Dataset(X=np.ones((2, 1)), Y=np.ones((2, 2)), Y_true=np.ones((2, 3)))


class TestInjectNoise:
    def test_saturated_row_unchanged(self):
        truth = np.array([[1.0, 1.0, 1.0]])
        out = inject_noise(truth, NoiseSpec(r=2, seed=0))
        assert np.array_equal(out, truth)

    def test_all_negatives_consumed(self):
        truth = np.array([[1.0, 0.0, 0.0, 0.0]])
        out = inject_noise(truth, NoiseSpec(r=4, seed=0))
        assert np.array_equal(out, np.ones((1, 4)))

    def test_exactly_one_per_row_and_deterministic(self):
        rng = np.random.default_rng(9)
        truth = (rng.random((3, 4)) < 0.4).astype(float)
        a = inject_noise(truth, NoiseSpec(r=1, seed=123))
        b = inject_noise(truth, NoiseSpec(r=1, seed=123))
        assert np.array_equal(a, b)
        added = a - truth
        expected = np.minimum(1, 4 - truth.sum(axis=1))
        assert np.array_equal(added.sum(axis=1), expected)

    def test_different_seeds_differ(self):
        truth = np.zeros((20, 10))
        a = inject_noise(truth, NoiseSpec(r=2, seed=1))
        b = inject_noise(truth, NoiseSpec(r=2, seed=2))
        assert not np.array_equal(a, b)

    def test_rejects_negative_r(self):
        with pytest.raises(ValueError):
            NoiseSpec(r=-1, seed=0)

    @settings(max_examples=40, deadline=None)
    @given(
        hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=8),
                   elements=st.sampled_from([0.0, 1.0])),
        st.integers(0, 10),
        st.integers(0, 2**32 - 1),
    )
    def test_invariants(self, truth, r, seed):
        out = inject_noise(truth, NoiseSpec(r=r, seed=seed))
        added = out - truth
        assert np.all(truth <= out)
        assert set(np.unique(added)) <= {0.0, 1.0}
        zeros_per_row = truth.shape[1] - truth.sum(axis=1)
        assert np.array_equal(added.sum(axis=1), np.minimum(r, zeros_per_row))


class TestKfold:
    def test_even_folds(self):
        split = kfold_split(10, 5, seed=0)
        sizes = np.bincount(split.assignments, minlength=5)
        assert np.array_equal(sizes, [2, 2, 2, 2, 2])

    def test_uneven_folds(self):
        split = kfold_split(11, 5, seed=0)
        sizes = sorted(np.bincount(split.assignments, minlength=5))
        assert sizes == [2, 2, 2, 2, 3]

    def test_deterministic(self):
        a = kfold_split(10, 5, seed=42)
        b = kfold_split(10, 5, seed=42)
        assert np.array_equal(a.assignments, b.assignments)

    def test_partition(self):
        split = kfold_split(23, 4, seed=3)
        seen = np.concatenate([split.test_indices(f) for f in range(4)])
        assert sorted(seen) == list(range(23))
        for f in range(4):
            train = set(split.train_indices(f))
            test = set(split.test_indices(f))
            assert not train & test
            assert train | test == set(range(23))

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            kfold_split(4, 5, seed=0)
        with pytest.raises(ValueError):
            kfold_split(10, 1, seed=0)


class TestDescribe:
    def test_avg_candidates(self):
        ds = Dataset(X=np.ones((2, 1)), Y=np.array([[1.0, 1], [1, 0]]))
        out = describe(ds)
        assert out["avg_candidate_labels"] == pytest.approx(1.5)
        assert "avg_true_labels" not in out

    def test_with_truth(self):
        ds = Dataset(
            X=np.ones((2, 1)),
            Y=np.array([[1.0, 1], [1, 0]]),
            Y_true=np.array([[1.0, 0], [1, 0]]),
        )
        out = describe(ds)
        assert out["n"] == 2 and out["d"] == 1 and out["l"] == 2
        assert out["avg_true_labels"] == pytest.approx(1.0)


class TestStandardize:
    def test_two_point_column(self):
        out = standardize(np.array([[1.0], [3.0]]))
        assert np.allclose(out, [[-1.0], [1.0]])

    def test_constant_column(self):
        out = standardize(np.array([[5.0], [5.0]]))
        assert np.array_equal(out, [[0.0], [0.0]])

    def test_random_columns_centered_and_scaled(self):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((50, 6)) * 7 + 3
        out = standardize(X)
        assert np.all(np.abs(out.mean(axis=0)) <= 1e-12)
        assert np.allclose(out.std(axis=0), 1.0)

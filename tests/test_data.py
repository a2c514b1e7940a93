"""Data matrix validation and CSV round-tripping."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tspc import data as data_module
from tspc.data import DataMatrix, _ingest_rows, ingest_csv, write_csv, write_text_atomic

# Cells as write_csv and most tools write them.
_PLAIN_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
)
# Spellings the two parsers might read differently: Python's float() takes
# underscores, non-ASCII digits and Unicode spaces; some overflow, underflow
# or are not finite; some are not numbers at all.
_ODD_TOKENS = ("1_0", "nan", "-nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-1e400",
               "1e-400", "-0.0", "5e-324", "2.5e-310", "+3.", ".5", "1e", "", "x", "\u0661\u0662",
               "0x10", "1d2", "1.0.0")
_PADS = ("", " ", "  ", "\t", "\xa0", "\u3000", "\x0c")
_ODD_CELLS = st.builds(
    lambda pre, token, post, quoted: f'"{pre}{token}{post}"' if quoted else f"{pre}{token}{post}",
    st.sampled_from(_PADS),
    st.one_of(_PLAIN_CELLS, st.sampled_from(_ODD_TOKENS)),
    st.sampled_from(_PADS),
    st.booleans(),
)
_HEADER_CELLS = st.sampled_from(("x1", "flow", " rain ", "", '"a,b"', '"q"', "1", "2.5"))
_BLANK_LINES = st.sampled_from(("", " ", "\t", "  "))


@st.composite
def csv_texts(draw):
    """Small CSV files; about half plain, the rest with odd cells, blank
    lines, lone-CR endings, quoting and a ragged last row mixed in."""
    odd = draw(st.booleans())
    width = draw(st.integers(1, 4))
    cells = st.one_of(_PLAIN_CELLS, _PLAIN_CELLS, _ODD_CELLS) if odd else _PLAIN_CELLS
    rows = [[draw(cells) for _ in range(width)] for _ in range(draw(st.integers(1, 5)))]
    if odd and draw(st.booleans()):
        rows[-1] = rows[-1][:-1] if draw(st.booleans()) else rows[-1] + [draw(cells)]
    if draw(st.booleans()):
        rows.insert(0, [draw(_HEADER_CELLS) for _ in range(width)])
    lines = [",".join(row) for row in rows]
    if odd:
        for _ in range(draw(st.integers(0, 3))):
            lines.insert(draw(st.integers(0, len(lines))), draw(_BLANK_LINES))
    eol = draw(st.sampled_from(("\n", "\r\n", "\r") if odd else ("\n", "\r\n")))
    return eol.join(lines) + (eol if draw(st.booleans()) else "")


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


def _outcome(read, path):
    """What a reader makes of a file: its names and value bits, or its error."""
    try:
        d = read(path)
    except ValueError as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("ok", d.column_names, d.values.shape, d.values.tobytes())


class TestDataMatrix:
    def test_shape_properties(self):
        d = DataMatrix([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        assert (d.n, d.p) == (3, 2)
        assert list(d.column(1)) == [1.0, 3.0, 5.0]

    def test_default_names(self):
        d = DataMatrix(np.zeros((2, 3)))
        assert d.names() == ("X1", "X2", "X3")

    def test_custom_names(self):
        d = DataMatrix(np.zeros((2, 2)), column_names=("a", "b"))
        assert d.names() == ("a", "b")

    def test_name_count_mismatch(self):
        with pytest.raises(ValueError):
            DataMatrix(np.zeros((2, 2)), column_names=("a",))

    def test_single_row_rejected(self):
        with pytest.raises(ValueError, match="at least 2 rows"):
            DataMatrix([[1.0, 2.0]])

    def test_non_finite_rejected_with_position(self):
        with pytest.raises(ValueError, match="row 2, column 1"):
            DataMatrix([[0.0, 1.0], [np.nan, 2.0]])

    def test_one_dimensional_rejected(self):
        with pytest.raises(ValueError, match="two-dimensional"):
            DataMatrix([1.0, 2.0])

    def test_values_are_frozen(self):
        d = DataMatrix(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            d.values[0, 0] = 1.0

    def test_input_array_is_copied(self):
        src = np.zeros((2, 2))
        d = DataMatrix(src)
        src[0, 0] = 9.0
        assert d.values[0, 0] == 0.0


class TestIngestCsv:
    def test_headerless_numeric_file(self, tmp_path):
        f = tmp_path / "plain.csv"
        f.write_text("0,1\n2,3\n4,5\n")
        d = ingest_csv(f)
        assert d.n == 3
        assert d.names() == ("X1", "X2")
        assert d.values[2, 1] == 5.0

    def test_header_detected_by_non_numeric_cell(self, tmp_path):
        f = tmp_path / "named.csv"
        f.write_text("rain,flow\n0.5,1.5\n0.25,2.5\n")
        d = ingest_csv(f)
        assert d.names() == ("rain", "flow")
        assert d.n == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ingest_csv(tmp_path / "absent.csv")

    def test_empty_file(self, tmp_path):
        f = tmp_path / "empty.csv"
        f.write_text("")
        with pytest.raises(ValueError, match="empty"):
            ingest_csv(f)

    def test_header_only(self, tmp_path):
        f = tmp_path / "h.csv"
        f.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="at least 2 data rows"):
            ingest_csv(f)

    def test_ragged_row_names_line(self, tmp_path):
        f = tmp_path / "ragged.csv"
        f.write_text("1,2\n3\n5,6\n")
        with pytest.raises(ValueError, match="line 2"):
            ingest_csv(f)

    def test_non_numeric_cell_names_line_and_column(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(ValueError, match="line 3, column 2"):
            ingest_csv(f)

    @pytest.mark.parametrize("cell", ["1e400", "-inf", "nan"])
    def test_non_finite_cell_names_file_line_and_column(self, tmp_path, cell):
        f = tmp_path / "inf.csv"
        f.write_text(f"a,b\n1,2\n{cell},4\n")
        with pytest.raises(ValueError) as err:
            ingest_csv(f)
        assert str(err.value) == f"{f}: line 3, column 1: non-finite value: {cell!r}"

    def test_oversized_field_names_line(self, tmp_path):
        # the quoted cell sends the file to the row parser, whose csv reader
        # refuses a field beyond its 131,072-character limit
        f = tmp_path / "wide.csv"
        f.write_text('a,b\n"1",2\n3,' + "4" * 140_000 + "\n5,6\n")
        with pytest.raises(ValueError, match=r"wide\.csv: line 3: field larger than field limit"):
            ingest_csv(f)

    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        d = DataMatrix(rng.normal(size=(7, 3)))
        f = tmp_path / "rt.csv"
        write_csv(d, f)
        back = ingest_csv(f)
        assert back.names() == ("X1", "X2", "X3")
        # repr floats survive the trip bit for bit
        assert np.array_equal(back.values, d.values)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(values=arrays(
        np.float64,
        st.tuples(st.integers(2, 6), st.integers(1, 4)),
        elements=st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from((-0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                             1.7976931348623157e308, -1.7976931348623157e308)),
        ),
    ))
    @example(values=np.array([[-0.0], [5e-324]]))
    @example(values=np.array([[1.7976931348623157e308, -1.7976931348623157e308],
                              [-0.0, 2.2250738585072009e-308]]))
    def test_round_trip_keeps_every_bit(self, values, csv_dir):
        f = csv_dir / "round_trip.csv"
        write_csv(DataMatrix(values), f)
        back = ingest_csv(f)
        assert back.names() == tuple(f"X{c + 1}" for c in range(values.shape[1]))
        assert back.values.tobytes() == values.tobytes()

    def test_plain_file_skips_the_row_parser(self, tmp_path, monkeypatch):
        def row_parser(path):
            raise AssertionError("row parser used")

        f = tmp_path / "plain.csv"
        write_csv(DataMatrix(np.arange(12.0).reshape(4, 3)), f)
        monkeypatch.setattr(data_module, "_ingest_rows", row_parser)
        assert ingest_csv(f).values[3, 2] == 11.0

    def test_quoted_cells_read_as_numbers(self, tmp_path):
        f = tmp_path / "quoted.csv"
        f.write_text('"a","b"\n"1.5",2\n3," 4 "\n')
        d = ingest_csv(f)
        assert d.names() == ("a", "b")
        assert d.values.tolist() == [[1.5, 2.0], [3.0, 4.0]]


class TestParserAgreement:
    """ingest_csv agrees with the row-by-row parser on every file: the same
    header, the same value bits, or the same error message."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(text=csv_texts())
    @example(text="a,b\n1,2\n")  # a header and one row
    @example(text="x\n1\n2\n")  # one column
    @example(text="1,2\r\n3,4\r\n")
    @example(text="\n\n1,2\n3,4\n\n")  # leading and trailing blank lines
    @example(text="1,2\n  \n3,4\n")  # a whitespace-only line
    @example(text="a,b\n1,2\n3,4\n5\n")  # a ragged last row
    @example(text='"1.0",2\n3," 4 "\n')
    @example(text="1_0,2\n3,4\n")
    @example(text="a,b\n1,2\n1e400,4\n")
    @example(text=" 1 , nan\n3,4\n")
    @example(text="-0.0,5e-324\n3,4\n")
    @example(text="\u0661,2\n3,4\n")
    def test_same_outcome_as_row_parser(self, text, csv_dir):
        path = csv_dir / "agree.csv"
        with open(path, "w", newline="") as fh:
            fh.write(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = _outcome(ingest_csv, path)
        assert [str(w.message) for w in caught] == []
        assert got == _outcome(_ingest_rows, path)


class TestAtomicWrite:
    def test_creates_file(self, tmp_path):
        target = tmp_path / "out.txt"
        write_text_atomic(target, "hello\n")
        assert target.read_text() == "hello\n"

    def test_replaces_existing(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        write_text_atomic(target, "new")
        assert target.read_text() == "new"

    def test_no_temp_file_left_behind(self, tmp_path):
        target = tmp_path / "out.txt"
        write_text_atomic(target, "x")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

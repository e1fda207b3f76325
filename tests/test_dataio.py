import hashlib
import io
import re
import tracemalloc
import warnings
from fractions import Fraction
from importlib import resources
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from implicitreg import (
    DataFormatError,
    Dataset,
    InsufficientDataError,
    IntegrityError,
    SimulationConfig,
    boyle_dataset,
    constancy_index,
    generate,
    read_csv,
    write_csv,
)
from implicitreg import dataio


class TestDataset:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Dataset("x", "y", [1.0, np.inf, 2.0], [1.0, 2.0, 3.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset("x", "y", [1.0, 2.0], [1.0, 2.0, 3.0])

    def test_arrays_are_read_only(self):
        d = Dataset("x", "y", [1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        with pytest.raises(ValueError):
            d.x[0] = 99.0

    def test_callers_arrays_stay_writeable_and_apart(self):
        x = np.arange(1.0, 6.0)
        y = 2.0 * x
        d = Dataset("x", "y", x, y)
        assert x.flags.writeable and y.flags.writeable
        x[0] = 10.0
        y[0] = 10.0
        assert d.x.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert d.y.tolist() == [2.0, 4.0, 6.0, 8.0, 10.0]

    def test_strided_input_is_stored_contiguous(self):
        table = np.arange(12.0).reshape(6, 2)
        d = Dataset("x", "y", table[::-1, 0], table[:, 1])
        assert d.x.flags.c_contiguous and d.y.flags.c_contiguous
        assert d.x.tolist() == [10.0, 8.0, 6.0, 4.0, 2.0, 0.0]


    @pytest.mark.parametrize("n, sizes", [(0, [0]), (1, [1]), (6, [6]), (7, [7]),
                                          (8, [7, 1]), (15, [7, 7, 1])])
    def test_row_blocks_are_views_of_at_most_the_block_size(self, n, sizes, monkeypatch):
        monkeypatch.setattr(dataio, "_BLOCK_ROWS", 7)
        d = Dataset("x", "y", np.arange(float(n)), -np.arange(float(n)))
        blocks = list(d.row_blocks())
        # an empty dataset still yields one (empty) block
        assert [x.size for x, _ in blocks] == sizes
        for x, y in blocks:
            assert x.base is d.x and y.base is d.y
        assert np.concatenate([x for x, _ in blocks]).tolist() == d.x.tolist()
        assert np.concatenate([y for _, y in blocks]).tolist() == d.y.tolist()


class TestReadCsv:
    def test_mixed_fraction(self):
        d = read_csv(b"v,p\n48,29 2/16\n46,30 9/16\n44,31 15/16\n")
        assert d.x_label == "v" and d.y_label == "p"
        assert d.y[0] == 29.125  # 29 + 2/16 exactly

    def test_basic_rows_and_labels(self):
        d = read_csv(b"x,y\n1,2\n3,4\n5,6\n")
        assert d.n == 3
        assert (d.x_label, d.y_label) == ("x", "y")
        np.testing.assert_array_equal(d.x, [1, 3, 5])

    def test_parse_error_carries_line_number(self):
        with pytest.raises(DataFormatError) as excinfo:
            read_csv(b"x,y\n1,abc\n2,3\n4,5\n")
        assert excinfo.value.line == 2

    def test_rejects_non_finite_value(self):
        with pytest.raises(DataFormatError):
            read_csv(b"x,y\n1,inf\n2,3\n4,5\n")

    def test_too_few_rows(self):
        with pytest.raises(InsufficientDataError):
            read_csv(b"x,y\n1,2\n3,4\n")

    def test_bad_header(self):
        with pytest.raises(DataFormatError):
            read_csv(b"x\n1,2\n3,4\n5,6\n")

    def test_three_field_row_rejected(self):
        with pytest.raises(DataFormatError) as excinfo:
            read_csv(b"x,y\n1,2\n3,4,5\n6,7\n")
        assert excinfo.value.line == 3

    def test_fraction_has_no_float_intermediate(self):
        d = read_csv(b"x,y\n0 1/3,1\n2 1/7,2\n1,3\n")
        assert d.x[0] == float(Fraction(1, 3))
        assert d.x[1] == float(Fraction(15, 7))

    def test_zero_denominator_rejected(self):
        with pytest.raises(DataFormatError):
            read_csv(b"x,y\n1 1/0,1\n2,2\n3,3\n")

    def test_accepts_file_object_and_path(self, tmp_path):
        payload = b"x,y\n1,2\n3,4\n5,6\n"
        from_bytes = read_csv(io.BytesIO(payload))
        path = tmp_path / "d.csv"
        path.write_bytes(payload)
        from_path = read_csv(path)
        np.testing.assert_array_equal(from_bytes.x, from_path.x)

    @pytest.mark.parametrize("payload, line", [
        (b"x,y\n1,2\n3,\xe94\n5,6\n", 3),
        (b"\xe9x,y\n1,2\n3,4\n5,6\n", 1),
        (b"x,y\r\n1,2\r\n3,4\r\n5,\xe96\r\n", 4),
        (b"x,y\r1,2\r3,\xe94\r5,6\r", 3),
        (b"\xef\xbb\xbfx,y\n1,2\n\n3,4\n5,6\xe9\n", 5),
    ], ids=["lf", "header", "crlf", "cr", "bom-and-blank-line"])
    def test_invalid_utf8_names_its_line(self, payload, line):
        with pytest.raises(DataFormatError) as excinfo:
            read_csv(payload)
        assert excinfo.value.line == line
        assert str(excinfo.value) == f"line {line}: invalid UTF-8 byte 0xe9"

    @pytest.mark.parametrize("payload, line, message", [
        ("a\x0bb,c\n1,2\n3,4\n5,6\n", 1, "header must have exactly two fields"),
        ("a\u2028b,c\n1,2\n3,4\n5,6\n", 1, "header must have exactly two fields"),
        ("a,b\rc,d\n1,2\n3,4\n5,6\n", 2, "cannot parse value 'c'"),
        ("a,b\x0c\n1,2\n3,4\n5,6\nx,1\n", 6, "cannot parse value 'x'"),
    ], ids=["vt", "line-separator", "cr", "ff-blank-line"])
    def test_header_ends_at_any_line_break(self, payload, line, message):
        with pytest.raises(DataFormatError) as excinfo:
            read_csv(payload.encode())
        assert excinfo.value.line == line
        assert str(excinfo.value).startswith(f"line {line}: {message}")

    @pytest.mark.parametrize("payload, line, message", [
        (b"", 1, "empty input"),
        (b"x,\n1,2\n3,4\n5,6\n", 1, "header labels must be non-empty"),
        (b"x,y\n1,2\n1 2 3/4,3\n5,6\n",
         3, "cannot parse value '1 2 3/4': too many components"),
    ], ids=["empty", "empty-label", "three-part-field"])
    def test_rejected_input_names_its_line(self, payload, line, message):
        with pytest.raises(DataFormatError) as excinfo:
            read_csv(payload)
        assert excinfo.value.line == line
        assert str(excinfo.value) == f"line {line}: {message}"

    def test_leading_byte_order_mark_is_dropped(self):
        d = read_csv(b"\xef\xbb\xbfx,y\n1,2\n3,4\n5,6\n")
        assert (d.x_label, d.y_label) == ("x", "y")
        np.testing.assert_array_equal(d.x, [1, 3, 5])


def _reference_read(text):
    """The field-by-field reader: ``_parse_field`` on every field, in order."""
    xs, ys = [], []
    for lineno, line in enumerate(text.splitlines()[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 2:
            raise DataFormatError(f"expected two fields, found {len(fields)}", line=lineno)
        xs.append(dataio._parse_field(fields[0], lineno))
        ys.append(dataio._parse_field(fields[1], lineno))
    if len(xs) < 3:
        raise InsufficientDataError(f"need at least 3 observations, found {len(xs)}")
    return np.array(xs), np.array(ys)


_value = st.floats(-1e300, 1e300)
_decimal = st.one_of(
    _value.map(repr),
    _value.map(lambda v: "%.17g" % v),
    _value.map(lambda v: "%.6e" % v),
    _value.map(lambda v: "%+.10g" % v),
    st.integers(-10**12, 10**12).map(lambda i: f"{i:_}.25"),
)
_pad = st.text(alphabet=" \t", max_size=2)
_plain_field = st.builds(lambda a, v, b: a + v + b, _pad, _decimal, _pad)
_plain_line = st.one_of(
    st.builds(lambda x, y: f"{x},{y}", _plain_field, _plain_field),
    st.sampled_from(["", " ", "\t "]),
)
_fraction_line = st.builds(
    lambda w, n, d, y: f"{w} {n}/{d},{y}",
    st.integers(-60, 60), st.integers(0, 63), st.integers(1, 64), _plain_field,
)
_bad_field = st.sampled_from(["", "abc", "1 2", "inf", "nan", "1e999", "1/0", "1 1/0"])


# thousands of data lines per file, so that one fraction row sends a long
# plain body to the field-by-field reader
_MANY_LINES = 4096


@st.composite
def _csv_lines(draw):
    """A few thousand data lines: tiled plain rows with a few mixed-fraction
    rows dropped in at random positions."""
    template = draw(st.lists(_plain_line, min_size=1, max_size=20).filter(
        lambda rows: any("," in row for row in rows)))
    n_lines = draw(st.integers(_MANY_LINES + 1, 5 * _MANY_LINES // 2))
    lines = (template * (n_lines // len(template) + 1))[:n_lines]
    for _ in range(draw(st.integers(0, 3))):
        lines[draw(st.integers(0, n_lines - 1))] = draw(_fraction_line)
    return lines


def _outcome(read, text):
    """``(x bytes, y bytes)`` of a successful read, else the error's
    ``(type, message, line)``."""
    try:
        x, y = read(text)
    except (DataFormatError, InsufficientDataError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    assert x.flags.c_contiguous and y.flags.c_contiguous
    return x.tobytes(), y.tobytes()


def _read_csv_arrays(text):
    d = read_csv(text.encode())
    return d.x, d.y


# tokens of the plain alphabet: fields either reader takes, and fields or
# lines that one or both reject
_plain_token = st.one_of(
    _value.map(repr),
    _value.map(lambda v: "%.17g" % v),
    _value.map(lambda v: "%+.6E" % v),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from([".5", "5.", "-0", "+0", "-0.0", "1e-400", "-1e-400", "1e400",
                     "-1e400", "1E+05", "+.5e-3"]),
)
_plain_junk = st.sampled_from(["", " ", "e", "1e", "E5", ".", "-", "+-1", "1..2", "1e+",
                               "1 2", "1-", "--1", ".e1"])
_good_field = st.builds(lambda a, v, b: a + v + b, _pad, _plain_token, _pad)
_any_field = st.builds(lambda a, v, b: a + v + b, _pad, st.one_of(_plain_token, _plain_junk), _pad)
_good_line = st.tuples(_good_field, _good_field).map(",".join)
_odd_line = st.one_of(st.lists(_any_field, max_size=3).map(",".join),
                      st.sampled_from(["", " ", "\t"]))


@st.composite
def _alphabet_body(draw):
    """Up to a dozen lines over the plain alphabet, four in five of two
    well-formed fields, ended by LF or by CRLF with a lone CR now and then."""
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        line = draw(_good_line if draw(st.integers(0, 4)) else _odd_line)
        lines.append(line + (end if draw(st.integers(0, 19)) else "\r"))
    return "".join(lines) + draw(st.sampled_from(["", "1,2"]))


class TestBulkParse:
    """``read_csv`` hands plain bodies to numpy's reader and must agree with
    the field-by-field reader on every value and every error."""

    @settings(max_examples=25, deadline=None)
    @given(lines=_csv_lines())
    def test_values_match_field_by_field_reader(self, lines):
        text = "\n".join(["a,b", *lines]) + "\n"
        assert _outcome(_read_csv_arrays, text) == _outcome(_reference_read, text)

    @settings(max_examples=25, deadline=None)
    @given(lines=_csv_lines(), data=st.data())
    def test_errors_match_field_by_field_reader(self, lines, data):
        at = data.draw(st.integers(0, len(lines) - 1), label="index")
        bad = data.draw(_bad_field, label="bad field")
        lines[at] = data.draw(st.sampled_from([f"{bad},1", f"1,{bad}", "1,2,3", "1,2,3\n4"]),
                              label="bad line")
        text = "\n".join(["a,b", *lines]) + "\n"
        want = _outcome(_reference_read, text)
        assert want[0] is DataFormatError
        assert _outcome(_read_csv_arrays, text) == want

    @settings(max_examples=300, deadline=None)
    @given(body=_alphabet_body())
    def test_plain_alphabet_matches_field_by_field_reader(self, body):
        text = "a,b\n" + body
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _outcome(_read_csv_arrays, text)
        assert got == _outcome(_reference_read, text)

    @pytest.mark.parametrize("body", [
        "1,2\n3,4\n5,6\n",
        "1,2\r\n3,4\r\n5,6",
        "1,2\r3,4\r5,6\r",
        "1,2\n\n3,4\n \n5,6\n\t\n",
        "1,2\n\r\n3,4\n5,6\r",
        " .5 ,\t5. \n-0,+0\n1e-400,-1e-400\n",
        "1,2\n3,4\n1e400,6\n",
        "1,2\n3,-1e400\n5,6\n",
        "1,\n3,4\n5,6\n",
        ",1\n3,4\n5,6\n",
        "1,2\n1e,2\n5,6\n",
        "1,2\n.,2\n5,6\n",
        "1,2\n1..2,3\n5,6\n",
        "1,2\n3,4\n1,2,3\n",
        "1,2,3\n4,5,6\n7,8,9\n",
        "1\n2\n3\n",
        "1,2\n3,4\n1\n",
        "1,2\n+-1,4\n5,6\n",
        "1,2\n1 2,4\n5,6\n",
        "1,2\n3,4\r\r\n5,6\n",
        "1,2\n3,4\n",
        "",
        "\n\n",
        " \r\n\t\n",
    ])
    def test_plain_body_table(self, body):
        text = "a,b\n" + body
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's "input contained no data"
            got = _outcome(_read_csv_arrays, text)
        assert got == _outcome(_reference_read, text)

    @pytest.fixture
    def parse_field_calls(self, monkeypatch):
        calls = []
        original = dataio._parse_field

        def counting(field, line):
            calls.append(line)
            return original(field, line)

        monkeypatch.setattr(dataio, "_parse_field", counting)
        return calls

    @pytest.fixture
    def no_exact_reader(self, monkeypatch):
        def refuse(lines):
            raise AssertionError("the body went field by field")

        monkeypatch.setattr(dataio, "_exact_values", refuse)

    def test_plain_file_skips_field_parser(self, parse_field_calls):
        rows = [f"{i * 0.1!r},{1.0 / (i + 1)!r}" for i in range(20_000)]
        d = read_csv(("x,y\n" + "\n".join(rows) + "\n").encode())
        assert d.n == 20_000
        assert parse_field_calls == []

    def test_fraction_row_parsed_exactly(self, parse_field_calls):
        rows = [f"{i},{2 * i}" for i in range(20_000)]
        rows[12_345] = "29 2/16,1 1/3"
        d = read_csv(("x,y\n" + "\n".join(rows) + "\n").encode())
        assert d.x[12_345] == 29.125
        assert d.y[12_345] == float(Fraction(4, 3))
        assert d.x[12_346] == 12_346.0
        # only the fraction row (data line 12_345, file line 12_347) is read
        # field by field; numpy reads the plain rows around it
        assert parse_field_calls == [12_347, 12_347]

    def test_mixed_body_takes_numpy_for_its_plain_lines(self, parse_field_calls):
        rows = [f"{i * 0.1!r},{1.0 / (i + 1)!r}" for i in range(3_000)]
        rows[7], rows[2_000] = "29 2/16,1 1/3", "-3 1/7,\t12 "
        mixed = "\n".join(["x,y", *rows]) + "\n"
        got = _outcome(_read_csv_arrays, mixed)
        # only the fields of the two fraction rows (file lines 9 and 2_002)
        assert parse_field_calls == [9, 9, 2_002, 2_002]
        assert got == _outcome(_reference_read, mixed)
        # the same values written as decimals are the same bits
        rows[7], rows[2_000] = f"29.125,{4 / 3!r}", f"{-22 / 7!r},12"
        assert got == _outcome(_read_csv_arrays, "\n".join(["x,y", *rows]) + "\n")

    def test_mixed_body_errors_name_their_own_lines(self):
        # a fraction row, then a malformed plain line, then a bad fraction
        rows = ["1,2", "29 2/16,3", "4,5", "1,2,3", "6,7", "2 1/0,8", "9,10"]
        text = "\n".join(["a,b", *rows]) + "\n"
        want = (DataFormatError, "line 5: expected two fields, found 3", 5)
        assert _outcome(_read_csv_arrays, text) == _outcome(_reference_read, text) == want
        # with that line mended, the bad fraction after the plain rows raises
        text = text.replace("1,2,3", "1,2")
        want = (DataFormatError, "line 7: cannot parse value '2 1/0': Fraction(1, 0)", 7)
        assert _outcome(_read_csv_arrays, text) == _outcome(_reference_read, text) == want

    @pytest.mark.parametrize("n", [3, 50, 2_000])
    def test_written_csv_takes_numpy_reader(self, n, no_exact_reader):
        rng = np.random.default_rng(n)
        d = Dataset("a", "b", rng.normal(0, 1e3, n), rng.uniform(-1e-3, 1e9, n))
        text = write_csv(d, decimals=17).decode()
        back = read_csv(text.encode())
        assert (back.x_label, back.y_label) == ("a", "b")
        assert (back.x.tobytes(), back.y.tobytes()) == _outcome(_reference_read, text)

    def test_crlf_bom_and_padding_read_identically(self, no_exact_reader):
        rng = np.random.default_rng(3)
        d = Dataset("volume", "pressure", rng.uniform(1, 50, 100), rng.uniform(20, 120, 100))
        plain = write_csv(d, decimals=17)
        header, *rows = plain.decode().splitlines()
        padded = "\r\n".join([header] + [" " + r.replace(",", " ,\t") + " " for r in rows])
        variants = [plain, b"\xef\xbb\xbf" + padded.encode() + b"\r\n"]
        first, second = ((v.x_label, v.y_label, v.x.tobytes(), v.y.tobytes())
                         for v in map(read_csv, variants))
        assert first[:2] == ("volume", "pressure")
        assert second == first

    @pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["no-bom", "bom"])
    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("body", [
        "", "{e}", "{e}{e} {e}", "{e}1,2{e}3,4{e}5,6", "{e}1,2{e}3,4{e}{e}5,6{e}", "{e}1,2{e}3,4{e}",
    ], ids=["header-only", "header-line", "blank-lines", "rows", "rows-and-blank", "two-rows"])
    def test_body_offset_after_bom_and_line_end(self, bom, end, body, no_exact_reader):
        # numpy reads the source in place from just after the header's LF
        text = bom + "x,y" + body.format(e=end)
        assert _outcome(_read_csv_arrays, text) == _outcome(_reference_read, text)

    def test_traced_peak_is_below_48_bytes_per_row(self, no_exact_reader):
        """Reading a plain 17-decimal file (≈43 bytes per row) allocates the
        plain-byte scan's output, as long as the input, and then numpy's
        (n, 2) values and the two columns, 32 bytes per row; a copy of the
        body on top of either breaks the bound."""
        n = 3 * dataio._BLOCK_ROWS + 1
        data = write_csv(generate(SimulationConfig(n=n, sigma=5.0, seed=3)), decimals=17)
        tracemalloc.start()
        try:
            d = read_csv(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.n == n
        assert peak < 48 * n

    def test_boyle_file_takes_exact_reader(self, parse_field_calls):
        raw = resources.files("implicitreg").joinpath("data/boyle.csv").read_bytes()
        d = boyle_dataset()
        # every row but the plain 38,37 on line 7, which numpy reads
        assert len(parse_field_calls) == 2 * (d.n - 1) == 48
        assert 7 not in parse_field_calls
        for line, x, y in zip(raw.decode().splitlines()[1:], d.x, d.y):
            want = [float(sum(map(Fraction, f.split()))) for f in line.split(",")]
            assert [x, y] == want


class TestWriteCsv:
    def test_exact_format(self):
        d = Dataset("x", "y", [1.0, 1.0, 1.0], [2.0, 2.0, 2.0])
        out = write_csv(d, decimals=3)
        assert out == b"x,y\n1.000,2.000\n1.000,2.000\n1.000,2.000\n"

    def test_no_trailing_whitespace(self):
        out = write_csv(Dataset("x", "y", [1, 2, 3], [4, 5, 6]), decimals=2)
        for line in out.decode().splitlines():
            assert line == line.rstrip()

    def test_round_trip_within_precision(self):
        rng = np.random.default_rng(7)
        d = Dataset("a", "b", rng.uniform(1, 100, 20), rng.uniform(1, 100, 20))
        for decimals in (3, 6, 12):
            back = read_csv(write_csv(d, decimals=decimals))
            assert back.x_label == "a" and back.y_label == "b"
            assert back.n == d.n
            np.testing.assert_allclose(back.x, d.x, atol=10.0 ** -decimals)
            np.testing.assert_allclose(back.y, d.y, atol=10.0 ** -decimals)

    def test_decimals_out_of_range(self):
        d = Dataset("x", "y", [1, 2, 3], [4, 5, 6])
        with pytest.raises(ValueError):
            write_csv(d, decimals=18)

    def test_boyle_serializes_to_26_lines(self):
        out = write_csv(boyle_dataset(), decimals=4)
        assert len(out.decode().splitlines()) == 26


    @pytest.mark.parametrize("label", ["a,b", "a\nb", "a\rb", "a\u2028b", "", " "])
    def test_label_that_is_no_header_field_raises(self, label):
        # read_csv would reject the header these labels write
        d = Dataset(label, "y", [1, 2, 3], [4, 5, 6])
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            write_csv(d)
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            write_csv(Dataset("x", label, [1, 2, 3], [4, 5, 6]))

    @settings(max_examples=300, deadline=None)
    @given(block=st.integers(1, 5), decimals=st.integers(0, 17), data=st.data())
    def test_blocks_write_the_bytes_of_one_f_string_per_row(self, block, decimals, data):
        n = data.draw(st.sampled_from([0, 1, block - 1, block, block + 1, 2 * block + 1]))
        values = st.lists(_WRITER_FLOATS, min_size=n, max_size=n)
        d = Dataset(data.draw(_WRITER_LABELS), data.draw(_WRITER_LABELS),
                    data.draw(values), data.draw(values))
        with mock.patch.object(dataio, "_BLOCK_ROWS", block):
            assert write_csv(d, decimals) == _f_string_csv(d, decimals)

    def test_simulated_file_bytes_are_pinned(self):
        # what `implicitreg simulate --n 200000 --sigma 5 --seed 7 --out F`
        # writes: seven row blocks, the last one partial
        d = generate(SimulationConfig(n=200_000, sigma=5, seed=7))
        assert hashlib.sha256(write_csv(d, decimals=10)).hexdigest() == \
            "8142e3752bbdc806ccd6be01bba379138d7343ddafc83bec9625eca85295993a"

    def test_traced_peak_is_at_most_two_and_a_half_times_the_output(self):
        d = generate(SimulationConfig(n=3 * dataio._BLOCK_ROWS + 1, sigma=5.0, seed=3))
        tracemalloc.start()
        try:
            out = write_csv(d, decimals=17)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * len(out)


def _f_string_csv(data, decimals):
    """The writer as one f-string per row: the reference the block writer
    must match byte for byte."""
    out = [f"{data.x_label},{data.y_label}"]
    out.extend(f"{x:.{decimals}f},{y:.{decimals}f}"
               for x, y in zip(data.x.tolist(), data.y.tolist()))
    return ("\n".join(out) + "\n").encode("utf-8")


_WRITER_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e300, -1e300, 0.5, -2.5, 0.125]),
    st.floats(allow_nan=False, allow_infinity=False),
)
# "%" and "{" must reach the file as they are
_WRITER_LABELS = st.one_of(
    st.sampled_from(["x", "%", "%s", "%d%%", "{", "{0}", "%(x)s {y}"]),
    st.text(min_size=1, max_size=8).filter(
        lambda s: "," not in s and s.strip() and s.splitlines() == [s]),
)


class TestBoyleDataset:
    def test_shape_and_order(self):
        d = boyle_dataset()
        assert d.n == 25
        assert (d.x_label, d.y_label) == ("volume", "pressure")
        assert d.x[0] == 48.0 and d.x[-1] == 12.0
        assert np.all(np.diff(d.x) < 0)       # volume strictly descending
        assert np.all(np.diff(d.y) > 0)       # pressure strictly ascending

    def test_constancy_anchors(self):
        d = boyle_dataset()
        assert constancy_index(d.x) == pytest.approx(0.8595, abs=0.003)
        assert constancy_index(d.y) == pytest.approx(0.8551, abs=0.003)
        assert constancy_index(d.x * d.y) == pytest.approx(0.9999878, abs=1e-4)

    def test_pressures_are_sixteenths(self):
        d = boyle_dataset()
        sixteenths = d.y * 16
        np.testing.assert_allclose(sixteenths, np.round(sixteenths), atol=1e-12)

    def test_checksum_guard(self, monkeypatch):
        monkeypatch.setattr(dataio, "_BOYLE_SHA256", "0" * 64)
        with pytest.raises(IntegrityError):
            boyle_dataset()

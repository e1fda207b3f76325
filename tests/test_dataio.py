import hashlib
import io
import re
import tracemalloc
import warnings
from decimal import ROUND_CEILING, ROUND_FLOOR, ROUND_HALF_EVEN, Decimal, localcontext
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
from implicitreg import dataio, decimals


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

    @pytest.mark.parametrize("field, value", [
        ("-0 1/2", -0.5), ("+0 1/2", 0.5), ("-0 0/2", -0.0), ("-1 1/2", -1.5),
        ("+2 1/4", 2.25), ("3\t 1/8", 3.125), ("-29 2/16", -29.125),
    ])
    def test_mixed_number_sign_covers_its_fraction(self, field, value):
        d = read_csv(f"x,y\n1,{field}\n2,3\n4,5\n".encode())
        assert d.y[0].hex() == value.hex()  # -0.0 keeps its sign

    @pytest.mark.parametrize("field", [
        "1 -1/2", "-1 -1/2", "1 +1/2", "1.5 1/2", "1e0 1/2", "- 1/2", "1 1.5", "1 1/2.5",
    ])
    def test_mixed_number_is_a_signed_integer_and_an_unsigned_fraction(self, field):
        with pytest.raises(DataFormatError) as excinfo:
            read_csv(f"x,y\n1,2\n3,{field}\n4,5\n".encode())
        assert str(excinfo.value) == (f"line 3: cannot parse value {field!r}: "
                                      "a mixed number is a signed integer and an unsigned N/D")

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
        (b"x,y\n1,2\n3,4\n2" + b"0" * 400 + b"/3,6\n",
         4, f"cannot parse value '2{'0' * 400}/3': integer division result too large for a float"),
    ], ids=["empty", "empty-label", "three-part-field", "huge-fraction"])
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


_SIXTEENTHS = st.integers(-(1 << 20), 1 << 20)


def _mixed_sixteenths(k):
    """k/16 as ``W N/16``, the sign on W (``-0 N/16`` where |k| < 16)."""
    whole, rest = divmod(abs(k), 16)
    return f"{'-' if k < 0 else ''}{whole} {rest}/16"


class TestBulkParse:
    """``read_csv`` hands a plain body to numpy's reader, in place, and
    every other body to the field-by-field reader; it must agree with the
    field-by-field reader on every value and every error."""

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
        # one fraction row (file line 12_347) sends the whole body, both
        # fields of every line, to the field-by-field reader
        assert parse_field_calls == [line for line in range(2, 20_002) for _ in "xy"]

    def test_mixed_body_reads_every_line_field_by_field(self, parse_field_calls):
        rows = [f"{i * 0.1!r},{1.0 / (i + 1)!r}" for i in range(3_000)]
        rows[7], rows[2_000] = "29 2/16,1 1/3", "-3 1/7,\t12 "
        mixed = "\n".join(["x,y", *rows]) + "\n"
        got = _outcome(_read_csv_arrays, mixed)
        # the plain lines around the fraction rows (file lines 9 and 2_002) too
        assert parse_field_calls == [line for line in range(2, 3_002) for _ in "xy"]
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

    def test_traced_peak_is_at_most_36_bytes_per_row(self, no_exact_reader):
        """Reading a plain 17-decimal file (≈43 bytes per row) allocates
        numpy's (n, 2) values and the two columns, 32 bytes per row (measured
        33.0); the plain-byte scan holds one 64 KiB slice and its copy, and a
        copy of the input or of the body breaks the bound (42.7 when the
        scan translated the whole input)."""
        n = 50_000
        data = write_csv(generate(SimulationConfig(n=n, sigma=5.0, seed=3)), decimals=17)
        tracemalloc.start()
        try:
            d = read_csv(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.n == n
        assert peak <= 36 * n, peak / n

    def test_boyle_file_takes_exact_reader(self, parse_field_calls):
        raw = resources.files("implicitreg").joinpath("data/boyle.csv").read_bytes()
        d = boyle_dataset()
        # every field, the plain 38,37 on line 7 included
        assert parse_field_calls == [line for line in range(2, 27) for _ in "xy"]
        assert len(parse_field_calls) == 2 * d.n == 50
        for line, x, y in zip(raw.decode().splitlines()[1:], d.x, d.y):
            want = [float(sum(map(Fraction, f.split()))) for f in line.split(",")]
            assert [x, y] == want

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(_SIXTEENTHS, _SIXTEENTHS), min_size=3, max_size=40),
           data=st.data())
    def test_one_mixed_fraction_row_reads_the_bits_of_its_decimals(self, rows, data):
        """k/16 is exact in binary, so numpy's reader on the decimals and the
        field-by-field reader on a body with one row as W N/D agree bit for bit."""
        decimal = ["a,b", *(f"{x / 16!r},{y / 16!r}" for x, y in rows)]
        mixed = list(decimal)
        at = data.draw(st.integers(0, len(rows) - 1), label="row")
        mixed[at + 1] = ",".join(map(_mixed_sixteenths, rows[at]))
        want = _outcome(_read_csv_arrays, "\n".join(decimal))
        assert want == _outcome(_read_csv_arrays, "\n".join(mixed))
        assert want == _outcome(_reference_read, "\n".join(decimal))



def _midpoint_field(value, up, decimals, rounding):
    """The midpoint between ``value`` and the double above it (or below it),
    rounded to ``decimals`` places: a field next to a rounding boundary."""
    neighbour = float(np.nextafter(value, np.inf if up else 0.0))
    with localcontext(prec=800):  # exact: Decimal(5e-324) has 751 digits
        mid = (Decimal(value) + Decimal(neighbour)) / 2
        return format(mid.quantize(Decimal(1).scaleb(-decimals), rounding=rounding), "f")


_shaped_field = st.one_of(
    st.builds(lambda sign, whole, places: sign + whole + ("." + places if places else ""),
              st.sampled_from(["", "-"]), st.text("0123456789", min_size=1, max_size=15),
              st.text("0123456789", max_size=22)),
    st.builds(lambda sign, field: sign + field, st.sampled_from(["", "-"]),
              st.builds(_midpoint_field, st.floats(0.0, 999999999999998.0), st.booleans(),
                        st.integers(0, 22),
                        st.sampled_from([ROUND_FLOOR, ROUND_CEILING, ROUND_HALF_EVEN]))),
)


def _refuse(*args, **kwargs):
    raise AssertionError("the body left the reader of the writer's shape")


@pytest.fixture
def shaped_only(monkeypatch):
    """Neither numpy's CSV reader nor the field-by-field reader may run."""
    monkeypatch.setattr(np, "loadtxt", _refuse)
    monkeypatch.setattr(dataio, "_exact_values", _refuse)


@pytest.fixture
def loadtxt_calls(monkeypatch):
    """Count numpy's CSV reader's calls; the field-by-field reader may not run."""
    calls = []
    loadtxt = np.loadtxt

    def counting(*args, **kwargs):
        calls.append(1)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting)
    monkeypatch.setattr(dataio, "_exact_values", _refuse)
    return calls


def _field_bits(fields):
    return np.array([float(f) for f in fields]).tobytes()


class TestShapedRead:
    """A body in the writer's shape - LF lines of two ``-?digits[.digits]``
    fields, at most 15 integer digits and 22 decimals - is converted in numpy
    and reads bit for bit as ``float(field)``; every other body takes the
    routes it took before, with their values and errors."""

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(_shaped_field, _shaped_field), min_size=3, max_size=200))
    def test_every_field_reads_as_float(self, rows):
        body = "".join(f"{x},{y}\n" for x, y in rows)
        with mock.patch.object(np, "loadtxt", _refuse), \
                mock.patch.object(dataio, "_exact_values", _refuse):
            d = read_csv(("a,b\n" + body).encode())
        assert d.x.tobytes() == _field_bits([x for x, _ in rows])
        assert d.y.tobytes() == _field_bits([y for _, y in rows])

    @pytest.mark.parametrize("field", [
        # exact ties between two doubles, rounded to the even one
        "562949953421312.0625", "562949953421312.1875", "2147483648.0000002384185791015625",
        # the midpoint below 2^49, where the gap halves, and just off it
        "562949953421311.96875", "562949953421311.9687500000001", "562949953421311.9687499999999",
        # just above and just below the midpoint under 1 (1 - 2^-54)
        "0.9999999999999999444889", "0.9999999999999999444888",
        # and above 1 (1 + 2^-53)
        "1.0000000000000001110224", "1.0000000000000001110223",
        # within 10^-21 of the midpoints below and above 2^40 and below
        # 2^47, nearer than the double-double's error there
        "1099511627775.9999389648437499999999", "1099511627776.0001220703125000000001",
        "140737488355327.9921874999999999999",
        "-0", "-0.000", "0.0", "000123.4500", "-00000000000000.5", "-000000000000007",
        "999999999999999", "-123456789012345.6789", "999999999999999.9999999999999999999999",
        "0.0000000000000000000001", "-1.2345678901234567890123",
    ])
    def test_edge_fields_read_as_float(self, field, shaped_only):
        d = read_csv(f"a,b\n1,1\n{field},{field}\n3,3".encode())
        assert d.x.tobytes() == d.y.tobytes() == _field_bits(["1", field, "3"])

    @pytest.mark.parametrize("end", ["", "\n"], ids=["no-last-lf", "last-lf"])
    @pytest.mark.parametrize("block", [1 << 17, 64], ids=["one-block", "64-byte-blocks"])
    def test_blocks_and_last_line(self, end, block, shaped_only, monkeypatch):
        monkeypatch.setattr(decimals, "_BLOCK_BYTES", block)
        rows = [(f"{i}.{i * 7919 % 1000:03d}", f"-{i * 31}") for i in range(40)]
        d = read_csv(("x,y\n" + "\n".join(map(",".join, rows)) + end).encode())
        assert d.x.tobytes() == _field_bits([x for x, _ in rows])
        assert d.y.tobytes() == _field_bits([y for _, y in rows])

    @pytest.mark.parametrize("decimals", range(18))
    def test_written_csv_takes_neither_other_reader(self, decimals, shaped_only):
        rng = np.random.default_rng(decimals)
        d = generate(SimulationConfig(n=2_000, sigma=20.0, seed=decimals))
        small = Dataset("u", "v", rng.uniform(-1, 1, 500), -rng.exponential(1e-3, 500))
        for data in (d, small):
            text = write_csv(data, decimals=decimals)
            back = read_csv(text)
            assert (back.x.tobytes(), back.y.tobytes()) == _outcome(_reference_read, text.decode())

    @pytest.mark.parametrize("body", [
        "1,2\r\n3,4\r\n5,6\r\n",
        " 1,2\n3 ,4\n5,\t6\n",
        "1e3,2\n3,4E-2\n5,6\n",
        "+1,2\n3,+4\n5,6\n",
        "1,2\n\n3,4\n5,6\n\n",
        "1234567890123456,2\n3,4\n5,6\n",
        "1,2\n3,4.00000000000000000000001\n5,6\n",
        "1,2\n3,4\n5.,6\n",
        "1,2\n3,4\n.5,6\n",
    ], ids=["crlf", "padded", "exponents", "plus", "blank-lines", "16-digit-integer",
            "23-decimals", "no-digit-after-point", "no-digit-before-point"])
    def test_other_plain_bodies_take_loadtxt(self, body, loadtxt_calls):
        text = "x,y\n" + body
        assert _outcome(_read_csv_arrays, text) == _outcome(_reference_read, text)
        assert loadtxt_calls == [1]

    @pytest.mark.parametrize("body", [
        "1,2\n1-2,3\n4,5\n", "1,2\n3,4-\n5,6\n", "1,2\n--3,4\n5,6\n", "1,2\n-3-,4\n5,6\n",
        "1,2\n3,-\n5,6\n", "1,2\n-.5,4\n5,6\n", "1,2\n3,4\n5.6.7,8\n", "1,2\n3,1/2\n5,6\n",
        "1,2\n3,4\n5,6,7\n", "1,2\n3,4\n5\n", "1,2\n3\n4,5\n6,7\n",
    ])
    def test_stray_bytes_leave_the_shape(self, body):
        # each body is one byte or field away from the shape; the other
        # routes read it, or raise the error of its first bad line
        text = "x,y\n" + body
        assert _outcome(_read_csv_arrays, text) == _outcome(_reference_read, text)

    def test_one_block_out_of_shape_sends_the_body_to_loadtxt(self, loadtxt_calls, monkeypatch):
        monkeypatch.setattr(decimals, "_BLOCK_BYTES", 64)
        rows = [f"{i}.5,{i}" for i in range(60)]
        rows[50] = "5e1,1"
        text = "x,y\n" + "\n".join(rows) + "\n"
        assert _outcome(_read_csv_arrays, text) == _outcome(_reference_read, text)
        # and a line longer than a block
        long = "x,y\n1,2\n3,4\n" + "1" * 15 + "." + "2" * 22 + ",-" + "3" * 15 + "." + "4" * 22 + "\n"
        assert _outcome(_read_csv_arrays, long) == _outcome(_reference_read, long)
        assert loadtxt_calls == [1, 1]

    @pytest.mark.parametrize("sigma", [1.0, 5.0, 20.0])
    def test_17_decimals_round_trip(self, sigma):
        """17 decimals are 17 significant digits from 0.1 up, which read back
        every double; nearer 0 the value is within half a unit in the 17th
        place, then rounded once."""
        rng = np.random.default_rng(int(sigma))
        below_one = np.where(rng.random(5_000) < 0.5, -1, 1) * rng.uniform(0.1, 1, 5_000)
        for d in (generate(SimulationConfig(n=20_000, sigma=sigma, seed=11)),
                  Dataset("u", "v", below_one, below_one[::-1])):
            back = read_csv(write_csv(d, decimals=17))
            for got, want in ((back.x, d.x), (back.y, d.y)):
                far = np.abs(want) >= 0.1
                assert got[far].tobytes() == want[far].tobytes()
                np.testing.assert_allclose(got, want, rtol=0, atol=1.2e-17)


# any text, with the characters the reader splits on, strips or drops
_ANY_LABEL = st.text(st.one_of(st.sampled_from(" \t,\r\n\x0b\x1c\x85\u2028\ufeff"),
                               st.characters()), max_size=6)


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

    @pytest.mark.parametrize("decimals", [True, False, 2.5, 3.0, "3", None], ids=repr)
    def test_decimals_that_are_no_integer_raise_by_name(self, decimals):
        d = Dataset("x", "y", [1, 2, 3], [4, 5, 6])
        with pytest.raises(ValueError, match=f"^decimals must be an integer, not {re.escape(repr(decimals))}$"):
            write_csv(d, decimals=decimals)

    @pytest.mark.parametrize("decimals", [np.int8(3), np.uint64(17), np.int64(0)], ids=repr)
    def test_numpy_integer_decimals_write_as_python_ints(self, decimals):
        d = Dataset("x", "y", [0.5, 1.25, -2.5], [4.125, 1e15 / 3, 9.999])
        assert write_csv(d, decimals) == write_csv(d, int(decimals)) == _f_string_csv(d, int(decimals))

    @pytest.mark.parametrize("value, decimals, text", [
        (9.999, 2, "10.00"), (9999.99999, 4, "10000.0000"), (-9.9999, 3, "-10.000"),
        (0.5, 0, "0"), (1.5, 0, "2"), (2.5, 0, "2"), (-0.5, 0, "-0"), (0.125, 2, "0.12"),
        (0.375, 2, "0.38"), (2.0 ** -18, 17, "0.00000381469726562"), (-0.001, 2, "-0.00"),
        (-0.0, 3, "-0.000"), (5e-324, 17, "0.00000000000000000"), (0.0, 0, "0"),
        (2.0 ** 53 - 1, 1, "9007199254740991.0"), (2.0 ** 52 + 0.5, 0, "4503599627370496"),
    ])
    def test_integer_path_rounds_half_to_even_and_carries(self, value, decimals, text):
        # one row block, every value under 2^53: the numpy digits, not "%"
        d = Dataset("x", "y", [value, 1.0], [1.0, value])
        assert write_csv(d, decimals) == f"x,y\n{text},{1.0:.{decimals}f}\n{1.0:.{decimals}f},{text}\n".encode()

    def test_boyle_serializes_to_26_lines(self):
        out = write_csv(boyle_dataset(), decimals=4)
        assert len(out.decode().splitlines()) == 26


    @pytest.mark.parametrize("label", ["a,b", "a\nb", "a\rb", "a\u2028b", "", " ",
                                       " a ", "a\t", "\ufeffa"])
    def test_label_that_is_no_header_field_raises(self, label):
        # read_csv would reject the header these labels write, or strip them
        d = Dataset(label, "y", [1, 2, 3], [4, 5, 6])
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            write_csv(d)
        d = Dataset("x", label, [1, 2, 3], [4, 5, 6])
        if label.startswith("\ufeff"):
            # only a byte-order mark at the start of the file is dropped
            assert read_csv(write_csv(d)).y_label == label
        else:
            with pytest.raises(ValueError, match=re.escape(repr(label))):
                write_csv(d)

    @settings(max_examples=300, deadline=None)
    @given(labels=st.tuples(_ANY_LABEL, _ANY_LABEL))
    def test_labels_read_back_or_raise(self, labels):
        d = Dataset(*labels, [1, 2, 3], [4, 5, 6])
        try:
            out = write_csv(d)
        except ValueError:
            return
        back = read_csv(out)
        assert (back.x_label, back.y_label) == labels

    @settings(max_examples=300, deadline=None)
    @given(block=st.integers(1, 5), decimals=st.integers(0, 17), data=st.data())
    def test_blocks_write_the_bytes_of_one_f_string_per_row(self, block, decimals, data):
        n = data.draw(st.sampled_from([0, 1, block - 1, block, block + 1, 2 * block + 1]))
        values = st.lists(_WRITER_FLOATS, min_size=n, max_size=n)
        d = Dataset(data.draw(_WRITER_LABELS), data.draw(_WRITER_LABELS),
                    data.draw(values), data.draw(values))
        with mock.patch.object(dataio, "_BLOCK_ROWS", block):
            assert write_csv(d, decimals) == _f_string_csv(d, decimals)

    @pytest.mark.parametrize("decimals", range(18))
    @settings(max_examples=40, deadline=None)
    @given(block=st.integers(1, 4), data=st.data())
    def test_integer_path_writes_the_bytes_of_one_f_string_per_row(self, decimals, block, data):
        """Values under 2^53, where the block's digits are computed in
        integers, drawn where rounding is hardest at these places; up to two
        of 2^53 or more put a "%" block among them in the same file."""
        n = data.draw(st.integers(0, 4 * block), label="rows")
        values = st.lists(_integer_path_floats(decimals), min_size=n, max_size=n)
        x, y = data.draw(values, label="x"), data.draw(values, label="y")
        if n:
            at = st.tuples(st.integers(0, n - 1), st.booleans(), st.sampled_from(_TOO_BIG))
            for row, in_x, big in data.draw(st.lists(at, max_size=2), label="big"):
                (x if in_x else y)[row] = big
        d = Dataset("x", "y", x, y)
        with mock.patch.object(dataio, "_BLOCK_ROWS", block):
            assert write_csv(d, decimals) == _f_string_csv(d, decimals)

    def test_simulated_file_bytes_are_pinned(self):
        # what `implicitreg simulate --n 200000 --sigma 5 --seed 7 --out F`
        # writes: 25 row blocks, the last one partial
        d = generate(SimulationConfig(n=200_000, sigma=5, seed=7))
        assert hashlib.sha256(write_csv(d, decimals=10)).hexdigest() == \
            "8142e3752bbdc806ccd6be01bba379138d7343ddafc83bec9625eca85295993a"

    def test_traced_peak_is_at_most_1_7_times_the_output(self):
        # the one buffer the blocks are written into, which becomes the
        # result, one block's NUL-padded text, a 64 KiB slice of it and the
        # digit temporaries of one column (measured 1.50)
        d = generate(SimulationConfig(n=3 * dataio._BLOCK_ROWS + 1, sigma=5.0, seed=3))
        tracemalloc.start()
        try:
            out = write_csv(d, decimals=17)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.7 * len(out)


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
# the writer's integer path takes magnitudes under 2^53; these take "%"
_TOO_BIG = [2.0 ** 53, -2.0 ** 53, np.nextafter(2.0 ** 53, np.inf), 1e300, -5e17]


def _integer_path_floats(decimals):
    """Magnitudes under 2^53, drawn where ``%.{decimals}f`` is hard to match."""
    step = 10.0 ** -(decimals + 1)
    whole = st.one_of(st.integers(-10 ** 4, 10 ** 4),
                      st.sampled_from([s * 10 ** j for j in range(16) for s in (1, -1)]))
    return st.one_of(
        # exact binary fractions k / 2^m, and the ties at these places: odd / 2^(d+1)
        st.builds(lambda k, m: k / 2 ** m, st.integers(1 - 2 ** 53, 2 ** 53 - 1), st.integers(0, 80)),
        st.builds(lambda t: (2 * t + 1) / 2 ** (decimals + 1), st.integers(-2 ** 51, 2 ** 51 - 1)),
        # just under a whole number, which rounds up and carries into it
        # (9.999 at d = 2; no float rounds up to a whole number at d >= 16)
        st.builds(lambda n, u: n - u * step, whole, st.integers(1, 5)),
        st.builds(lambda n: np.nextafter(float(n), 0.0), whole),
        # negatives that print as zero, -0.0 and subnormals
        st.builds(lambda u: -u * step, st.floats(0, 5)),
        st.integers(1 - 2 ** 52, 2 ** 52 - 1).map(lambda i: i * 5e-324),
        st.sampled_from([-0.0, 2.0 ** 53 - 1, 1 - 2.0 ** 53, 2.0 ** 52 + 0.5, 0.5, 2.5]),
        st.floats(-2.0 ** 53, 2.0 ** 53, exclude_min=True, exclude_max=True),
    )


# "%" and "{" must reach the file as they are; labels read_csv strips, splits
# or drops a leading byte-order mark from cannot be written
_WRITER_LABELS = st.one_of(
    st.sampled_from(["x", "%", "%s", "%d%%", "{", "{0}", "%(x)s {y}"]),
    st.text(min_size=1, max_size=8).filter(
        lambda s: "," not in s and s.strip() == s and s.splitlines() == [s]
        and not s.startswith("\ufeff")),
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

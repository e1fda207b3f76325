import io
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from implicitreg import (
    DataFormatError,
    Dataset,
    InsufficientDataError,
    IntegrityError,
    boyle_dataset,
    constancy_index,
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


@st.composite
def _csv_lines(draw):
    """Data lines spanning two to three parse chunks: tiled plain rows with
    a few mixed-fraction rows dropped in at random positions."""
    chunk = dataio._CHUNK_LINES
    template = draw(st.lists(_plain_line, min_size=1, max_size=20).filter(
        lambda rows: any("," in row for row in rows)))
    n_lines = draw(st.integers(chunk + 1, 5 * chunk // 2))
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


class TestBulkParse:
    """``read_csv`` parses plain-decimal chunks in bulk and must agree with
    the field-by-field reader on every value and every error."""

    @settings(max_examples=25, deadline=None)
    @given(lines=_csv_lines())
    def test_values_match_field_by_field_reader(self, lines):
        text = "\n".join(["a,b", *lines]) + "\n"
        assert _outcome(_read_csv_arrays, text) == _outcome(_reference_read, text)

    @settings(max_examples=25, deadline=None)
    @given(lines=_csv_lines(), data=st.data())
    def test_errors_match_field_by_field_reader(self, lines, data):
        at = data.draw(st.integers(dataio._CHUNK_LINES, len(lines) - 1), label="index")
        bad = data.draw(_bad_field, label="bad field")
        # "1,2,3" next to "4" keeps the chunk's comma total at one per line
        lines[at] = data.draw(st.sampled_from([f"{bad},1", f"1,{bad}", "1,2,3", "1,2,3\n4"]),
                              label="bad line")
        text = "\n".join(["a,b", *lines]) + "\n"
        want = _outcome(_reference_read, text)
        assert want[0] is DataFormatError
        assert _outcome(_read_csv_arrays, text) == want

    @pytest.fixture
    def parse_field_calls(self, monkeypatch):
        calls = []
        original = dataio._parse_field

        def counting(field, line):
            calls.append(line)
            return original(field, line)

        monkeypatch.setattr(dataio, "_parse_field", counting)
        return calls

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
        # only the fraction row's chunk went field by field
        assert 0 < len(parse_field_calls) <= 2 * dataio._CHUNK_LINES


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

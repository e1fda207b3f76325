"""Dataset container, strict CSV reader/writer, and the bundled Boyle data.

The reader accepts two-column CSV with a mandatory header.  Fields are
decimal literals or mixed fractions in the historical style ``W N/D``
(e.g. ``29 2/16``), a signed integer W whose sign covers the unsigned
fraction N/D (``-0 1/2`` is -0.5); fractions are converted with rational
arithmetic so no precision is lost before the final division.  A decimal
field reads as ``float(field)``, by one of two routes: a body in the
writer's shape (LF or CRLF lines of ``-?digits[.digits]`` fields) is
converted in numpy with exact integer and double-double arithmetic, and any
other body is read field by field.
"""

from __future__ import annotations

import io
import math
import re
from functools import cache, cached_property
from numbers import Integral
from pathlib import Path

import numpy as np

from .decimals import shaped_values
from .errors import DataFormatError, InsufficientDataError, IntegrityError
from .records import Record, eq_with_arrays

# sha256 of data/boyle.csv; the bundled transcription of Boyle's 1662
# pressure-volume table (25 observations, pressures in sixteenths of an
# inch of mercury) following Fazio's 1992 republication.
_BOYLE_SHA256 = "f5965311ce7928d00ea85a130d2db1b36efebb907fbf230646574b03273e7d93"

# a mixed number W N/D: a signed integer whole part, then an unsigned fraction
_MIXED = re.compile(r"([+-]?)(\d+)\s+(\d+)/(\d+)")
# rows per block of the factorisation, the solves and the writer, read only
# through Dataset.row_blocks(): a 1-d block temporary is 64 KiB, under
# glibc's default 128 KiB mmap threshold, and the six basis columns (384 KiB)
# or seven models' solves (448 KiB) of a block fit a 2 MiB L2 cache
_BLOCK_ROWS = 1 << 13


class Dataset(Record):
    """Ordered paired observations with axis labels.

    Row order is preserved exactly from the source; downstream reports
    and golden files depend on it.
    """

    _fields = ("x_label", "y_label", "x", "y")
    __eq__ = eq_with_arrays

    def __init__(self, x_label: str, y_label: str, x: np.ndarray, y: np.ndarray):
        # read-only contiguous copies: the caller's arrays stay writeable and
        # cannot change the dataset, and a BLAS dot product over a strided
        # view can round differently in the last bit
        x = np.array(x, dtype=float, ndmin=1)
        y = np.array(y, dtype=float, ndmin=1)
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError("x and y must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("dataset values must be finite")
        x.flags.writeable = False
        y.flags.writeable = False
        self.__dict__.update(x_label=x_label, y_label=y_label, x=x, y=y)

    @property
    def n(self) -> int:
        return self.x.size

    @cached_property
    def axis_sums(self) -> tuple[tuple[float, float, float], ...]:
        """Per axis, y then x: the mean and the sums of squares about it and
        about zero, summed once per dataset.  A sum past the float range is
        inf, which ``metrics.square_sums`` reports."""
        with np.errstate(over="ignore"):
            means = float(self.y.mean()), float(self.x.mean())
            return tuple((mean, float(((v - mean) ** 2).sum()), float(v @ v))
                         for v, mean in zip((self.y, self.x), means))

    def row_blocks(self):
        """(x, y) views of at most ``_BLOCK_ROWS`` consecutive rows, in row
        order; an empty dataset yields one empty block."""
        for start in range(0, self.n or 1, _BLOCK_ROWS):
            yield self.x[start:start + _BLOCK_ROWS], self.y[start:start + _BLOCK_ROWS]


def _parse_field(field: str, line: int) -> float:
    """Parse a decimal literal or mixed fraction ``W N/D`` exactly."""
    try:
        value = float(field)  # strips what str.strip() strips, bar \x1c-\x1f
    except ValueError:
        value = math.nan
    if math.isfinite(value):
        return value
    token = field.strip()
    if not token:
        raise DataFormatError("empty field", line=line)
    parts = token.split()
    try:
        if len(parts) > 2:
            raise ValueError("too many components")
        if len(parts) == 1 and "/" not in token:
            value = float(token)
        else:
            # imported on the first fraction read: reading decimals never loads it
            from fractions import Fraction

            if len(parts) == 1:
                value = float(Fraction(token))
            else:
                mixed = _MIXED.fullmatch(token)
                if mixed is None:
                    raise ValueError("a mixed number is a signed integer and an unsigned N/D")
                sign, whole, num, den = mixed.groups()
                # the sign covers the fraction too, and a -0 whole part keeps it
                value = float(int(whole) + Fraction(int(num), int(den)))
                value = -value if sign == "-" else value
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise DataFormatError(f"cannot parse value {token!r}: {exc}", line=line) from None
    if not math.isfinite(value):
        raise DataFormatError(f"non-finite value {token!r}", line=line)
    return value


def _read_bytes(source) -> bytes:
    if isinstance(source, (str, Path)):
        return Path(source).read_bytes()
    if isinstance(source, bytes):
        return source
    if hasattr(source, "read"):
        data = source.read()
        return data.encode("utf-8") if isinstance(data, str) else data
    raise TypeError(f"unsupported source type {type(source).__name__}")


def _text_lines(data: bytes) -> list[str]:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the first bad one decode; count their lines
        line = len((data[:exc.start].decode("utf-8") + "?").splitlines())
        raise DataFormatError(f"invalid UTF-8 byte 0x{data[exc.start]:02x}", line=line) from None
    # a leading byte-order mark (spreadsheet exports) is not part of the header
    return text.removeprefix("\ufeff").splitlines()


def _exact_values(lines: list[str]) -> np.ndarray:
    """The (rows, 2) values of data lines numbered from 2, read field by
    field; blank lines are skipped and the first bad line raises."""
    values = []
    for lineno, line in enumerate(lines, start=2):
        if line.strip():
            fields = line.split(",")
            if len(fields) != 2:
                raise DataFormatError(f"expected two fields, found {len(fields)}", line=lineno)
            values.append((_parse_field(fields[0], lineno), _parse_field(fields[1], lineno)))
    return np.array(values).reshape(-1, 2)


def _labels(header: str) -> tuple[str, str]:
    fields = header.split(",")
    if len(fields) != 2:
        raise DataFormatError("header must have exactly two fields", line=1)
    x_label, y_label = (f.strip() for f in fields)
    if not x_label or not y_label:
        raise DataFormatError("header labels must be non-empty", line=1)
    return x_label, y_label


def read_csv(source) -> Dataset:
    """Read a two-column dataset from a path, byte stream, or file object.

    The first line must be a two-field header.  Blank lines are skipped.
    Malformed records raise :class:`DataFormatError` with their line
    number; fewer than 3 data rows raise :class:`InsufficientDataError`.

    A body (the lines after a one-line header) takes one of two routes,
    each giving every decimal field the value of ``float(field)``.  A body
    in the writer's shape (lines of two fields ``-?digits[.digits]``, at
    most 15 integer digits and 22 decimals; CRLF reads as LF) is converted
    in numpy with exact integer and double-double arithmetic.  Every other
    body is read line by line and field by field, which gives the exact
    fractions and the error of the first bad line.
    """
    data = _read_bytes(source)
    end = data.find(b"\n")
    values = None
    if end >= 0 and len(lines := _text_lines(data[:end])) == 1:
        values = shaped_values(data, end + 1)
        if values is None and data.find(b"\r", end) >= 0:
            # CRLF reads as LF; the header's LF is one byte back after a CR
            body = data.replace(b"\r\n", b"\n")
            values = shaped_values(body, body.find(b"\n") + 1)
    if values is None:
        lines = _text_lines(data)
        if not lines:
            raise DataFormatError("empty input", line=1)
    x_label, y_label = _labels(lines[0])
    if values is None:
        values = _exact_values(lines[1:])

    if len(values) < 3:
        raise InsufficientDataError(
            f"need at least 3 observations, found {len(values)}"
        )
    return Dataset(x_label, y_label, values[:, 0], values[:, 1])


@cache
def _digit_groups() -> np.ndarray:
    r"""Four ASCII bytes per index, as one uint32 each, for ``write_csv``:
    0-9999 with leading zeros (b"0042"), 10000 + g the same with its leading
    zeros as NUL bytes (b"\x00\x0042", four NULs at g = 0), and 20000 a lone
    zero (b"\x00\x00\x000").  Built on the writer's first call, not at import."""
    g = np.arange(10_000, dtype=np.uint16)
    table = np.empty((20_001, 4), np.uint8)
    for place, power in enumerate((1000, 100, 10, 1)):
        table[:10_000, place] = g // power % 10 + ord("0")
    table[10_000:20_000] = table[:10_000]
    table[10_000:20_000][g[:, None] < [1000, 100, 10, 1]] = 0
    table[20_000] = (0, 0, 0, ord("0"))
    table.flags.writeable = False
    return table.view(np.uint32).ravel()


def _fixed_point(v: np.ndarray, decimals: int) -> tuple[np.ndarray, np.ndarray]:
    """The integer part and the ``decimals`` fraction digits, as int64, of
    each |v| < 2^53 rounded half to even at ``decimals`` places: the digits
    ``%.{decimals}f`` prints, computed exactly in integers."""
    fraction = np.abs(v)
    whole = np.floor(fraction)
    fraction -= whole
    whole = whole.astype(np.int64)
    # the fraction is exactly m / 2^(53 - e): m < 2^53 an integer, e <= 0
    fraction, exponent = np.frexp(fraction, out=(fraction, None))
    fraction *= 2.0 ** 53
    scaled = fraction.astype(np.int64)
    del fraction
    # fraction * 10^d = P / 2^k with P = m * 5^d < 2^93 and k = 53 - e - d
    # >= 36; at k >= 94, P / 2^k < 1/2 rounds to 0 as at k = 94.  P is held
    # as P >> 31 with its lost bits jammed into bit 0, below the rounding bit
    # k - 32 >= 4: m = mh 2^31 + ml and 5^d = ah 2^31 + al give
    # P = (mh 5^d + ml ah) 2^31 + ml al, every product under 2^63
    scale = 5 ** decimals
    low = scaled & 0x7FFF_FFFF
    scaled >>= 31
    scaled *= scale
    if scale >> 31:
        scaled += low * (scale >> 31)
    low *= scale & 0x7FFF_FFFF
    scaled += low >> 31
    low &= 0x7FFF_FFFF
    scaled |= low != 0
    del low
    # the shift of P >> 31: min(k, 94) - 31
    shift = np.subtract(22 - decimals, exponent, dtype=np.int64)
    np.minimum(shift, 63, out=shift)
    # half to even: add 2^(shift - 1) - 1, and 1 more when the truncated
    # digits (the integer part at d = 0) end odd, then shift
    scaled += (whole if decimals == 0 else scaled >> shift) & 1
    scaled += np.left_shift(np.int64(1), shift - 1)
    scaled -= 1
    digits = np.right_shift(scaled, shift, out=scaled)
    # a fraction that rounds up to 10^d carries into the integer part
    carry = digits >= 10 ** decimals
    whole += carry
    np.subtract(digits, 10 ** decimals, out=digits, where=carry)
    return whole, digits


def _write_fields(v: np.ndarray, decimals: int, field: np.ndarray) -> None:
    """Write each |v| < 2^53 as ``%.{decimals}f`` into its row of ``field``,
    a (rows, 1 + 4 * groups [+ 1 + decimals]) byte view: a sign byte, the
    integer part right-aligned in four-digit groups, then the point and the
    fraction; bytes that print nothing are NUL."""
    table = _digit_groups()
    whole, digits = _fixed_point(v, decimals)
    point = field.shape[1] - (decimals + 1 if decimals else 0)

    def put(end, index):
        field[:, end - 4:end].view(np.uint32)[:, 0] = table.take(index)

    # fraction groups right to left: a first, partial one writes its leading
    # zeros over the point and the integer part, which are written after it
    for end in range(field.shape[1], point + 1, -4):
        rest = digits // 10_000
        digits -= rest * 10_000
        put(end, digits)
        digits = rest
    if decimals:
        field[:, point] = ord(".")
    # integer groups right to left: the most significant nonzero one drops
    # its leading zeros, the ones above it are all NUL, and 0 prints "0"
    for end in range(point, 1, -4):
        rest = whole // 10_000
        index = rest * -10_000
        index += whole
        np.add(index, 10_000, where=whole < 10_000, out=index)
        if end == point:
            np.add(index, 10_000, where=whole == 0, out=index)
        put(end, index)
        whole = rest
    field[:, 0] = (v.view(np.int64) >> 63) & ord("-")


def write_csv(data: Dataset, decimals: int = 6) -> bytes:
    """Serialize a dataset with fixed decimal places, LF line endings; labels
    that ``read_csv`` would not read back as they are raise ValueError.

    The bytes are those of one ``f"{x:.{decimals}f},{y:.{decimals}f}"`` per
    row.  A row block whose values are all under 2^53 in magnitude is
    formatted in numpy: the rounded digits are computed exactly in integers
    and written through a table of four-digit groups into one NUL-padded
    byte buffer, reused by every block, whose padding is then deleted.  A
    block with a larger value is one ``%`` template over its values.  The
    blocks are written into one buffer, which becomes the result."""
    if isinstance(decimals, bool) or not isinstance(decimals, Integral):
        raise ValueError(f"decimals must be an integer, not {decimals!r}")
    if not 0 <= decimals <= 17:
        raise ValueError("decimals must be between 0 and 17")
    decimals = int(decimals)  # numpy integer scalars would change the dtypes below
    header = f"{data.x_label},{data.y_label}"
    try:
        # the reader's own rules: one line (no BOM), two fields, nothing stripped
        same = (_text_lines(header.encode()) == [header]
                and _labels(header) == (data.x_label, data.y_label))
    except DataFormatError:
        same = False
    if not same:
        raise ValueError(f"labels {data.x_label!r} and {data.y_label!r} cannot be a CSV header")
    out = io.BytesIO()
    out.write(f"{header}\n".encode())
    row = f"%.{decimals}f,%.{decimals}f\n"
    buffer = bytearray()
    for x, y in data.row_blocks():
        if not x.size:
            continue
        tops = (max(x.max(), -x.min()), max(y.max(), -y.min()))
        if max(tops) >= 2.0 ** 53:
            out.write((row * x.size % tuple(np.column_stack((x, y)).ravel().tolist())).encode())
            continue
        # a sign byte and four-digit groups for the integer part, which
        # rounding can carry one digit longer, then the point and fraction
        x_width, y_width = (1 + 4 * ((len(str(int(top) + 1)) + 3) // 4)
                            + (decimals + 1 if decimals else 0) for top in tops)
        width = x_width + y_width + 2
        size = x.size * width
        if len(buffer) < size:
            buffer = bytearray(size)
        text = np.frombuffer(buffer, np.uint8, size).reshape(x.size, width)
        _write_fields(x, decimals, text[:, :x_width])
        text[:, x_width] = ord(",")
        _write_fields(y, decimals, text[:, x_width + 1:-1])
        text[:, -1] = ord("\n")
        # in 64 KiB slices, so no copy of the block's whole text is held
        # beside the buffer
        for start in range(0, size, 1 << 16):
            out.write(buffer[start:min(start + (1 << 16), size)].translate(None, b"\0"))
    return out.getvalue()


def boyle_dataset() -> Dataset:
    """Boyle's 1662 pressure-volume measurements.

    Volume is the number of equal spaces of air in the sealed leg of
    Boyle's J-tube; pressure is the total head of mercury in inches
    (applied column plus the atmospheric 29 2/16).  The transcription
    follows Fazio (1992) and is checksum-verified on every load.
    """
    # imported by its only reader, so no other command loads it (tempfile with it)
    from importlib import resources

    resource = resources.files("implicitreg").joinpath("data/boyle.csv")
    try:
        raw = resource.read_bytes()
    except FileNotFoundError as exc:
        raise IntegrityError(f"bundled Boyle resource missing: {exc}") from None
    import hashlib

    digest = hashlib.sha256(raw).hexdigest()
    if digest != _BOYLE_SHA256:
        raise IntegrityError(
            "bundled Boyle resource failed its checksum "
            f"(expected {_BOYLE_SHA256[:12]}..., got {digest[:12]}...)"
        )
    return read_csv(raw)

"""Dataset container, strict CSV reader/writer, and the bundled Boyle data.

The reader accepts two-column CSV with a mandatory header.  Fields are
decimal literals or mixed fractions in the historical style ``W N/D``
(e.g. ``29 2/16``), a signed integer W whose sign covers the unsigned
fraction N/D (``-0 1/2`` is -0.5); fractions are converted with rational
arithmetic so no precision is lost before the final division.
"""

from __future__ import annotations

import io
import re
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DataFormatError, InsufficientDataError, IntegrityError
from .records import Record

# sha256 of data/boyle.csv; the bundled transcription of Boyle's 1662
# pressure-volume table (25 observations, pressures in sixteenths of an
# inch of mercury) following Fazio's 1992 republication.
_BOYLE_SHA256 = "f5965311ce7928d00ea85a130d2db1b36efebb907fbf230646574b03273e7d93"

# the bytes of a plain body, which numpy's reader takes: ASCII
# decimals with exponents, field and line separators, spaces and tabs
_PLAIN_BYTES = b"0123456789.,+-eE \t\r\n"
_NON_SPACE = re.compile(rb"\S")
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
    if not np.isfinite(value):
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


def _plain_values(data: bytes, start: int) -> np.ndarray | None:
    """The (rows, 2) values of the plain body ``data[start:]``, read by numpy
    in place; None when numpy's reader rejects it or a value is not finite.

    ``loadtxt`` converts each field with ``PyOS_string_to_double``, the
    correctly rounded routine behind ``float()``, and on this alphabet it
    accepts a field only where ``_parse_field`` returns that same value.
    """
    if _NON_SPACE.search(data, start) is None:
        return np.empty((0, 2))  # loadtxt warns on input with no data
    # a BytesIO shares the bytes' buffer until it is written to
    body = io.BytesIO(data)
    body.seek(start)
    try:
        values = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if values.shape[1] != 2 or not np.isfinite(values).all():
        return None
    return values


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

    A body (the lines after a one-line header) of plain decimals - bytes
    of ``_PLAIN_BYTES`` only - is read in place by numpy's C reader.  Every
    other body, and every body that reader rejects, is read line by line
    and field by field, which gives the exact fractions and the error of
    the first bad line.
    """
    data = _read_bytes(source)
    end = data.find(b"\n")
    if end < 0:
        end = len(data)
    # the body is plain when no byte from its LF on is outside the alphabet;
    # scanned in 64 KiB slices, as translate allocates a copy of its input
    plain = not any(data[i:i + (1 << 16)].translate(None, _PLAIN_BYTES)
                    for i in range(end, len(data), 1 << 16))
    values = None
    if plain and len(lines := _text_lines(data[:end])) == 1:
        x_label, y_label = _labels(lines[0])
        values = _plain_values(data, end + 1)
    if values is None:
        lines = _text_lines(data)
        if not lines:
            raise DataFormatError("empty input", line=1)
        x_label, y_label = _labels(lines[0])
        values = _exact_values(lines[1:])

    if len(values) < 3:
        raise InsufficientDataError(
            f"need at least 3 observations, found {len(values)}"
        )
    return Dataset(x_label, y_label, values[:, 0], values[:, 1])


def write_csv(data: Dataset, decimals: int = 6) -> bytes:
    """Serialize a dataset with fixed decimal places, LF line endings; labels
    that ``read_csv`` would not read back as they are raise ValueError.

    Each row block is one ``%`` template over its interleaved values, so no
    string per row is held; ``%`` prints a float as an f-string does.  The
    blocks are written into one buffer, which becomes the result."""
    if not 0 <= decimals <= 17:
        raise ValueError("decimals must be between 0 and 17")
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
    for x, y in data.row_blocks():
        out.write((row * x.size % tuple(np.column_stack((x, y)).ravel().tolist())).encode())
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

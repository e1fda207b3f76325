"""Dataset container, strict CSV reader/writer, and the bundled Boyle data.

The reader accepts two-column CSV with a mandatory header.  Fields are
decimal literals or mixed fractions in the historical style ``W N/D``
(e.g. ``29 2/16``); fractions are converted with rational arithmetic so
no precision is lost before the final division.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from functools import cache, cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import DataFormatError, InsufficientDataError, IntegrityError

# sha256 of data/boyle.csv; the bundled transcription of Boyle's 1662
# pressure-volume table (25 observations, pressures in sixteenths of an
# inch of mercury) following Fazio's 1992 republication.
_BOYLE_SHA256 = "f5965311ce7928d00ea85a130d2db1b36efebb907fbf230646574b03273e7d93"

_BOM = b"\xef\xbb\xbf"
# the bytes of a plain body or line, which numpy's reader takes: ASCII
# decimals with exponents, field and line separators, spaces and tabs
_PLAIN_BYTES = b"0123456789.,+-eE \t\r\n"
_NON_SPACE = re.compile(rb"\S")
# rows per block of the factorisation, the solves and the writer, read only
# through Dataset.row_blocks(): 1.5 MiB of the six basis columns at a time
_BLOCK_ROWS = 1 << 15


@dataclass(frozen=True)
class Dataset:
    """Ordered paired observations with axis labels.

    Row order is preserved exactly from the source; downstream reports
    and golden files depend on it.
    """

    x_label: str
    y_label: str
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        # read-only contiguous copies: the caller's arrays stay writeable and
        # cannot change the dataset, and a BLAS dot product over a strided
        # view can round differently in the last bit
        x = np.array(self.x, dtype=float, ndmin=1)
        y = np.array(self.y, dtype=float, ndmin=1)
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError("x and y must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("dataset values must be finite")
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.size

    @cached_property
    def axis_sums(self) -> tuple[tuple[float, float, float], ...]:
        """Per axis, y then x: the mean and the sums of squares about it and
        about zero, summed once per dataset."""
        means = float(self.y.mean()), float(self.x.mean())
        return tuple((mean, float(((v - mean) ** 2).sum()), float(v @ v))
                     for v, mean in zip((self.y, self.x), means))

    def row_blocks(self):
        """(x, y) views of at most ``_BLOCK_ROWS`` consecutive rows, in row
        order; an empty dataset yields one empty block."""
        for start in range(0, self.n or 1, _BLOCK_ROWS):
            yield self.x[start:start + _BLOCK_ROWS], self.y[start:start + _BLOCK_ROWS]


@cache
def _fraction():
    """``fractions.Fraction``, imported on the first fraction read: reading
    decimals never loads it, and a fraction field pays no import."""
    from fractions import Fraction

    return Fraction


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
            Fraction = _fraction()
            if len(parts) == 1:
                value = float(Fraction(token))
            else:
                whole = Fraction(parts[0])
                frac = Fraction(parts[1])
                if "/" not in parts[1]:
                    raise ValueError("second part of a mixed number must be N/D")
                # a negative whole part pulls the fraction in the same direction
                value = float(whole - frac if whole < 0 else whole + frac)
    except (ValueError, ZeroDivisionError) as exc:
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


def _one_line(head: bytes) -> str | None:
    """``head`` decoded, when it is a single line ending at the first LF or
    CRLF as ``str.splitlines`` counts lines; else None."""
    try:
        line = head.decode("utf-8").removesuffix("\r")
    except UnicodeDecodeError:
        return None
    return line if line.splitlines() == [line] else None


def _plain_values(data: bytes, start: int = 0) -> np.ndarray | None:
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
    """The (rows, 2) values of data lines numbered from 2; blank lines are
    skipped.  numpy reads the lines of plain bytes in one call and the rest
    go field by field; if numpy rejects the plain lines, every line goes
    field by field, so the first bad line raises."""
    numbered = [(lineno, line) for lineno, line in enumerate(lines, start=2) if line.strip()]
    # non-ASCII text encodes to bytes outside the plain alphabet
    plain = [not line.encode().translate(None, _PLAIN_BYTES) for _, line in numbered]
    values = np.empty((len(numbered), 2))
    bulk = _plain_values("\n".join(line for (_, line), p in zip(numbered, plain) if p).encode())
    if bulk is not None and len(bulk) == sum(plain):
        values[plain] = bulk
    else:
        plain = [False] * len(numbered)
    for row, (lineno, line) in enumerate(numbered):
        if not plain[row]:
            fields = line.split(",")
            if len(fields) != 2:
                raise DataFormatError(f"expected two fields, found {len(fields)}", line=lineno)
            values[row] = _parse_field(fields[0], lineno), _parse_field(fields[1], lineno)
    return values


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

    A body (the lines after the header) of plain decimals - bytes of
    ``_PLAIN_BYTES`` only - is read by numpy's C reader.  In every other
    body, and every body that reader rejects, numpy reads the plain lines
    and the rest are read field by field, which gives the exact fractions;
    where numpy rejects the plain lines too, every line is read field by
    field, which gives the error of the first bad line.
    """
    data = _read_bytes(source)
    end = data.find(b"\n")
    if end < 0:
        end = len(data)
    head = data[:end]
    # the body is plain when the header holds every byte outside the alphabet
    plain = len(data.translate(None, _PLAIN_BYTES)) == len(head.translate(None, _PLAIN_BYTES))
    header = _one_line(head.removeprefix(_BOM)) if plain else None
    values = None
    if header is not None:
        x_label, y_label = _labels(header)
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
    """Serialize a dataset with fixed decimal places, LF line endings; a
    label that would not read back as a header field raises ValueError.

    Each row block is one ``%`` template over its interleaved values, so no
    string per row is held; ``%`` prints a float as an f-string does."""
    if not 0 <= decimals <= 17:
        raise ValueError("decimals must be between 0 and 17")
    for label in (data.x_label, data.y_label):
        if "," in label or not label.strip() or label.splitlines() != [label]:
            raise ValueError(f"label {label!r} cannot be a CSV header field")
    out = [f"{data.x_label},{data.y_label}\n".encode()]
    row = f"%.{decimals}f,%.{decimals}f\n"
    for x, y in data.row_blocks():
        out.append((row * x.size % tuple(np.column_stack((x, y)).ravel().tolist())).encode())
    return b"".join(out)


def boyle_dataset() -> Dataset:
    """Boyle's 1662 pressure-volume measurements.

    Volume is the number of equal spaces of air in the sealed leg of
    Boyle's J-tube; pressure is the total head of mercury in inches
    (applied column plus the atmospheric 29 2/16).  The transcription
    follows Fazio (1992) and is checksum-verified on every load.
    """
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

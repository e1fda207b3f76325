"""Exact vectorised reading of a CSV body in the shape ``write_csv`` writes.

LF lines of two fields ``-?digits[.digits]``, at most 15 integer digits and
22 decimals, are converted in numpy: each field's digits become integers
eight at a time, and its value is computed in double-double arithmetic and
rounded once, bit for bit ``float(field)``.  ``dataio.read_csv`` tries it
first.
"""

from __future__ import annotations

from functools import cache

import numpy as np

# bytes per block (about 3000 lines of 17 decimals), cut at a line end, and
# the "0" bytes before a block in its buffer: a field's 40-byte window starts
# 16 bytes before its point, at most 15 bytes before the field
_BLOCK_BYTES = 1 << 17
_PAD = 16
# 10^22 = 2^22 5^22, exact, and its halves for Dekker's two-product
_TEN22 = 1e22
_TEN22_HI = 1e22 * 134217729.0 - (1e22 * 134217729.0 - 1e22)
_TEN22_LO = 1e22 - _TEN22_HI
_EXPONENT_BITS = 0x7FF << 52


@cache
def _shape_masks() -> np.ndarray:
    """For the 40-byte window [p - 16, p + 24) around a field's point p (its
    separator when it has none), the bytes that hold its digits, as five
    little-endian uint64 masks: row 24 i + k for i integer digits, which end
    at p, and k = 0 (no point) or k - 1 decimals, which start at p + 1.
    Built on the first read."""
    return np.frombuffer(b"".join(
        bytes(16 - i) + b"\xff" * i + bytes(1) + b"\xff" * max(k - 1, 0) + bytes(24 - max(k, 1))
        for i in range(16) for k in range(24)), "<u8").reshape(-1, 5)


def _eight_digits(v: np.ndarray) -> None:
    """Turn in place each uint64 of eight digit values 0-9, one per byte and
    the first in the low byte, into the eight-digit integer they spell."""
    v *= 2561  # each byte 10 times itself plus the next byte up: two digits
    v >>= 8
    v &= 0x00FF_00FF_00FF_00FF
    v *= 6553601  # 100 * 2^16 + 1: four digits per 32 bits
    v >>= 16
    v &= 0x0000_FFFF_0000_FFFF
    v *= 42949672960001  # 10^4 * 2^32 + 1: all eight in the high 32 bits
    v >>= 32


def _shaped_block(b: np.ndarray, windows: np.ndarray, masks: np.ndarray) -> np.ndarray | None:
    """The values of the fields in ``b``, in order; None when a line is out
    of the writer's shape.  ``b`` holds ``_PAD`` bytes "0", then whole
    LF-ended lines; ``windows`` are the 40-byte windows of its buffer, whose
    last 24 bytes lie past ``b``."""
    if b.max() > ord("9"):
        return None
    # every byte up to "/" must be ",", LF, "-" or "."; all others are digits
    special = np.flatnonzero(b <= ord("/"))
    c = b[special]
    sep = np.flatnonzero(c < ord("-"))
    n = sep.size
    if not n or n % 2:
        return None
    kind = c[sep].reshape(-1, 2)
    if not ((kind[:, 0] == ord(",")).all() and (kind[:, 1] == ord("\n")).all()):
        return None
    minus = np.count_nonzero(c == ord("-"))
    dots = np.count_nonzero(c == ord("."))
    if minus + dots + n != c.size:
        return None
    end = special[sep]
    start = np.empty(n, np.int64)
    start[0] = _PAD
    np.add(end[:-1], 1, out=start[1:])
    neg = b[start] == ord("-")
    # a field's point, if it has one, is the special byte just before its
    # separator (before the first field, c[-1] is the block's last LF); with
    # every "-" opening a field and every "." the last special byte of one,
    # each field has at most one of each
    sep -= 1
    dotted = c[sep] == ord(".")
    if np.count_nonzero(neg) != minus or np.count_nonzero(dotted) != dots:
        return None
    point = np.where(dotted, special[sep], end)
    del special, c, sep, dotted
    row = point - start
    row -= neg
    k = end - point
    if row.min() < 1 or row.max() > 15 or k.max() > 23 or (k == 1).any():
        return None
    row *= 24
    row += k
    del k
    point -= 16
    v = windows[point].view(np.uint64).reshape(n, 5)
    del point
    v ^= 0x3030_3030_3030_3030
    v &= masks.take(row, axis=0)
    del row
    _eight_digits(v)
    # the integer part is I = v0 10^8 + v1 < 10^15; the point and 23 places
    # after it read v2 10^16 + v3 10^8 + v4 = 10 F, with F < 10^22 the
    # decimals padded to 22 digits, so the value is I + F / 10^22.
    # F = high 10^7 + v4 / 10 with high = v2 10^8 + v3 < 10^15 is split
    # exactly into doubles (high >> 24) 10^7 2^24 and low < 2^24 10^7
    whole = v[:, 0] * 10**8
    whole += v[:, 1]
    high = v[:, 2] * 10**8
    high += v[:, 3]
    tenth = v[:, 4] * 0xCCCC_CCCD  # v4 // 10 as a multiply and shift, exact below 2^32
    del v
    tenth >>= 35
    low = high & 0xFF_FFFF
    low *= 10**7
    low += tenth
    del tenth
    high >>= 24
    high *= 10**7
    whole, high, low = whole.astype(float), high.astype(float), low.astype(float)
    high *= 2.0**24
    # Dekker's two-sum and two-product, in double-double arithmetic (no
    # FMA): F = f + f_lo exactly, then F / 10^22 = q + rest
    f = high + low
    f_lo = np.subtract(f, high, out=high)
    np.subtract(low, f_lo, out=f_lo)
    del low
    q = f / _TEN22
    q_hi = q * 134217729.0  # 2^27 + 1: q_hi and q_lo have 26 bits each
    q_lo = q_hi - q
    q_hi -= q_lo
    np.subtract(q, q_hi, out=q_lo)
    prod = q * _TEN22
    err = q_hi * _TEN22_HI
    err -= prod
    q_hi *= _TEN22_LO
    err += q_hi
    np.multiply(q_lo, _TEN22_HI, out=q_hi)
    err += q_hi
    q_lo *= _TEN22_LO
    err += q_lo
    del q_hi, q_lo
    rest = np.subtract(f, prod, out=f)  # exact: prod is within a rounding of f
    del prod
    rest -= err
    rest += f_lo
    rest /= _TEN22
    del err, f_lo
    # I + q + rest, rounded once: out, and the tail the rounding left off
    total = whole + q
    whole -= total
    whole += q
    whole += rest
    del q, rest
    out = total + whole
    tail = np.subtract(total, out, out=total)
    tail += whole
    del whole
    # out + tail is within 2^-101 of the value, relative: under 2^-48 of the
    # gap between doubles there.  Where the tail is within 2^-38 of the gap
    # from half the gap, the value could round either way, and that field
    # alone takes float().  The gap is the one on the tail's side: above out,
    # or below it for a negative tail, half as wide when out is a power of
    # two.  gap holds 2^52 times it, the exponent bits of out or of the
    # double below it
    gap = out.view(np.int64) - (tail < 0)
    gap &= _EXPONENT_BITS
    gap = gap.view(np.float64)
    np.abs(tail, out=tail)
    tail -= gap * 2.0**-53
    np.abs(tail, out=tail)
    gap *= 2.0**-90
    # strict: a zero out has a zero tail and gap
    for i in np.flatnonzero(tail < gap).tolist():
        out[i] = float(b[start[i] + neg[i]:end[i]].tobytes())
    np.negative(out, out=out, where=neg)
    return out


def shaped_values(data: bytes, start: int) -> np.ndarray | None:
    """The (rows, 2) values of the body ``data[start:]`` when each of its
    lines is in the writer's shape, two fields ``-?digits[.digits]`` with at
    most 15 integer digits and 22 decimals, the last LF optional; else None.

    Every value is bit for bit ``float(field)``.  The body is read in blocks
    of ``_BLOCK_BYTES`` bytes cut at a line end, each copied after a pad of
    "0" bytes into one buffer, whose 40-byte windows give each field's digits
    as unaligned little-endian words.
    """
    if start >= len(data):
        return None
    rows = data.count(b"\n", start) + (data[-1] != ord("\n"))
    values = np.empty((rows, 2))
    fields = values.reshape(-1)
    masks = _shape_masks()
    # the pad, a block, a last LF it may lack and the 24 bytes of its last
    # field's window past that LF
    buffer = np.full(_PAD + min(_BLOCK_BYTES, len(data) - start) + 25, ord("0"), np.uint8)
    windows = np.ndarray((buffer.size - 39,), "V40", buffer, 0, (1,))
    done = 0
    while start < len(data):
        stop = min(start + _BLOCK_BYTES, len(data))
        if stop < len(data):
            stop = data.rfind(b"\n", start, stop) + 1
            if not stop:
                return None  # a line longer than a block
        size = stop - start
        buffer[_PAD:_PAD + size] = np.frombuffer(data, np.uint8, size, start)
        if data[stop - 1] != ord("\n"):
            buffer[_PAD + size] = ord("\n")
            size += 1
        block = _shaped_block(buffer[:_PAD + size], windows, masks)
        if block is None:
            return None
        fields[done:done + block.size] = block
        done += block.size
        start = stop
    return values

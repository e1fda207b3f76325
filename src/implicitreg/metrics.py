"""Fit-quality geometry and comparison metrics.

The data vector, the mean vector, and the estimate vector span a
triangle with side lengths sqrt(SSM), sqrt(SSE), sqrt(SST).  Because the
estimate vector here solves an implicit equation for *both* axes, the square
sums stack the x and y coordinates; the error side is then generally not
perpendicular to the base, and its separation angle theta_T (90 degrees
for classical one-axis least squares) measures how far a model departs
from the orthogonal decomposition.

The height h of the triangle is its ``projection`` reading: the component
of the error side along the data-mean base per root-n,
|SSE + (SST - SSM)| / (2 sqrt(n SST)), the reading calibrated against the
bundled Boyle analysis.
"""

from __future__ import annotations

import math
import sys
from enum import Enum

import numpy as np

from .dataio import Dataset
from .errors import ImplicitRegressionError
from .fitcore import _PERFECT_FIT_RTOL
from .implicit import Prediction
from .records import Record

_COS_CLAMP_TOL = 1e-9
# ranks tie within this fraction of the column's largest magnitude
_RANK_TIE_TOL = 1e-9


class SquareSums(Record):
    """Model/error/total square sums over the included observations.

    ``sst_uncentered`` is the observations' own sum of squares about zero,
    the scale below which an SSE counts as rounding (see ``is_perfect``);
    left at 0, only an exact SSE = 0 does.
    """

    __slots__ = _fields = ("ssm", "sse", "sst", "n", "sst_uncentered")

    def __init__(self, ssm: float, sse: float, sst: float, n: int, sst_uncentered: float = 0.0):
        self._set(ssm, sse, sst, n, sst_uncentered)

    @property
    def is_perfect(self) -> bool:
        """The fit is exact up to rounding: SSE is within rounding of zero
        relative to the observations' own sum of squares."""
        return self.sse <= _PERFECT_FIT_RTOL * self.sst_uncentered


def row_square_sums(obs: np.ndarray, est: np.ndarray,
                    mean: float) -> tuple[np.ndarray, np.ndarray]:
    """Per row of the solves ``est`` (k, rows) of one axis against that
    axis's observations ``obs``: (SSE, SSM), the sums of (obs - est)^2 and
    of (est - mean)^2.

    The squares are taken in place, and ``est`` is overwritten.  Each row
    is summed as the 1-d array of its own values would be, so a row holds
    the bits of that model's sums.
    """
    dev = est - mean
    np.square(dev, out=dev)
    ssm = dev.sum(axis=1)
    np.subtract(obs, est, out=est)
    np.square(est, out=est)
    return est.sum(axis=1), ssm


def square_sums(n: int, axis_sums, axis_sse, axis_ssm) -> SquareSums | None:
    """The square sums of solves over ``n`` rows, from each axis's (y, then
    x) SSE and SSM and its ``Dataset.axis_sums`` over those rows; None
    below 3 rows.  Raises an ``ImplicitRegressionError`` where the sums
    add up past the float range."""
    if n < 3:
        return None
    (_, sst_y, sum_sq_y), (_, sst_x, sum_sq_x) = axis_sums
    sums = SquareSums(axis_ssm[0] + axis_ssm[1], axis_sse[0] + axis_sse[1], sst_y + sst_x,
                      n, sum_sq_y + sum_sq_x)
    # none is negative, so a finite total keeps the triangle's sums of them finite
    if not math.isfinite(sums.ssm + sums.sse + sums.sst + sums.sst_uncentered):
        raise ImplicitRegressionError("square sums overflow the float range")
    return sums


def pairwise_square_sums(data: Dataset, pred: Prediction) -> tuple[list, list, SquareSums | None]:
    """Per axis (y, then x) the count of ``pred``'s defined solves and their
    SSE, and the ``square_sums`` of the rows where both solves are defined
    (None below 3 rows), each sum the whole-array expression over those
    rows compacted.  Raises an ``ImplicitRegressionError`` where an axis's
    SSE, or the ``square_sums``, overflow."""
    axes = ((data.y, pred.y_hat, pred.y_defined), (data.x, pred.x_hat, pred.x_defined))
    n_defs = [int(np.count_nonzero(own)) for _, _, own in axes]
    pair = pred.y_defined & pred.x_defined
    rows = Dataset(data.x_label, data.y_label, data.x[pair], data.y[pair])
    # a sum past the float range is inf, which is reported below
    with np.errstate(over="ignore"):
        axis_sse = [float(((obs[own] - est[own]) ** 2).sum()) for obs, est, own in axes]
        if not all(map(math.isfinite, axis_sse)):
            raise ImplicitRegressionError("square sums overflow the float range")
        if rows.n < 3:
            return n_defs, axis_sse, None
        # est[pair] is a copy, which the squares overwrite
        sums = [row_square_sums(obs, est[pair][np.newaxis], mean)
                for (_, est, _), obs, (mean, _, _) in zip(axes, (rows.y, rows.x), rows.axis_sums)]
    sse, ssm = np.concatenate(sums, axis=1).tolist()  # rows SSE and SSM, columns y and x
    return n_defs, axis_sse, square_sums(rows.n, rows.axis_sums, sse, ssm)


def separation_angle(s: SquareSums) -> float | None:
    """Angle at the estimate vertex, in degrees; None when SSM vanishes or
    the fit is perfect up to rounding (a perfect or null fit has no angle).
    """
    if s.ssm <= 0.0 or s.is_perfect:
        return None
    product = s.ssm * s.sse  # rooted side by side where it underflows or overflows
    root = (math.sqrt(product) if sys.float_info.min <= product < math.inf
            else math.sqrt(s.ssm) * math.sqrt(s.sse))
    cos = (s.ssm + s.sse - s.sst) / (2.0 * root)
    if abs(cos) > 1.0 + _COS_CLAMP_TOL:
        raise ValueError(
            f"square sums violate the triangle inequality (cos = {cos:.6g})"
        )
    return math.degrees(math.acos(min(max(cos, -1.0), 1.0)))


def relative_height(s: SquareSums) -> float | None:
    """Height h of the data-mean-estimate triangle; see module docs.

    A perfect fit (SSE = 0 up to rounding) has height 0; None for SST = 0.
    """
    if s.sst <= 0.0:
        return None
    if s.is_perfect:
        return 0.0
    base = s.n * s.sst  # rooted side by side where it overflows
    root = math.sqrt(base) if base < math.inf else math.sqrt(s.n) * math.sqrt(s.sst)
    # SST - SSM first: SSE added to SST alone is lost below ~1e-16 SST
    return abs(s.sse + (s.sst - s.ssm)) / (2.0 * root)


def standard_error(sse: float, n_def: int, n_params: int) -> float | None:
    """sqrt(SSE / (n_def - n_params)) over n_def defined solves; None unless n_def > n_params."""
    if n_def <= n_params:
        return None
    return math.sqrt(sse / (n_def - n_params))


class RankDirection(Enum):
    ASCENDING_BETTER = "ascending"
    DESCENDING_BETTER = "descending"
    NEAREST_90_BETTER = "nearest-90"


def rank_models(values, direction: RankDirection) -> np.ndarray:
    """Average ranks (1 = best) with ties shared.

    Values that differ by at most 1e-9 times the column's largest magnitude
    (chained) receive the mean of their positional ranks, so the ranks
    always sum to n(n+1)/2 and do not change with the column's units.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("values must be a non-empty 1-d sequence")
    values = values.tolist()
    if not all(map(math.isfinite, values)):
        raise ValueError("values must all be defined")

    if direction is RankDirection.ASCENDING_BETTER:
        merit = values
    elif direction is RankDirection.DESCENDING_BETTER:
        merit = [-v for v in values]
    elif direction is RankDirection.NEAREST_90_BETTER:
        merit = [abs(v - 90.0) for v in values]
    else:
        raise ValueError(f"unknown direction {direction!r}")

    tie_tol = _RANK_TIE_TOL * max(map(abs, values))
    order = sorted(range(len(merit)), key=merit.__getitem__)
    ranks = [0.0] * len(merit)
    start = 0
    for end in range(1, len(merit) + 1):
        # a tie group closes where the sorted merit steps by more than tie_tol
        if end == len(merit) or merit[order[end]] - merit[order[end - 1]] > tie_tol:
            mean_rank = (start + end + 1) / 2.0  # average of 1-based positions start+1 .. end
            for k in order[start:end]:
                ranks[k] = mean_rank
            start = end
    return np.array(ranks)

"""Bidirectional prediction from a fitted implicit model.

Every model over the basis {1, x, y, x*y, x^2, 1/x} is affine in y once x
is fixed, so y-prediction is a single linear solve.  Solving for x is
affine or quadratic (x^2 terms, or 1/x after multiplying through by x);
the quadratic case follows the inversion rule: complex roots take the
real part, two real roots take the one nearest the observed x, and an
exact tie takes the smaller root.

Singular denominators never produce a substituted value: the entry is
flagged undefined (NaN) and counted.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .dataio import Dataset
from .errors import DegenerateDataError, UnsupportedModelError
from .fitcore import FitResult
from .formula import TERM_POWERS, ModelSpec, Term, times_power
from .records import Record, eq_with_arrays

_SINGULAR_RTOL = 1e-12
# the floating-point conditions a solve meets by design, each of which
# leaves a non-finite entry that becomes NaN
SOLVE_ERRSTATE = {"divide": "ignore", "invalid": "ignore", "over": "ignore"}


class Prediction(Record):
    """Per-observation solves of the fitted equation for each axis.

    Undefined entries are NaN; ``x_complex`` marks x-solves where a
    negative discriminant forced the real-part estimate, and
    ``y_defined`` / ``x_defined`` mark the finite solves.
    """

    __slots__ = _fields = ("y_hat", "x_hat", "x_complex", "y_defined", "x_defined")
    __eq__ = eq_with_arrays

    def __init__(self, y_hat: np.ndarray, x_hat: np.ndarray, x_complex: np.ndarray):
        # read-only views: the caller's arrays stay writeable, uncopied
        given = [np.asarray(arr).view() for arr in (y_hat, x_hat, x_complex)]
        arrays = given + [np.isfinite(given[0]), np.isfinite(given[1])]
        for arr in arrays:
            arr.flags.writeable = False
        self._set(*arrays)


@cache
def _equation(spec: ModelSpec, axis: int) -> dict[int, tuple[list, list]]:
    """The fitted equation sum(c_j * term_j) = 0 by powers of x (``axis=0``)
    or y (``axis=1``): per power, in term order, the pairs (j, power p of the
    other axis in term_j), split into those before the first p != 0 and the
    rest.  c_0 = +1 is the response's; the estimates are negated."""
    powers: dict = {}
    for j, term in enumerate((spec.response, *spec.coefficient_terms)):
        p = TERM_POWERS[Term.ONE if term is None else term]
        lead, rest = powers.setdefault(p[axis], ([], []))
        (rest if rest or p[1 - axis] else lead).append((j, p[1 - axis]))
    return powers


def _sum(out: np.ndarray, coefs, terms, other: np.ndarray, scale=None) -> np.ndarray:
    """Sum into ``out`` from zero, in order, one power's addends c_j * other**p,
    the leading floats (p = 0) as floats, and their magnitudes into ``scale`` if given."""
    lead, rest = terms
    total = mags = 0
    for j, _ in lead:
        total, mags = total + coefs[j], mags + abs(coefs[j])
    for arr, value in ((out, total), (scale, mags)):
        if arr is not None:
            arr.fill(value)
    for j, p in rest:
        addend = times_power(coefs[j], other, p)
        out += addend
        if scale is not None:
            # an addend is a float at p = 0, else an array of its own
            scale += np.abs(addend, out=addend) if p else abs(addend)
    return out


def _estimate(fit: FitResult, term: Term) -> float:
    """``fit``'s estimate of ``term``, 0.0 where its model has none."""
    terms = fit.spec.coefficient_terms
    return fit.estimates[terms.index(term)] if term in terms else 0.0


def solve_error(fit: FitResult) -> UnsupportedModelError | None:
    """The error of every x-solve of ``fit`` whose x^2 and 1/x estimates are
    both nonzero (NaN included): clearing the 1/x by multiplying through by
    x makes the x-equation cubic.  None for every other fit."""
    if _estimate(fit, Term.X_SQUARED) and _estimate(fit, Term.INV_X):
        return UnsupportedModelError(f"{fit.spec} mixes x^2 and 1/x; no closed-form x solve")
    return None


def solve_fits(fits: list, x: np.ndarray, y: np.ndarray, axis: int,
               est: np.ndarray) -> np.ndarray:
    """Solve each of ``fits`` for x (``axis=0``) at each observed y, or for
    y (``axis=1``) at each observed x, on one row block (x, y), into its row
    of ``est`` (fits, rows), NaN where the denominator is (near) zero; returns
    the (fits, rows) mask of complex x-solves.  Raises ``solve_error(fit)``
    for the x-solve of a fit that has one.  Run it under
    ``np.errstate(**SOLVE_ERRSTATE)``.

    The equation is at most quadratic in the solved axis; the x-equation is
    multiplied through by x when the 1/x estimate is nonzero, which every
    block reads off the estimates alike.  Each fit's coefficients are summed
    on their own, the constant one into its row; the tail from the negation
    on serves all fits at once.
    """
    other = x if axis else y
    singular = np.zeros(est.shape, dtype=bool)
    complex_mask = np.zeros(est.shape, dtype=bool)
    b, scale = np.empty((2, x.size))
    quadratics = []
    for k, (fit, row) in enumerate(zip(fits, est)):
        powers, coefs = _equation(fit.spec, axis), (1.0, *(-e for e in fit.estimates))
        if not axis and (error := solve_error(fit)) is not None:
            raise error
        # the power holding the constant coefficient: -1 once a 1/x term is
        # multiplied through by x
        low = -1 if -1 in powers and _estimate(fit, Term.INV_X) else 0
        # a missing power reads as a zero coefficient
        _sum(row, coefs, powers.get(low, ((), ())), other)
        _sum(b, coefs, powers.get(low + 1, ((), ())), other, scale)
        np.less_equal(np.abs(b), np.multiply(scale, _SINGULAR_RTOL, out=scale), out=singular[k])
        # only an x-solve can be quadratic: x^2, or x after the multiply
        if low + 2 in powers:
            a = _sum(np.empty(x.size), coefs, powers[low + 2], other, scale)
            affine = np.abs(a) <= _SINGULAR_RTOL * scale
            if not affine.all():
                quadratics.append((k, a, b.copy(), row.copy(), affine))
        np.divide(row, b, out=row)
    np.negative(est, out=est)
    est[singular] = np.nan
    del b, scale, singular
    for k, a, b, c, affine in quadratics:
        # q = -(b + sign(b) sqrt(disc)) / 2, sign(+-0) = +1; one pass per step
        disc = b * b - 4.0 * a * c
        flagged = ~affine & (disc < 0.0)
        sq = np.sqrt(disc)
        np.negative(sq, out=sq, where=b < 0.0)
        q = -(b + sq) / 2.0
        r1, r2 = q / a, c / q
        zero = q == 0.0
        r1[zero] = r2[zero] = 0.0
        d1, d2 = np.abs(r1 - x), np.abs(r2 - x)
        # the root nearest the observed x; an exact tie takes the smaller
        smaller = np.where(r2 < r1, r2, r1)
        nearest = np.where(d1 < d2, r1, np.where(d2 < d1, r2, smaller))
        nearest[flagged] = -b[flagged] / (2.0 * a[flagged])
        nearest[affine] = est[k, affine]
        est[k], complex_mask[k] = nearest, flagged
    est[~np.isfinite(est)] = np.nan
    return complex_mask


def predict(fit: FitResult, data: Dataset) -> Prediction:
    """Solve for y at each observed x and x at each observed y, block by
    block of ``data.row_blocks()`` into n-row arrays; NaN where singular.
    Raises ``solve_error(fit)``, or an error if every solve is singular.
    Every row runs the same operations, so no bit depends on the blocks.
    Rows with an undefined solve come here from ``compare``'s row sweep,
    which drops them pairwise, as do Boyle's overlays."""
    y_hat, x_hat = np.empty((2, 1, data.n))
    x_complex = np.empty(data.n, dtype=bool)
    start = 0
    with np.errstate(**SOLVE_ERRSTATE):
        for x, y in data.row_blocks():
            rows = slice(start, start + x.size)
            solve_fits([fit], x, y, 1, y_hat[:, rows])
            x_complex[rows] = solve_fits([fit], x, y, 0, x_hat[:, rows])[0]
            start = rows.stop
    pred = Prediction(y_hat=y_hat[0], x_hat=x_hat[0], x_complex=x_complex)
    if not (pred.y_defined.any() or pred.x_defined.any()):
        raise DegenerateDataError(f"every solve of {fit.spec} hit a singular denominator")
    return pred

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

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .dataio import Dataset
from .errors import DegenerateDataError, UnsupportedModelError
from .fitcore import FitResult
from .formula import TERM_POWERS, Term, times_power

_SINGULAR_RTOL = 1e-12
# the floating-point conditions a solve meets by design, each of which
# leaves a non-finite entry that becomes NaN
SOLVE_ERRSTATE = {"divide": "ignore", "invalid": "ignore", "over": "ignore"}


@dataclass(frozen=True)
class Prediction:
    """Per-observation solves of the fitted equation for each axis.

    Undefined entries are NaN; ``x_complex`` marks x-solves where a
    negative discriminant forced the real-part estimate, and
    ``y_defined`` / ``x_defined`` mark the finite solves.
    """

    y_hat: np.ndarray
    x_hat: np.ndarray
    x_complex: np.ndarray
    y_defined: np.ndarray = field(init=False)
    x_defined: np.ndarray = field(init=False)

    def __post_init__(self):
        for name in ("y_hat", "x_hat", "x_complex"):
            arr = np.asarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        for axis in ("y", "x"):
            defined = np.isfinite(getattr(self, f"{axis}_hat"))
            defined.flags.writeable = False
            object.__setattr__(self, f"{axis}_defined", defined)


def _polynomial(fit: FitResult, x: np.ndarray, y: np.ndarray, axis: int) -> tuple[dict, dict]:
    """The fitted equation over one row block (x, y) as a polynomial in x
    (``axis=0``) or y (``axis=1``).

    The equation is sum(c_j * term_j) = 0, with the response at c = +1 and
    the intercept (as ``Term.ONE``) and predictors at their estimates
    negated.  Maps each power of the solved axis to its per-observation
    coefficient, which carries the other axis at its observed value; the
    second map lists, per power, the addends summed into that coefficient.
    """
    other = x if axis else y
    coefs = defaultdict(lambda: np.zeros(x.size))
    addends = defaultdict(list)
    signed = [(1.0, fit.spec.response)]
    signed += ((-estimate, Term.ONE if term is None else term)
               for term, estimate in zip(fit.spec.coefficient_terms, fit.estimates))
    for c, term in signed:
        powers = TERM_POWERS[term]
        addend = times_power(c, other, powers[1 - axis])
        coefs[powers[axis]] += addend
        addends[powers[axis]].append(addend)
    return coefs, addends


def _vanishes(coef: np.ndarray, addends: list) -> np.ndarray:
    """Where a coefficient is zero up to the rounding of the addends it was
    summed from.

    The test compares like units, so it gives the same answer in any units.
    """
    return np.abs(coef) <= _SINGULAR_RTOL * sum(np.abs(addend) for addend in addends)


def solve_block(fit: FitResult, x: np.ndarray, y: np.ndarray,
                axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Solve the fitted equation for x (``axis=0``) at each observed y, or
    for y (``axis=1``) at each observed x, on one row block (x, y); returns
    (solves, complex_mask), with NaN where the denominator is (near) zero.
    Run it under ``np.errstate(**SOLVE_ERRSTATE)``.

    The equation is at most quadratic in the solved axis; a 1/x term that
    does not vanish is cleared by multiplying through by x.  The x-equation's
    1/x and x^2 coefficients are minus their estimates on every row, so every
    block makes that choice, and raises for a model with both, alike.
    """
    coefs, addends = _polynomial(fit, x, y, axis)
    # the power holding the constant coefficient: -1 once a 1/x term that
    # does not vanish is multiplied through by x, which x^2 would make cubic
    low = -1 if -1 in coefs and not _vanishes(coefs[-1], addends[-1]).all() else 0
    if low and coefs[2].any():
        raise UnsupportedModelError(f"{fit.spec} mixes x^2 and 1/x; no closed-form x solve")
    # a missing power reads as a zero coefficient
    b, c = coefs[low + 1], coefs[low]
    hat = np.where(_vanishes(b, addends[low + 1]), np.nan, -c / b)
    complex_mask = np.zeros(x.size, dtype=bool)
    # only an x-solve can be quadratic: x^2, or x after the multiply
    a = coefs.get(low + 2)
    affine = None if a is None else _vanishes(a, addends[low + 2])
    if affine is not None and not affine.all():
        # q = -(b + sign(b) sqrt(disc)) / 2, sign(+-0) = +1; one pass per step
        disc = b * b - 4.0 * a * c
        complex_mask = ~affine & (disc < 0.0)
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
        nearest[complex_mask] = -b[complex_mask] / (2.0 * a[complex_mask])
        nearest[affine] = hat[affine]
        hat = nearest
    hat[~np.isfinite(hat)] = np.nan
    return hat, complex_mask


def predict(fit: FitResult, data: Dataset) -> Prediction:
    """Solve for y at each observed x and x at each observed y over all of
    ``data``'s rows at once; NaN where singular, and raises if every solve
    is.  Report rows with an undefined solve come here from ``compare``'s
    row sweep, which drops their rows pairwise, as do Boyle's overlays."""
    with np.errstate(**SOLVE_ERRSTATE):
        y_hat = solve_block(fit, data.x, data.y, axis=1)[0]
        x_hat, complex_mask = solve_block(fit, data.x, data.y, axis=0)
    pred = Prediction(y_hat=y_hat, x_hat=x_hat, x_complex=complex_mask)
    if not (pred.y_defined.any() or pred.x_defined.any()):
        raise DegenerateDataError(f"every solve of {fit.spec} hit a singular denominator")
    return pred

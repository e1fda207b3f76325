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

from dataclasses import dataclass

import numpy as np

from .dataio import Dataset
from .errors import DegenerateDataError, UnsupportedModelError
from .fitcore import FitResult
from .formula import Term

_SINGULAR_RTOL = 1e-12


@dataclass(frozen=True)
class Prediction:
    """Per-observation solves of the fitted equation for each axis.

    Undefined entries are NaN; ``x_complex`` marks x-solves where a
    negative discriminant forced the real-part estimate.
    """

    y_hat: np.ndarray
    x_hat: np.ndarray
    x_complex: np.ndarray

    def __post_init__(self):
        for name in ("y_hat", "x_hat", "x_complex"):
            arr = np.asarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def y_defined(self) -> np.ndarray:
        return np.isfinite(self.y_hat)

    @property
    def x_defined(self) -> np.ndarray:
        return np.isfinite(self.x_hat)

    @property
    def undefined_count_y(self) -> int:
        return int((~self.y_defined).sum())

    @property
    def undefined_count_x(self) -> int:
        return int((~self.x_defined).sum())

    @property
    def complex_count_x(self) -> int:
        return int(self.x_complex.sum())


def _signed_terms(fit: FitResult) -> list[tuple[float, Term | None]]:
    """The fitted equation as sum(c_j * term_j) = 0.

    The response enters with coefficient +1, the intercept and predictors
    with their negated estimates.
    """
    out: list[tuple[float, Term | None]] = [(1.0, fit.spec.response)]
    for coef in fit.coefficients:
        out.append((-coef.estimate, coef.term))
    return out


def _coefficient_scale(fit: FitResult) -> float:
    scale = max((abs(c.estimate) for c in fit.coefficients), default=0.0)
    return scale if scale > 0.0 else 1.0


def predict_y(fit: FitResult, data: Dataset) -> np.ndarray:
    """Solve the fitted equation for y at each observed x.

    Entries where the y-coefficient is (near) zero are NaN.
    """
    x = data.x
    n = data.n
    a = np.zeros(n)  # coefficient of y
    b = np.zeros(n)  # y-free part
    with np.errstate(divide="ignore", invalid="ignore"):
        for c, term in _signed_terms(fit):
            if term is None or term is Term.ONE:
                b += c
            elif term is Term.X:
                b += c * x
            elif term is Term.Y:
                a += c
            elif term is Term.XY:
                a += c * x
            elif term is Term.X_SQUARED:
                b += c * x * x
            elif term is Term.INV_X:
                b += c / x
        tol = _SINGULAR_RTOL * _coefficient_scale(fit)
        y_hat = np.where(np.abs(a) > tol, -b / a, np.nan)
    y_hat[~np.isfinite(y_hat)] = np.nan
    return y_hat


def _solve_x(fit: FitResult, data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Solve for x at each observed y; returns (x_hat, complex_mask)."""
    y = data.y
    x_obs = data.x
    n = data.n
    quad = np.zeros(n)   # x^2
    lin = np.zeros(n)    # x
    const = np.zeros(n)  # 1
    inv = np.zeros(n)    # 1/x
    for c, term in _signed_terms(fit):
        if term is None or term is Term.ONE:
            const += c
        elif term is Term.X:
            lin += c
        elif term is Term.Y:
            const += c * y
        elif term is Term.XY:
            lin += c * y
        elif term is Term.X_SQUARED:
            quad += c
        elif term is Term.INV_X:
            inv += c

    if np.any(inv != 0.0):
        if np.any(quad != 0.0):
            raise UnsupportedModelError(
                f"{fit.spec} mixes x^2 and 1/x; no closed-form x solve"
            )
        # multiply the equation through by x
        quad, lin, const = lin, const, inv

    tol = _SINGULAR_RTOL * _coefficient_scale(fit)
    x_hat = np.full(n, np.nan)
    complex_mask = np.zeros(n, dtype=bool)
    for i in range(n):
        a, b, c = quad[i], lin[i], const[i]
        if abs(a) <= tol:
            if abs(b) > tol:
                x_hat[i] = -c / b
            continue
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            x_hat[i] = -b / (2.0 * a)
            complex_mask[i] = True
            continue
        sq = np.sqrt(disc)
        q = -(b + sq) / 2.0 if b >= 0.0 else -(b - sq) / 2.0
        if q == 0.0:
            r1 = r2 = 0.0
        else:
            r1, r2 = q / a, c / q
        d1, d2 = abs(r1 - x_obs[i]), abs(r2 - x_obs[i])
        if d1 < d2:
            x_hat[i] = r1
        elif d2 < d1:
            x_hat[i] = r2
        else:
            x_hat[i] = min(r1, r2)
    x_hat[~np.isfinite(x_hat)] = np.nan
    return x_hat, complex_mask


def predict_x(fit: FitResult, data: Dataset) -> np.ndarray:
    """Solve the fitted equation for x at each observed y."""
    x_hat, _ = _solve_x(fit, data)
    return x_hat


def predict(fit: FitResult, data: Dataset) -> Prediction:
    """Solve for both axes; raises if every solve is singular."""
    y_hat = predict_y(fit, data)
    x_hat, complex_mask = _solve_x(fit, data)
    if not (np.any(np.isfinite(y_hat)) or np.any(np.isfinite(x_hat))):
        raise DegenerateDataError(
            f"every solve of {fit.spec} hit a singular denominator"
        )
    return Prediction(y_hat=y_hat, x_hat=x_hat, x_complex=complex_mask)

"""Linear least squares with coefficient inference and model reduction.

Fitting goes through QR decompositions rather than the normal equations:
the interaction column x*y can be three orders of magnitude larger than x
or y, and the orthogonal factorization keeps the conditioning manageable.
A dataset is factored once, as the R of its six basis columns, and each
model is then solved from the QR of its own columns of that R: the models
of one ``BasisQR.fits`` call, or of one lockstep elimination step
(``reduce_models``), share one zero-padded stacked QR.  That small QR
drives a deterministic rank check: a column whose residual norm after
projection onto the model's preceding columns falls below 1e-10 of its
own norm is declared collinear.

Nothing here imports scipy.  A two-sided p-value is the Student t tail
``t_tail`` below, computed when it is read; backward elimination drops on it.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property

import numpy as np

from .dataio import Dataset
from .errors import (DegenerateDataError, DomainError, ImplicitRegressionError,
                     InsufficientDataError, SingularDesignError)
from .formula import ModelSpec, Term, eval_term
from .records import Record

_RANK_RTOL = 1e-10
# an SSE at most this fraction of the observations' own sum of squares is
# rounding: an RMS residual within 1e-13 of the data's RMS magnitude
_PERFECT_FIT_RTOL = 1e-26
# the columns of Z, the basis every design and response is drawn from
_BASIS = (Term.ONE, Term.X, Term.Y, Term.XY, Term.X_SQUARED, Term.INV_X)
# backward elimination drops a predictor whose p-value exceeds this
ALPHA = 0.05


class Coefficient(Record):
    """One estimated coefficient with its t-test on ``dof`` residual degrees
    of freedom; ``term`` is None for the intercept."""

    __slots__ = _fields = ("term", "estimate", "std_error", "t_stat", "dof")

    def __init__(self, term: Term | None, estimate: float, std_error: float, t_stat: float,
                 dof: int):
        self._set(term, estimate, std_error, t_stat, dof)

    @property
    def label(self) -> str:
        return "intercept" if self.term is None else self.term.value

    @property
    def p_value(self) -> float:
        """Two-sided p-value, ``t_tail(dof, t_stat)``."""
        return t_tail(self.dof, self.t_stat)


class FitResult(Record):
    """Estimates, residual sum of squares and R^2 of one fit.

    ``estimates`` follow ``spec.coefficient_terms``.  ``coefficients`` adds
    standard errors and t statistics when first read, as elimination and
    ``fit``'s printout do; no other fit pays for inverting its R.

    ``sse`` is the residual sum of squares in the response, read off the
    dataset's R as the squared norm of the response's column of R less
    the model's columns times the estimates.  ``r_squared`` is 1 - SSE/SST
    with SST about the response mean for a model with an intercept and at
    least one predictor, and about zero otherwise.  The non-response form
    has no intercept, so its R^2 is uncentered.  So is that of an
    intercept-only model (e.g. a rotation reduced to a constant): its
    centered R^2 is zero by construction, while the uncentered one
    measures the constancy of the response, which is what the comparison
    is after.
    """

    _fields = ("spec", "n", "estimates", "sse", "r_squared", "residual_dof")

    def __init__(self, spec: ModelSpec, n: int, estimates: tuple[float, ...], sse: float,
                 r_squared: float, residual_dof: int, basis: BasisQR | None = None,
                 _r: np.ndarray | None = None, _sigma2: float = 0.0,
                 _norms: np.ndarray | None = None):
        # not compared: ``basis``, the factorised dataset backward elimination refits on,
        # and the R of the model's columns, the floored residual variance and their norms
        self.__dict__.update(spec=spec, n=n, estimates=estimates, sse=sse, r_squared=r_squared,
                             residual_dof=residual_dof, basis=basis, _r=_r, _sigma2=_sigma2,
                             _norms=_norms)

    @cached_property
    def coefficients(self) -> tuple[Coefficient, ...]:
        """The estimates with their classical standard errors and t statistics."""
        # R's columns divided by powers of two above their norms (at most
        # 2^1023), and sigma^2 by an even power of two, so that neither R's
        # inverse nor the covariance overflows; each division is exact, and
        # each SE is scaled back
        scale = np.ldexp(1.0, np.minimum(np.frexp(self._norms)[1], 1023))
        half = math.frexp(self._sigma2)[1] // 2
        r_inv = np.linalg.inv(self._r / scale)
        cov = math.ldexp(self._sigma2, -2 * half) * (r_inv @ r_inv.T)
        std_errors = np.ldexp(np.sqrt(cov.diagonal()), half) / scale
        t_stats = np.asarray(self.estimates) / std_errors
        dofs = [self.residual_dof] * len(self.estimates)
        return tuple(map(Coefficient, self.spec.coefficient_terms, self.estimates,
                         std_errors.tolist(), t_stats.tolist(), dofs))

    def coefficient(self, term: Term | None) -> Coefficient:
        """Look up a coefficient by term (``None`` for the intercept)."""
        for coef in self.coefficients:
            if coef.term is term:
                return coef
        raise KeyError(f"model has no coefficient for {term}")


def _back_substitute(R: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the upper-triangular system ``R @ coefs = rhs`` row by row.

    This keeps the last bits the golden outputs pin; ``np.linalg.solve``
    goes through an LU factorization and rounds differently.
    """
    p = len(rhs)
    coefs = np.empty(p)
    for i in range(p - 1, -1, -1):
        coefs[i] = (rhs[i] - R[i, i + 1:] @ coefs[i + 1:]) / R[i, i]
    return coefs


class BasisQR:
    """One dataset's basis matrix Z = [1, x, y, xy, x^2, 1/x], kept as the
    R factor of its QR decomposition.

    Every design and every response of the grammar is a column of Z, so
    each fit, and each refit of backward elimination, is a least-squares
    problem on at most 6 x 4 columns of R.  A fit reads nothing but R: its
    SSE and its response's sums are norms of columns of R and of their
    combinations, since ||Z a|| = ||R a||, so no fit or refit passes over
    the n data rows.  R is built from the dataset's ``row_blocks``, the
    blocks the solves and the CSV writer walk too; each is reduced to its
    own R before the stacked block Rs are factored once more, so Z itself
    is never held.  The square sums of a fit's solves are summed block by
    block, in the row sweep of ``compare`` that every report's rows come
    from.  When any x = 0 the 1/x column is left out and only fits that
    use it fail, as do those that use a column whose norm overflows.
    """

    def __init__(self, data: Dataset):
        self.n = data.n
        self.terms = _BASIS if not np.any(data.x == 0.0) else _BASIS[:-1]
        # an empty dataset still gets its (empty) R; each fit then reports
        # too few observations
        with np.errstate(over="ignore", invalid="ignore"):
            blocks = [np.linalg.qr(np.column_stack([eval_term(term, x, y) for term in self.terms]),
                                   mode="r") for x, y in data.row_blocks()]
            self.r = blocks[0] if len(blocks) == 1 else np.linalg.qr(np.vstack(blocks), mode="r")
            # ||Z_j|| = ||R[:, j]|| since Z = QR with orthonormal Q; hypot takes
            # it without squaring an entry, so only a norm past the range overflows
            self.column_norms = np.hypot.reduce(self.r, axis=0, initial=0.0)
        # a column past the float range, and maybe those factored after it
        self.overflowed = {t for t, v in zip(self.terms, self.column_norms) if not np.isfinite(v)}

    def fits(self, specs) -> list[FitResult | ImplicitRegressionError]:
        """Fit each spec with one QR of their columns of R, stacked and
        zero-padded to the widest design; a spec that cannot be fit gets the
        error ``fit_ols`` raises for it in its place.  A zero column adds nothing
        to the reflections, so each member's q[:, :p] and R[:p, :p] are its own QR."""
        results: list = []  # per spec: its columns of R until it is fit, or its error
        for spec in specs:
            terms = [Term.ONE if t is None else t for t in spec.coefficient_terms]
            if Term.INV_X in terms and Term.INV_X not in self.terms:
                results.append(DomainError("1/x is undefined at x = 0"))
            elif self.n <= len(terms):
                results.append(InsufficientDataError(f"need more than {len(terms)} "
                               f"observations to fit {spec}, have {self.n}"))
            elif self.overflowed and self.overflowed.intersection([spec.response, *terms]):
                results.append(ImplicitRegressionError(f"a basis column of {spec} overflows"))
            else:
                results.append([self.terms.index(t) for t in terms])
        members = [i for i, cols in enumerate(results) if isinstance(cols, list)]
        if members:
            stack = np.zeros((len(members), len(self.r), max(len(results[i]) for i in members)))
            for k, i in enumerate(members):
                stack[k, :, :len(results[i])] = self.r[:, results[i]]
            # near the top of the range an estimate may overflow; _solve fails
            # that fit on its SSE
            with np.errstate(over="ignore", invalid="ignore"):
                for i, q, R in zip(members, *np.linalg.qr(stack)):
                    p = len(results[i])
                    try:
                        results[i] = self._solve(specs[i], results[i], q[:, :p], R[:p, :p])
                    except ImplicitRegressionError as exc:
                        results[i] = exc
        return results

    def _solve(self, spec: ModelSpec, cols: list[int], q: np.ndarray, R: np.ndarray) -> FitResult:
        """The fit of ``spec`` from the QR of its columns ``cols`` of R."""
        order = spec.coefficient_terms
        # |R[j,j]| is the residual norm of design column j after projecting
        # out the previous ones; compare it against the column's own norm.
        diag = np.abs(R.diagonal())
        col_norms = self.column_norms[cols]
        bad = [
            ("intercept" if order[j] is None else order[j].value)
            for j in range(len(cols))
            if col_norms[j] == 0.0 or diag[j] < _RANK_RTOL * col_norms[j]
        ]
        if bad:
            raise SingularDesignError(
                "design matrix is rank deficient; collinear column(s): "
                + ", ".join(bad)
            )

        # q.T @ resp, the fitted values and the residuals are no longer than the
        # response, so no dot product below overflows unless resp @ resp does
        col = self.terms.index(spec.response)
        if self.column_norms[col] >= math.sqrt(sys.float_info.max):
            raise ImplicitRegressionError(f"the sum of squares of {spec.response.value} overflows")
        resp = self.r[:, col]
        coefs = _back_substitute(R, q.T @ resp)
        # ||Z a|| = ||R a|| for every a, so each sum is read off R; Z's first
        # column is 1, so R's rows below the first hold the response about
        # its mean
        residuals = resp - self.r[:, cols] @ coefs
        sse = float(residuals @ residuals)
        # every design column is nonzero (rank check above), so a non-finite
        # estimate makes the SSE non-finite
        if not math.isfinite(sse):
            raise ImplicitRegressionError(f"the estimates of {spec} overflow the float range")
        sum_sq = float(resp @ resp)
        sst = float(resp[1:] @ resp[1:]) if spec.intercept and spec.predictors else sum_sq
        dof = self.n - len(cols)
        # an SSE or SST at most this is rounding of the response's own size
        floor = _PERFECT_FIT_RTOL * sum_sq
        # 1 - SSE/SST: 1 for a fit exact up to rounding, and 0 for any
        # other fit of a response that is constant up to rounding
        r_squared = 1.0 if sse <= floor else 0.0 if sst <= floor else 1.0 - sse / sst

        # Floor the residual scale there (at the least positive float for an
        # all-zero response), so that exact fits produce finite (huge) t
        # statistics instead of 0/0, whatever the data's units.
        sigma2 = max(sse, floor, sys.float_info.min) / dof
        return FitResult(spec, self.n, tuple(coefs.tolist()), sse, r_squared, dof,
                         self, R, sigma2, col_norms)


def fit_ols(spec: ModelSpec, data: Dataset) -> FitResult:
    """Fit ``spec`` to ``data`` by least squares.

    Standard errors come from the classical covariance estimate
    sigma^2 (X'X)^-1 with sigma^2 = SSE / (n - p); each coefficient keeps
    its t statistic and the n - p degrees of freedom its two-sided p-value
    is read from.  For the non-response form the response is the constant
    1 and no intercept is estimated, so least squares minimizes the
    percent error directly.  It raises what ``BasisQR(data).fits([spec])``
    holds; to fit several models, factor the dataset once and call ``fits``.

    Raises
    ------
    DomainError
        If the model uses 1/x and some x = 0.
    InsufficientDataError
        If n <= number of coefficients.
    SingularDesignError
        If the design matrix is rank deficient, naming the collinear
        column(s).
    """
    (result,) = BasisQR(data).fits([spec])
    if isinstance(result, ImplicitRegressionError):
        raise result
    return result


def self_weighting_mean(v) -> float:
    """The magnitude-weighted mean sum(v^2) / sum(v).

    Equals the reciprocal of the no-intercept least-squares coefficient
    of the single-variable non-response fit.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    total = float(v.sum())
    if total == 0.0:
        raise DegenerateDataError("sum of values is zero")
    return float((v ** 2).sum()) / total


def constancy_index(v) -> float:
    """How constant a variable is: the uncentered R^2 of the
    single-variable non-response fit.

    Computed as (sum v)^2 / (n sum v^2), which equals 1/(1 + cv^2) with
    uncentered sample moments.  Returns exactly 1.0 for constant nonzero
    input and lies in [0, 1] otherwise.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.size == 0:
        raise DegenerateDataError("empty vector")
    sum_sq = float((v ** 2).sum())
    if sum_sq == 0.0:
        raise DegenerateDataError("all values are zero")
    if v.max() == v.min():
        return 1.0
    index = float(v.sum()) ** 2 / (v.size * sum_sq)
    return min(max(index, 0.0), 1.0)


_LOG_GAMMA_HALF = math.lgamma(0.5)
_TINY = 1e-300
_MAX_TERMS = 1000


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), evaluated by modified Lentz;
    I_x(a, b) = x^a (1 - x)^b / (a B(a, b)) times it.  NaN if it has not
    converged after ``_MAX_TERMS`` terms (no t_tail up to dof 1e12 needs
    more than 350)."""
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    h = d
    for m in range(1, _MAX_TERMS):
        a2m = a + 2 * m
        # the even term, then the odd one
        for num in (m * (b - m) * x / ((a2m - 1.0) * a2m),
                    -(a + m) * (a + b + m) * x / (a2m * (a2m + 1.0))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + num / c
            c = c if abs(c) > _TINY else _TINY
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h
    return math.nan


def _log_beta_half(a: float) -> float:
    """log B(a, 1/2) = lgamma(a) + lgamma(1/2) - lgamma(a + 1/2)."""
    if a < 1000.0:
        return math.lgamma(a) + _LOG_GAMMA_HALF - math.lgamma(a + 0.5)
    # the lgamma difference cancels for large a; its asymptotic series does not
    inv = 1.0 / a
    return (_LOG_GAMMA_HALF - 0.5 * math.log(a)
            + inv / 8.0 - inv ** 3 / 192.0 - inv ** 5 / 640.0)


def t_tail(dof: float, t: float) -> float:
    """Two-sided Student t tail P(|T| > |t|) on ``dof`` degrees of freedom.

    It is the regularised incomplete beta I_x(dof/2, 1/2) at
    x = dof / (dof + t^2).  Like ``scipy.special.stdtr``, it is 0.0 at
    t = +-inf and NaN at NaN; it is also 0.0 where t^2 overflows (an
    absolute error below 1e-154).  Over |t| <= 40 its relative error
    against ``stdtr`` is at most 6.3e-14 up to dof 30, 1.0e-11 up to 1e5,
    9.6e-11 up to 1e6 and 1.4e-7 up to 1e9; at dof 1 and 2 it matches the
    closed forms to 1e-14.
    """
    t2 = t * t
    if not math.isfinite(t2):
        return 0.0 if t2 == math.inf else math.nan
    ratio = t2 / dof
    if ratio == 0.0:  # |t| too small for P(|T| > |t|) to differ from 1
        return 1.0
    a = 0.5 * dof
    log_x = -math.log1p(ratio)  # x = dof / (dof + t^2), 1 - x = x * ratio
    front = math.exp((a + 0.5) * log_x + 0.5 * math.log(ratio) - _log_beta_half(a))
    one_minus_x = t2 / (dof + t2)
    # the fraction in x converges for x < (a + 1) / (a + 5/2); past that,
    # use I_x(a, b) = 1 - I_{1-x}(b, a)
    if one_minus_x > 1.5 / (a + 2.5):
        return front * _beta_fraction(a, 0.5, dof / (dof + t2)) / a
    return 1.0 - 2.0 * front * _beta_fraction(0.5, a, one_minus_x)


def next_to_drop(candidates: list[Coefficient]) -> Coefficient | None:
    """The predictor backward elimination drops next, or None to stop.

    The candidates share one dof, so the largest p-value belongs to the
    smallest |t|: that candidate, the first in coefficient order on a tie,
    goes if its ``p_value`` exceeds ``ALPHA``, so each decision evaluates
    one tail.
    """
    first = min(candidates, key=lambda c: abs(c.t_stat))
    return first if first.p_value > ALPHA else None


def reduce_models(fits: list) -> list[tuple]:
    """Backward elimination of ``fits``, which share one ``BasisQR``, in
    lockstep: per fit, its reduced fit (or the error of the fit or of a
    refit) and the coefficients dropped, each as it stood in the fit it left.

    Each step drops from every fit still reducing the predictor
    ``next_to_drop`` picks, and refits all the drops in one ``BasisQR.fits``
    call.  The intercept is never removed, so a model with an intercept may
    reduce to the constant model; a no-intercept model keeps at least one
    predictor.
    """
    current, steps = list(fits), [[] for _ in fits]
    live = [i for i, fit in enumerate(fits) if isinstance(fit, FitResult)]
    basis = fits[live[0]].basis if live else None
    while live:
        drops = {}
        for i in live:
            spec = (fit := current[i]).spec
            if len(spec.predictors) > (0 if spec.intercept else 1):
                worst = next_to_drop([c for c in fit.coefficients if c.term is not None])
                if worst is not None:
                    steps[i].append(worst)
                    drops[i] = ModelSpec(spec.response, tuple(
                        t for t in spec.predictors if t is not worst.term), spec.intercept)
        for i, refit in zip(drops, basis.fits(list(drops.values()))):
            current[i] = refit
        live = [i for i in drops if isinstance(current[i], FitResult)]
    return list(zip(current, steps))


def reduce_model_trace(fit: FitResult) -> tuple[FitResult, list[Coefficient]]:
    """``reduce_models`` of the one fit ``fit``; a refit that fails raises."""
    ((reduced, steps),) = reduce_models([fit])
    if isinstance(reduced, ImplicitRegressionError):
        raise reduced
    return reduced, steps

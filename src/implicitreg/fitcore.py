"""Linear least squares with coefficient inference and model reduction.

Fitting goes through a QR decomposition of the design matrix rather than
the normal equations: the interaction column x*y can be three orders of
magnitude larger than x or y, and the orthogonal factorization keeps the
conditioning manageable.  The same decomposition drives a deterministic
rank check: a column whose residual norm after projection onto the
preceding columns falls below 1e-10 of its own norm is declared
collinear.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import stdtr

from .dataio import Dataset
from .errors import DegenerateDataError, InsufficientDataError, SingularDesignError
from .formula import ModelSpec, Term, eval_term

_RANK_RTOL = 1e-10
# backward elimination drops a predictor whose p-value exceeds this
ALPHA = 0.05


@dataclass(frozen=True)
class Coefficient:
    """One estimated coefficient with its t-test."""

    term: Term | None  # None marks the intercept
    estimate: float
    std_error: float
    t_stat: float
    p_value: float

    @property
    def label(self) -> str:
        return "intercept" if self.term is None else self.term.value


@dataclass(frozen=True)
class FitResult:
    """Coefficients plus the sums-of-squares decomposition of one fit.

    ``sse`` is the residual sum of squares in the response, ``ssm`` the
    model sum of squares about the response mean, ``sst_centered`` and
    ``sst_uncentered`` the total sums about the mean and about zero.
    ``r_squared`` is centered for models with an intercept and uncentered
    otherwise (the non-response convention).
    """

    spec: ModelSpec
    n: int
    coefficients: tuple[Coefficient, ...]
    sse: float
    ssm: float
    sst_centered: float
    sst_uncentered: float
    r_squared: float
    residual_dof: int

    @property
    def r_squared_uncentered(self) -> float:
        return _r_squared(self.sse, self.sst_uncentered)

    def coefficient(self, term: Term | None) -> Coefficient:
        """Look up a coefficient by term (``None`` for the intercept)."""
        for coef in self.coefficients:
            if coef.term is term:
                return coef
        raise KeyError(f"model has no coefficient for {term}")


def _r_squared(sse: float, sst: float) -> float:
    """1 - SSE/SST; with SST = 0, 1 for an exact fit and 0 otherwise."""
    if sst <= 0.0:
        return 1.0 if sse == 0.0 else 0.0
    return 1.0 - sse / sst


def design_matrix(spec: ModelSpec, data: Dataset) -> tuple[np.ndarray, list[Term | None]]:
    """Design columns in coefficient order: intercept first, then predictors."""
    columns: list[np.ndarray] = []
    order: list[Term | None] = []
    if spec.intercept:
        columns.append(np.ones(data.n))
        order.append(None)
    for term in spec.predictors:
        columns.append(eval_term(term, data.x, data.y))
        order.append(term)
    return np.column_stack(columns), order


def response_vector(spec: ModelSpec, data: Dataset) -> np.ndarray:
    return eval_term(spec.response, data.x, data.y)


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


def fit_ols(spec: ModelSpec, data: Dataset) -> FitResult:
    """Fit ``spec`` to ``data`` by least squares.

    Standard errors come from the classical covariance estimate
    sigma^2 (X'X)^-1 with sigma^2 = SSE / (n - p); p-values are two-sided
    from the t distribution with n - p degrees of freedom.  For the
    non-response form the response is the constant 1 and no intercept is
    estimated, so least squares minimizes the percent error directly.

    Raises
    ------
    InsufficientDataError
        If n <= number of coefficients.
    SingularDesignError
        If the design matrix is rank deficient, naming the collinear
        column(s).
    """
    X, order = design_matrix(spec, data)
    resp = response_vector(spec, data)
    n, p = X.shape
    if n <= p:
        raise InsufficientDataError(
            f"need more than {p} observations to fit {spec}, have {n}"
        )

    col_norms = np.linalg.norm(X, axis=0)
    Q, R = np.linalg.qr(X)
    # |R[j,j]| is the residual norm of column j after projecting out the
    # previous columns; compare it against the column's own norm.
    diag = np.abs(np.diag(R))
    bad = [
        ("intercept" if order[j] is None else order[j].value)
        for j in range(p)
        if col_norms[j] == 0.0 or diag[j] < _RANK_RTOL * col_norms[j]
    ]
    if bad:
        raise SingularDesignError(
            "design matrix is rank deficient; collinear column(s): "
            + ", ".join(bad)
        )

    coefs = _back_substitute(R, Q.T @ resp)
    fitted = X @ coefs
    residuals = resp - fitted
    sse = float(residuals @ residuals)
    dof = n - p

    # Floor the residual scale at machine epsilon so exact fits produce
    # finite (huge) t statistics instead of 0/0.
    sigma2 = max(sse, np.finfo(float).eps) / dof
    r_inv = np.linalg.inv(R)
    cov = sigma2 * (r_inv @ r_inv.T)
    std_errors = np.sqrt(np.diag(cov))
    t_stats = coefs / std_errors
    # the t survival function at |t| is the CDF at -|t|
    p_values = 2.0 * stdtr(dof, -np.abs(t_stats))

    resp_mean = float(resp.mean())
    sst_centered = float(((resp - resp_mean) ** 2).sum())
    sst_uncentered = float((resp ** 2).sum())
    ssm = float(((fitted - resp_mean) ** 2).sum())

    coefficients = tuple(
        Coefficient(order[j], float(coefs[j]), float(std_errors[j]),
                    float(t_stats[j]), float(p_values[j]))
        for j in range(p)
    )
    return FitResult(
        spec=spec,
        n=n,
        coefficients=coefficients,
        sse=sse,
        ssm=ssm,
        sst_centered=sst_centered,
        sst_uncentered=sst_uncentered,
        r_squared=_r_squared(sse, sst_centered if spec.intercept else sst_uncentered),
        residual_dof=dof,
    )


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


def reduce_model_trace(
    fit: FitResult, data: Dataset
) -> tuple[FitResult, list[tuple[Term, float]]]:
    """Backward elimination with the dropped terms recorded.

    Repeatedly removes the predictor with the largest p-value above
    ``ALPHA`` and refits.  The intercept is never removed, so a model
    with an intercept may reduce all the way to the constant model; a
    no-intercept model keeps at least one predictor.
    """
    current = fit
    steps: list[tuple[Term, float]] = []
    while True:
        spec = current.spec
        if not spec.intercept and len(spec.predictors) <= 1:
            break
        candidates = [c for c in current.coefficients if c.term is not None]
        if not candidates:
            break
        worst = max(candidates, key=lambda c: c.p_value)
        if worst.p_value <= ALPHA:
            break
        new_predictors = tuple(t for t in spec.predictors if t is not worst.term)
        steps.append((worst.term, worst.p_value))
        current = fit_ols(ModelSpec(spec.response, new_predictors, spec.intercept), data)
    return current, steps

"""Exact least squares in rational arithmetic, an oracle for the float fits.

Every float is a dyadic rational, so ``fractions.Fraction`` holds each
observation as stored, and each term (x*y, x^2, 1/x) is evaluated without
rounding.  The normal equations X'X b = X'r, solved in fractions, then
give the exact least-squares fit of a model to the data; in exact
arithmetic their squared conditioning costs nothing.  Fitting the seven
comparison models to n = 50 rows takes well under a second.
"""

from dataclasses import dataclass
from fractions import Fraction

from implicitreg import Dataset, ModelSpec, Term

_TERMS = {
    Term.ONE: lambda x, y: Fraction(1),
    Term.X: lambda x, y: x,
    Term.Y: lambda x, y: y,
    Term.XY: lambda x, y: x * y,
    Term.X_SQUARED: lambda x, y: x * x,
    Term.INV_X: lambda x, y: 1 / x,
}


@dataclass(frozen=True)
class ExactFit:
    """A fit's estimates (in ``spec.coefficient_terms`` order), SSE and R^2,
    each exact; R^2 takes SST about the response mean for a model with an
    intercept and a predictor, and about zero otherwise, as ``FitResult``."""

    estimates: tuple[Fraction, ...]
    sse: Fraction
    r_squared: Fraction


def _solve(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    """Solve the nonsingular system ``a @ coefs = b`` by Gauss-Jordan
    elimination."""
    rows = [list(row) + [rhs] for row, rhs in zip(a, b)]
    p = len(rows)
    for k in range(p):
        pivot = next(i for i in range(k, p) if rows[i][k] != 0)
        rows[k], rows[pivot] = rows[pivot], rows[k]
        for i in range(p):
            if i != k and rows[i][k] != 0:
                factor = rows[i][k] / rows[k][k]
                rows[i] = [u - factor * v for u, v in zip(rows[i], rows[k])]
    return [rows[i][p] / rows[i][i] for i in range(p)]


def exact_fit(spec: ModelSpec, data: Dataset) -> ExactFit:
    """The exact least-squares fit of ``spec`` to ``data``."""
    terms = [_TERMS[Term.ONE if t is None else t] for t in spec.coefficient_terms]
    points = [(Fraction(x), Fraction(y)) for x, y in zip(data.x.tolist(), data.y.tolist())]
    design = [[term(x, y) for term in terms] for x, y in points]
    resp = [_TERMS[spec.response](x, y) for x, y in points]
    p = len(terms)
    gram = [[sum(row[i] * row[j] for row in design) for j in range(p)] for i in range(p)]
    moments = [sum(row[i] * r for row, r in zip(design, resp)) for i in range(p)]
    coefs = _solve(gram, moments)
    residuals = [r - sum(c * v for c, v in zip(coefs, row)) for row, r in zip(design, resp)]
    sse = sum(e * e for e in residuals)
    if spec.intercept and spec.predictors:
        mean = sum(resp) / len(resp)
        sst = sum((r - mean) ** 2 for r in resp)
    else:
        sst = sum(r * r for r in resp)
    return ExactFit(tuple(coefs), sse, 1 - sse / sst)

"""Term algebra and the tiny model grammar.

A model is written ``response ~ term + term + ...`` where the response is
one of ``1``, ``x``, ``y``, ``x*y`` and each right-hand term is one of
``1``, ``x``, ``y``, ``x*y`` (alias ``xy``), ``x^2``, ``1/x``.  A literal
``1`` on the right requests an intercept; a literal ``1`` on the left is
the non-response form, which never carries an intercept (a constant
regressed on a constant has nothing to estimate).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, ParseError


class Term(Enum):
    """Basis functions over a coordinate pair (x, y)."""

    ONE = "1"
    X = "x"
    Y = "y"
    XY = "x*y"
    X_SQUARED = "x^2"
    INV_X = "1/x"


# Surface syntax accepted for each term; whitespace is stripped before lookup.
_TOKEN_TO_TERM = {
    "1": Term.ONE,
    "x": Term.X,
    "y": Term.Y,
    "x*y": Term.XY,
    "xy": Term.XY,
    "x^2": Term.X_SQUARED,
    "1/x": Term.INV_X,
}

_RESPONSE_TERMS = (Term.ONE, Term.X, Term.Y, Term.XY)

# Each term as the monomial x**px * y**py: the one place that says how a
# term enters the design matrix and both solves of the fitted equation.
TERM_POWERS = {
    Term.ONE: (0, 0),
    Term.X: (1, 0),
    Term.Y: (0, 1),
    Term.XY: (1, 1),
    Term.X_SQUARED: (2, 0),
    Term.INV_X: (-1, 0),
}


@dataclass(frozen=True)
class ModelSpec:
    """A parsed implicit-model specification.

    ``response`` is the term placed on the left-hand side (``Term.ONE``
    for the non-response form), ``predictors`` the ordered right-hand
    terms, and ``intercept`` whether a constant coefficient is estimated.
    An intercept-only model has an empty predictor tuple.
    """

    response: Term
    predictors: tuple[Term, ...]
    intercept: bool

    def __post_init__(self):
        if self.response not in _RESPONSE_TERMS:
            raise ValueError(f"invalid response term {self.response.value!r}")
        if self.response in self.predictors:
            raise ValueError("response term cannot appear among the predictors")
        if Term.ONE in self.predictors:
            raise ValueError("the constant term is carried by the intercept flag")
        if len(set(self.predictors)) != len(self.predictors):
            raise ValueError("duplicate predictor term")
        if self.response is Term.ONE:
            if self.intercept:
                raise ValueError("the non-response form cannot carry an intercept")
            if not self.predictors:
                raise ValueError("the non-response form needs at least one predictor")
        elif not self.predictors and not self.intercept:
            raise ValueError("model has an empty right-hand side")

    @property
    def coefficient_terms(self) -> tuple[Term | None, ...]:
        """The terms of the estimated coefficients in order, None for the intercept."""
        return ((None,) if self.intercept else ()) + self.predictors

    @property
    def n_coefficients(self) -> int:
        return len(self.predictors) + (1 if self.intercept else 0)

    def __str__(self) -> str:
        return format_model(self)


def format_model(spec: ModelSpec) -> str:
    """Render a spec in canonical grammar text, e.g. ``"y ~ 1 + x"``."""
    rhs = (["1"] if spec.intercept else []) + [t.value for t in spec.predictors]
    return f"{spec.response.value} ~ {' + '.join(rhs)}"


def _next_token(segment: str, offset: int) -> tuple[str, int]:
    """Strip a raw token and report the offset of its first character."""
    stripped = segment.strip()
    if not stripped:
        raise ParseError("empty term", position=offset)
    lead = len(segment) - len(segment.lstrip())
    return "".join(stripped.split()), offset + lead


def parse_model(text: str) -> ModelSpec:
    """Parse model text into a :class:`ModelSpec`.

    Raises :class:`ParseError` (with a character position) for unknown
    tokens, a repeated response, duplicate predictors, or an empty
    right-hand side.
    """
    tilde = text.find("~")
    if tilde < 0:
        raise ParseError("expected 'response ~ term + ...'", position=0)
    second = text.find("~", tilde + 1)
    if second >= 0:
        raise ParseError("more than one '~'", position=second)

    lhs_token, lhs_pos = _next_token(text[:tilde], 0)
    response = _TOKEN_TO_TERM.get(lhs_token)
    if response is None:
        raise ParseError(f"unknown term {lhs_token!r}", position=lhs_pos)
    if response not in _RESPONSE_TERMS:
        raise ParseError(
            f"{lhs_token!r} cannot be a response term", position=lhs_pos
        )

    predictors: list[Term] = []
    intercept = False
    offset = tilde + 1
    for segment in text[tilde + 1:].split("+"):
        token, pos = _next_token(segment, offset)
        offset += len(segment) + 1
        term = _TOKEN_TO_TERM.get(token)
        if term is None:
            raise ParseError(f"unknown term {token!r}", position=pos)
        if term is Term.ONE:
            if response is Term.ONE:
                raise ParseError(
                    "the non-response form cannot include an intercept term",
                    position=pos,
                )
            if intercept:
                raise ParseError("duplicate intercept term", position=pos)
            intercept = True
            continue
        if term is response:
            raise ParseError(
                f"response {token!r} repeated as predictor", position=pos
            )
        if term in predictors:
            raise ParseError(f"duplicate predictor {token!r}", position=pos)
        predictors.append(term)

    return ModelSpec(response, tuple(predictors), intercept)


def times_power(c, v, p: int):
    """``c * v**p`` for p in {-1, 0, 1, 2}, as ``c``, ``c * v``, ``c * v * v``
    or ``c / v`` (that operation order keeps every solve bit-stable)."""
    for _ in range(abs(p)):
        c = c * v if p > 0 else c / v
    return c


def eval_term(term: Term, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Evaluate a basis term at coordinates (x, y), float arrays of one shape."""
    px, py = TERM_POWERS[term]
    if px < 0 and np.any(x == 0.0):
        raise DomainError("1/x is undefined at x = 0")
    if px == py == 0:
        return np.ones(x.shape)
    # 1.0 * v is v bit for bit, so the scalar start saves a pass over ones
    return times_power(times_power(1.0, x, px), y, py)

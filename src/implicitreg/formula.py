"""Term algebra and the tiny model grammar.

A model is written ``response ~ term + term + ...`` over the terms ``1``,
``x``, ``y``, ``x*y`` (alias ``xy``), ``x^2`` and ``1/x``, where a ``1`` on
the right is the intercept; ``_broken_rule`` holds the grammar's rules.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import DomainError, ParseError
from .records import Record


class Term(Enum):
    """Basis functions over a coordinate pair (x, y)."""

    ONE = "1"
    X = "x"
    Y = "y"
    XY = "x*y"
    X_SQUARED = "x^2"
    INV_X = "1/x"


# Surface syntax accepted for each term; whitespace is removed before lookup.
_TOKEN_TO_TERM = {term.value: term for term in Term} | {"xy": Term.XY}

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


def _broken_rule(response: Term, rhs: tuple[Term, ...]) -> tuple[str, int] | None:
    """The grammar's rules, with ``Term.ONE`` in ``rhs`` for the intercept:
    the response is one of 1, x, y, x*y; the right-hand side is not empty;
    and no term is written twice in ``(response, *rhs)``, so the non-response
    form ``1 ~ ...`` has no intercept.  Returns the first rule broken, as its
    message and the index in ``(response, *rhs)`` of the offending term (0,
    the response, for an empty right-hand side), or None."""
    if response not in _RESPONSE_TERMS:
        return f"{response.value!r} cannot be a response term", 0
    if not rhs:
        return "model has an empty right-hand side", 0
    if len({response, *rhs}) > len(rhs):  # no term written twice
        return None
    seen = {response}  # find the first term written twice
    for i, term in enumerate(rhs, 1):
        if term in seen:
            if term is response:
                return ("the non-response form cannot include an intercept term" if term is Term.ONE
                        else f"response {term.value!r} repeated as predictor"), i
            return ("duplicate intercept term" if term is Term.ONE
                    else f"duplicate predictor {term.value!r}"), i
        seen.add(term)


class ModelSpec(Record):
    """A parsed implicit-model specification.

    ``response`` is the term placed on the left-hand side (``Term.ONE``
    for the non-response form), ``predictors`` the ordered right-hand
    terms, and ``intercept`` whether a constant coefficient is estimated.
    An intercept-only model has an empty predictor tuple.
    """

    __slots__ = _fields = ("response", "predictors", "intercept")

    def __init__(self, response: Term, predictors: tuple[Term, ...], intercept: bool):
        if not isinstance(predictors, tuple):
            raise ValueError(f"predictors {predictors!r} is not a tuple")
        if not isinstance(intercept, bool):
            raise ValueError(f"intercept {intercept!r} is not a bool")
        for term in (response, *predictors):
            if not isinstance(term, Term):
                role = "response" if term is response else "predictor"
                raise ValueError(f"{role} {term!r} is not a Term")
        if Term.ONE in predictors:
            raise ValueError("the constant term is carried by the intercept flag")
        if broken := _broken_rule(response, (Term.ONE, *predictors) if intercept else predictors):
            raise ValueError(broken[0])
        self._set(response, predictors, intercept)

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


def parse_model(text: str) -> ModelSpec:
    """Parse model text into a :class:`ModelSpec`.  A :class:`ParseError`
    points at the leftmost empty or unknown token, or else at the term that
    breaks the first of the grammar's rules."""
    tilde = text.find("~")
    if tilde < 0:
        raise ParseError("expected 'response ~ term + ...'", position=0)
    second = text.find("~", tilde + 1)
    if second >= 0:
        raise ParseError("more than one '~'", position=second)

    terms, positions, offset = [], [], 0
    for segment in [text[:tilde], *text[tilde + 1:].split("+")]:
        token = "".join(segment.split())
        # a token starts at its segment's first non-space character, an empty one at its start
        positions.append(offset + segment.find(token[:1]))
        offset += len(segment) + 1
        if token not in _TOKEN_TO_TERM:
            message = f"unknown term {token!r}" if token else "empty term"
            raise ParseError(message, position=positions[-1])
        terms.append(_TOKEN_TO_TERM[token])
    response, *rhs = terms
    if broken := _broken_rule(response, tuple(rhs)):
        raise ParseError(broken[0], position=positions[broken[1]])
    return ModelSpec(response, tuple(t for t in rhs if t is not Term.ONE), Term.ONE in rhs)


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

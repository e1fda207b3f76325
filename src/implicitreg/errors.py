"""Exception types shared across the package.

Everything raised deliberately by this package derives from
:class:`ImplicitRegressionError`, so callers (and the CLI) can catch one
base class for "expected" failures and let genuine bugs propagate.
"""


class ImplicitRegressionError(Exception):
    """Base class for all errors raised by implicitreg."""


class ParseError(ImplicitRegressionError):
    """Model text does not match the grammar.

    ``position`` is the 0-based character offset of the offending token
    in the original string, when known.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class DomainError(ImplicitRegressionError):
    """A basis term was evaluated outside its domain (e.g. 1/x at x=0)."""


class SingularDesignError(ImplicitRegressionError):
    """The design matrix is rank deficient."""


class InsufficientDataError(ImplicitRegressionError):
    """Too few observations for the requested computation."""


class DegenerateDataError(ImplicitRegressionError):
    """Input data admits no meaningful estimate (e.g. all-zero vector)."""


class UnsupportedModelError(ImplicitRegressionError):
    """The fitted model has no closed-form solve for the requested axis."""


class DataFormatError(ImplicitRegressionError):
    """A data stream could not be parsed.

    ``line`` is the 1-based line number of the offending record, when known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class IntegrityError(ImplicitRegressionError):
    """A bundled resource failed its checksum."""

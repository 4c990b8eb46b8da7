"""Exception types shared across the library."""


class ApdrecError(Exception):
    """Base class for all library errors."""


class DegeneratePosition(ApdrecError):
    """A rank / affine-independence requirement failed."""


class ParallelDirections(ApdrecError):
    """Two directions that must be linearly independent are parallel."""


class InvalidInput(ApdrecError):
    """Malformed construction input (unknown ids, bad dimensions, ...)."""


class ParseError(ApdrecError):
    """Complex file could not be parsed; carries the offending line number."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class OracleInconsistency(ApdrecError):
    """Two oracle answers disagree in a way a real oracle never would."""


class GeneralPositionViolated(ApdrecError):
    """A general-position assumption required by an algorithm is violated."""


class PreconditionViolated(ApdrecError):
    """A documented algorithm precondition failed at runtime."""


class GenerationFailure(ApdrecError):
    """Random complex generation exhausted its rejection budget."""

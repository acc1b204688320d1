"""Exception types shared across the package."""


class BoundExceededError(ValueError):
    """A generator index or matrix size is beyond its configured bound."""


class NonIntegralResultError(ArithmeticError):
    """An interpolation divided difference did not divide exactly.

    Interpolation divides in the integer polynomial ring, and an integer
    polynomial sampled at integer abscissae has integral divided
    differences; an inexact step therefore signals a wrong degree bound
    upstream (too few sample points for the true degree).
    """


class SharedEndpointError(ValueError):
    """Two arcs handed to the crossing predicate share an endpoint."""


class ParseError(ValueError):
    """Malformed diagram text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SizeMismatchError(ValueError):
    """Two diagrams with different boundary sizes were paired."""


class MalformedComponentError(RuntimeError):
    """An alternating cycle of the pairing graph could not be completed."""


class UnclassifiableComponentError(RuntimeError):
    """A fixed-point-free component produced a winding sum outside {0, +/-2n}.

    This is a hard internal error: embedded curves can only be trivial or
    wind once around the band, so any other value indicates a convention
    bug in the sweep bookkeeping.
    """

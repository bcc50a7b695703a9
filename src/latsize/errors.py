"""Exception types shared across the package."""


class LatsizeError(Exception):
    """Base class for all package-specific errors."""


class CoordinateGuardError(LatsizeError, ValueError):
    """A point is not a pair of integers, or a coordinate exceeds 2**31 in absolute value."""


class EmptyPolygonError(LatsizeError, ValueError):
    """An operation that needs a non-empty polygon received the empty one."""


class DegeneratePolygonError(LatsizeError, ValueError):
    """An operation that needs a two-dimensional polygon received a point or segment."""


class NotTwoDimensionalError(LatsizeError, ValueError):
    """The Newton polygon of the given polynomial is not two-dimensional."""


class ZeroPolynomialError(LatsizeError, ValueError):
    """All terms of the parsed polynomial cancelled."""


class InternalConsistencyError(LatsizeError, AssertionError):
    """A cross-check that should always hold failed; indicates a bug, not bad input."""

"""Exception types shared across the package.

Each type carries the exit code that the command-line front end returns for
it, as the class attribute exit_code; cli.run_command reads it and restates
no policy of its own:

    2  LatsizeError and every subclass not listed below (CoordinateGuardError,
       ZeroPolynomialError), and the input errors that are not ours:
       SyntaxError, ValueError, OSError
    3  EmptyPolygonError, DegeneratePolygonError, NotTwoDimensionalError
    4  InternalConsistencyError

A new error class sets exit_code, or inherits 2 from LatsizeError.
"""


class LatsizeError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 2


class CoordinateGuardError(LatsizeError, ValueError):
    """A point is not a pair of integers, or a coordinate exceeds 2**31 in absolute value."""


class EmptyPolygonError(LatsizeError, ValueError):
    """An operation that needs a non-empty polygon received the empty one."""

    exit_code = 3


class DegeneratePolygonError(LatsizeError, ValueError):
    """An operation that needs a two-dimensional polygon received a point or segment."""

    exit_code = 3


class NotTwoDimensionalError(LatsizeError, ValueError):
    """The Newton polygon of the given polynomial is not two-dimensional."""

    exit_code = 3


class ZeroPolynomialError(LatsizeError, ValueError):
    """All terms of the parsed polynomial cancelled."""


class InternalConsistencyError(LatsizeError, AssertionError):
    """A cross-check that should always hold failed; indicates a bug, not bad input."""

    exit_code = 4

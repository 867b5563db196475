"""Exception hierarchy for graphcalc.

Every error raised by the library derives from :class:`GraphCalcError`, so
callers (and the CLI) can distinguish bad input from genuine bugs.

:func:`_require_finite` owns the rule for every tolerance, step size and
bound a caller passes in: a real number, nonnegative (or positive) and
finite, else :class:`BadParamsError`. :func:`_require_count` owns the rule
for every count and size: an integer within its bounds.
"""

import numbers
import operator
import sys


class GraphCalcError(Exception):
    """Base class for all graphcalc errors."""


class SelfLoopError(GraphCalcError):
    """An edge record connects a vertex to itself."""


class DuplicateEdgeError(GraphCalcError):
    """The same unordered vertex pair appears more than once."""


class NonPositiveWeightError(GraphCalcError):
    """An edge weight is zero, negative, or not finite."""


class DisconnectedError(GraphCalcError):
    """The graph is not connected."""


class DisconnectedDrawError(GraphCalcError):
    """A random graph generator exhausted its retry budget without a connected draw."""


class BadParamsError(GraphCalcError):
    """Generator or solver parameters are out of range or inconsistent."""


def _require_finite(name: str, value: float, positive: bool = False) -> None:
    """Raise :class:`BadParamsError` unless ``value`` is a real number, not a bool,
    nonnegative (positive if ``positive``) and finite: a NaN or infinite
    tolerance makes a check meaningless, a negative one fails a correct run."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise BadParamsError(f"{name} must be a real number, got {value!r}")
    # the abs bound refuses NaN, infinities and an integer beyond the double range
    if not (abs(value) <= sys.float_info.max and (value > 0.0 if positive else value >= 0.0)):
        sign = "positive" if positive else "nonnegative"
        raise BadParamsError(f"{name} must be {sign} and finite, got {value!r}")


def _require_count(name: str, value: int, minimum: int, maximum: int | None = None) -> None:
    """Raise :class:`BadParamsError` unless ``value`` is an integer (Python or numpy,
    not a bool) in [minimum, maximum], or at least ``minimum`` if ``maximum`` is None."""
    try:
        count = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        count = None
    if count is None or count < minimum or (maximum is not None and count > maximum):
        bounds = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        raise BadParamsError(f"{name} must be an integer {bounds}, got {value!r}")


class DomainMismatchError(GraphCalcError):
    """A vertex function is not defined on exactly the graph's vertex set."""


class NonFiniteValueError(GraphCalcError):
    """A vertex function contains NaN or infinite values."""


class ComplexNotAllowedError(GraphCalcError):
    """A real-only operation received complex input."""


class SingularSystemError(GraphCalcError):
    """A linear system has no usable factorization."""


class IncompatibleRHSError(GraphCalcError):
    """A singular system's right-hand side violates the compatibility condition."""


class SingularJacobianError(GraphCalcError):
    """Newton's Jacobian is singular and the fixed-point fallback stalled."""


class NotASolutionError(GraphCalcError):
    """A certificate that only applies to solutions was handed a non-solution."""


class NegativeInputError(GraphCalcError):
    """An operation requiring nonnegative input received a negative value."""


class BadStartError(GraphCalcError):
    """A chain construction was started at a vertex where the function vanishes."""


class ConvergenceFailureError(GraphCalcError):
    """An eigensolver failed to reach the requested residual tolerance."""


class LinearSolveFailureError(GraphCalcError):
    """A time-stepping linear solve exceeded its residual tolerance."""


class FileFormatError(GraphCalcError):
    """An input file does not conform to the documented format."""

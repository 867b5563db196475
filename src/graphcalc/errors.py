"""Exception hierarchy for graphcalc.

Every error raised by the library derives from :class:`GraphCalcError`, so
callers (and the CLI) can distinguish bad input from genuine bugs.

:func:`_require_finite` owns the rule for every tolerance, step size and
bound a caller passes in: nonnegative (or positive) and finite, else
:class:`BadParamsError`.
"""

import math


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
    """Raise :class:`BadParamsError` unless ``value`` is nonnegative (positive
    if ``positive``) and finite: a NaN or infinite tolerance makes a check
    meaningless, a negative one fails a correct run."""
    if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
        sign = "positive" if positive else "nonnegative"
        raise BadParamsError(f"{name} must be {sign} and finite, got {value!r}")


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

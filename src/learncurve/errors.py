"""Exception hierarchy shared across the toolkit, and its integer and real-number rules."""

import math
import operator
import sys


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(ToolkitError):
    """An argument lies outside its domain (bad exponent, bad probability, ...)."""


class DataError(ToolkitError):
    """Input data violates a contract (file format, duplicates, capacity, ...)."""


class InsufficientDataError(DataError):
    """Too few points to perform the requested computation."""


class LogDomainError(DataError):
    """A value is not strictly positive, so its logarithm is undefined."""


class NonConvergenceError(ToolkitError):
    """Iterative solver did not converge; ``last_fit`` holds the final iterate."""

    def __init__(self, message, last_fit=None):
        super().__init__(message)
        self.last_fit = last_fit


class NumericError(ToolkitError):
    """A result leaves the floating-point range: it overflows, or a fitted
    coefficient underflows to 0."""


class NoRegionError(ToolkitError):
    """No candidate satisfied the region-detection rule.

    ``diagnostics`` maps each candidate start to the r-squared its suffix
    fit achieved (``None`` where r-squared was undefined).
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class ParallelCurvesError(ParameterError):
    """Two power laws have numerically equal exponents and never cross."""


def is_integer(x) -> bool:
    """Whether ``x`` is an integer: anything ``operator.index`` accepts (numpy integers too),
    but no bool."""
    if isinstance(x, bool):
        return False
    try:
        operator.index(x)
    except TypeError:
        return False
    return True


def check_integer(value, name: str) -> int:
    """``value`` as a Python int; ParameterError naming the field ``name`` unless it is an
    integer (see :func:`is_integer`).  Callers run it before any sign rule, so a wrong type
    never meets a comparison."""
    if is_integer(value):
        return operator.index(value)
    raise ParameterError(f"{name} must be a non-negative integer, got {value!r}")


def check_seed(seed, name: str = "seed") -> int:
    """``seed`` as a Python int; ParameterError naming the field ``name`` unless it is a
    non-negative integer (see :func:`check_integer`)."""
    value = check_integer(seed, name)
    if value < 0:
        raise ParameterError(f"{name} must be a non-negative integer, got {seed!r}")
    return value


def is_real(x, lo=-math.inf, hi=math.inf) -> bool:
    """Whether ``x`` is a real number in [lo, hi]: an int or a float, but no bool, and within the
    float range (so finite)."""
    try:
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x) and lo <= x <= hi
    except OverflowError:  # an int beyond the float range
        return False


def is_number(x) -> bool:
    """Whether ``x`` is an integer within the float range (see :func:`is_integer`) or a float, nan
    and inf included: a value that compares with the bounds its own rule then sets, and converts
    to a float."""
    return isinstance(x, float) or is_integer(x) and abs(operator.index(x)) <= sys.float_info.max

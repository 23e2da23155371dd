"""Exception hierarchy shared across the toolkit, and its integer, sizes and real-number rules."""

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


FLOAT_MAX = sys.float_info.max


def check_integer(value, name: str, lo=None, hi=None) -> int:
    """``value`` as a Python int: anything ``operator.index`` takes (numpy integers too), but no
    bool, within the optional bounds [lo, hi].  Otherwise a ParameterError naming the field
    ``name``: ``{name} must be a non-negative integer, got {value!r}`` for a wrong type or, where
    ``lo`` is 0, a negative value; ``{name} must be >= {lo}`` or ``<= {hi}`` for another bound."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None or lo == 0 and number < 0:
        raise ParameterError(f"{name} must be a non-negative integer, got {value if number is None else number!r}")
    if lo is not None and number < lo:
        raise ParameterError(f"{name} must be >= {lo}, got {number!r}")
    if hi is not None and number > hi:
        raise ParameterError(f"{name} must be <= {hi}, got {number!r}")
    return number


def check_sizes(sizes) -> tuple[int, ...]:
    """``sizes`` as a tuple of Python ints: non-empty, each an integer >= 1 (see
    :func:`check_integer`), strictly increasing.  ParameterError otherwise."""
    sizes = tuple(check_integer(s, "sizes", 1) for s in sizes)
    if not sizes:
        raise ParameterError("sizes must be non-empty")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ParameterError(f"sizes must be strictly increasing, got {list(sizes)}")
    return sizes


def is_real(x, lo=-FLOAT_MAX, hi=FLOAT_MAX) -> bool:
    """Whether ``x`` is a real number in [lo, hi]: a float, or an integer (see
    :func:`check_integer`) within the float range.  The default bounds are the float range, so
    ``x`` is finite unless a bound is infinite; nan never passes.  An open bound is the next float
    inside it: ``lo=math.nextafter(0.0, 1.0)`` takes exactly the values > 0."""
    if not isinstance(x, float):
        try:
            x = check_integer(x, "x", -FLOAT_MAX, FLOAT_MAX)
        except ParameterError:
            return False
    return lo <= x <= hi

"""Exception hierarchy shared across the toolkit."""


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

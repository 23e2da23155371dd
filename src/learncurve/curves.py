"""Fitted learning curves, without numpy.

The types a fit produces and the planning questions read: a fitted power
law ``L(N) = c * N**alpha``, a detected power-law region and the
discrepancy between two fits, with the scalar float checks they need.  The
planning commands and the artifact loader rest on this module alone, so
they start without importing numpy.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Mapping, NamedTuple

from .errors import NumericError, ParameterError, check_integer, is_real

LOGLOG = "loglog"
NONLINEAR = "nonlinear"


def finite(value: float, what: str) -> float:
    """``value``; NumericError when it overflowed to inf or nan."""
    if not math.isfinite(value):
        raise NumericError(f"floating-point overflow: {what} leaves the float range")
    return value


def plain(value):
    """``value``, with a numpy integer (which :func:`~learncurve.errors.is_real` takes) made a
    Python int.  The types store what this returns, so every field they hold writes to JSON."""
    return value if value is None or isinstance(value, (int, float)) else operator.index(value)


def float_power(base: float, exponent: float) -> float:
    """``float(base) ** exponent``; NumericError when it leaves the float range, ParameterError
    when it is not real (a negative base with a non-integer exponent)."""
    try:
        result = float(base) ** exponent
    except (OverflowError, ZeroDivisionError):
        result = math.inf
    if isinstance(result, complex):
        raise ParameterError(f"{base!r} ** {exponent!r} is not a real number: a negative base needs an integer exponent")
    if not math.isfinite(result):
        raise NumericError(f"floating-point overflow: {base!r} ** {exponent!r} exceeds the float range")
    return result


@dataclass(frozen=True)
class PowerLawFit:
    """Fitted ``L(N) = c * N**alpha``.

    ``rss`` and ``r_squared`` live in the fitting space: log-log space for
    the ``loglog`` method, the original linear space for ``nonlinear``.
    ``r_squared`` is ``None`` when the total sum of squares vanishes (flat
    data) and is clamped into [0, 1] otherwise.  ``n_range`` records the
    smallest and largest sample count actually used.  ``iterations`` is a
    solver diagnostic, set by the nonlinear route only.  ``draws_failed`` is
    set by :func:`~learncurve.fitting.bootstrap_ci`: the number of draws whose
    refit did not converge and was left out of the interval (always 0 for ``loglog``).
    """

    alpha: float
    c: float
    method: str
    n_range: tuple[int, int]
    rss: float
    r_squared: float | None
    ci_alpha: tuple[float, float] | None = None
    iterations: int | None = None
    draws_failed: int | None = None

    def __post_init__(self):
        for name in ("alpha", "c", "rss"):
            if not is_real(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not is_real(self.c, math.nextafter(0.0, 1.0)):
            raise ParameterError(f"fitted c must be positive, got {self.c}")
        if self.method not in (LOGLOG, NONLINEAR):
            raise ParameterError(f"method must be {LOGLOG!r} or {NONLINEAR!r}, got {self.method!r}")
        n_range = self.n_range
        if not (len(n_range) == 2 and check_integer(n_range[0], "n_range", 0) < check_integer(n_range[1], "n_range", 0)):
            raise ParameterError(f"n_range must be an increasing pair, got {n_range!r}")
        if not is_real(self.rss, 0.0):
            raise ParameterError(f"rss must be non-negative, got {self.rss}")
        if self.r_squared is not None and not is_real(self.r_squared, 0.0, 1.0):
            raise ParameterError(f"r_squared must lie in [0, 1], got {self.r_squared!r}")
        ci = self.ci_alpha
        if ci is not None and not (len(ci) == 2 and is_real(ci[0]) and is_real(ci[1], ci[0])):
            raise ParameterError(f"ci_alpha must be a finite (lo, hi) with lo <= hi, got {ci!r}")
        for name in ("iterations", "draws_failed"):
            if getattr(self, name) is not None:
                check_integer(getattr(self, name), name, 0)
        for name in ("alpha", "c", "rss", "r_squared", "iterations", "draws_failed"):
            object.__setattr__(self, name, plain(getattr(self, name)))
        for name in ("n_range", "ci_alpha"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, tuple(map(plain, getattr(self, name))))

    def predict(self, n: float) -> float:
        return finite(self.c * float_power(n, self.alpha), f"the prediction c * N**alpha at N={n!r}")


@dataclass(frozen=True)
class RegionSegmentation:
    """Detected phase boundaries on the measurement grid.

    ``n_start_power_law`` is the grid point where power-law behavior
    begins; ``n_end_power_law`` is the grid point where the curve starts
    flattening into irreducible error, or ``None`` when that phase was
    not reached.  ``diagnostics`` maps every candidate start to the
    r-squared of the log-log fit over the suffix from that candidate.
    """

    n_start_power_law: int
    n_end_power_law: int | None
    diagnostics: Mapping[int, float | None]

    def __post_init__(self):
        check_integer(self.n_start_power_law, "n_start_power_law", 0)
        if self.n_end_power_law is not None:
            check_integer(self.n_end_power_law, "n_end_power_law", 0)
        for n, r_squared in self.diagnostics.items():
            check_integer(n, "candidate_n", 0)
            if r_squared is not None and not is_real(r_squared, 0.0, 1.0):
                raise ParameterError(f"r_squared at candidate {n} must be None or lie in [0, 1], got {r_squared!r}")
        if self.n_end_power_law is not None and self.n_start_power_law > self.n_end_power_law:
            raise ParameterError("region start must not exceed region end")
        for name in ("n_start_power_law", "n_end_power_law"):
            object.__setattr__(self, name, plain(getattr(self, name)))
        object.__setattr__(self, "diagnostics", {plain(n): plain(r2) for n, r2 in self.diagnostics.items()})


class Discrepancy(NamedTuple):
    """Relative parameter differences between two fits (reference = first)."""

    alpha: float
    c: float

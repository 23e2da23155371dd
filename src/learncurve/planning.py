"""Decisions from fitted power laws.

Once a learning curve has been reduced to ``L(N) = c * N**alpha`` one can
read off the interesting quantities in closed form: the predicted loss at
any sample count, the sample count needed for a target loss, the point
where two models' curves cross (and which model to prefer beyond it), and
how much extra data a degraded curve demands for the same performance.
Plateau and floor clamps are deliberately ignored here; these questions
live inside the power-law phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .curves import PowerLawFit, finite, float_power
from .errors import NumericError, ParallelCurvesError, ParameterError, check_integer, is_real

# Tolerance for snapping an analytically integral sample size back onto
# the integer before taking the ceiling.
_CEIL_SNAP = 1e-9
# Exponents at most this far apart make parallel curves, which never cross.
PARALLEL_ALPHA_TOL = 1e-9


@dataclass(frozen=True)
class LossPrediction:
    """Predicted loss at a sample count, flagged when outside the fitted range."""

    n: int
    value: float
    extrapolated: bool

    @property
    def marker(self) -> str:
        return "extrapolation" if self.extrapolated else "interpolation"


@dataclass(frozen=True)
class Intersection:
    """Crossing point of two fitted curves; ``superior`` has lower loss beyond it."""

    n_star: float
    superior: PowerLawFit


@dataclass(frozen=True)
class NoiseImpactReport:
    """Cost of a degraded (noisy-label) curve relative to a clean one.

    ``delta_alpha`` is the exponent shift (noisy minus clean; positive
    means shallower, less data-efficient).  ``multipliers`` tabulates, per
    requested target loss, the ratio of sample sizes the noisy curve needs
    over the clean one, as a real number before any integer rounding.
    """

    delta_alpha: float
    multipliers: tuple[tuple[float, float], ...]

    def multiplier_at(self, target_loss: float) -> float:
        for target, mult in self.multipliers:
            if target == target_loss:
                return mult
        raise KeyError(f"target loss {target_loss!r} was not requested")


def extrapolate(fit: PowerLawFit, n: int) -> LossPrediction:
    """Evaluate the fitted curve at the integer sample count ``n``, marking extrapolation beyond n_range."""
    n = check_integer(n, "sample count", 1)
    value = fit.predict(n)
    outside = not (fit.n_range[0] <= n <= fit.n_range[1])
    return LossPrediction(n=n, value=value, extrapolated=outside)


def _require_decreasing(fit: PowerLawFit, label: str = "fitted") -> None:
    if fit.alpha >= 0:
        raise ParameterError(f"{label} curve is non-decreasing (alpha={fit.alpha}); no finite sample size reaches the target")


def _sample_size(fit: PowerLawFit, target_loss: float) -> float:
    """The real N at which the fit reaches ``target_loss``: ``(target / c) ** (1 / alpha)``."""
    if not is_real(target_loss, math.nextafter(0.0, 1.0), math.inf):
        raise ParameterError(f"target loss must be positive, got {target_loss!r}")
    return float_power(target_loss / fit.c, 1.0 / fit.alpha)


def required_sample_size(fit: PowerLawFit, target_loss: float) -> int:
    """Smallest integer N with predicted loss at or below ``target_loss``.

    Snaps the inverse onto an integer within a 1e-9 relative distance
    before the ceiling, so that exact inverses survive floating point (the
    round trip can exceed the target by that same sliver).
    """
    _require_decreasing(fit)
    exact = _sample_size(fit, target_loss)
    n = math.ceil(exact - _CEIL_SNAP * max(abs(exact), 1.0))
    return max(n, 1)


def predict_intersection(fit_a: PowerLawFit, fit_b: PowerLawFit) -> Intersection:
    """Unique crossing of two fitted power laws.

    Solves ``c_a * N**alpha_a = c_b * N**alpha_b`` for N.  The operands are
    ordered canonically before computing, so swapping the arguments returns
    the identical result.  The steeper (more negative exponent) curve is
    reported as superior: it has the lower loss for every N beyond the
    crossing.
    """
    if abs(fit_a.alpha - fit_b.alpha) <= PARALLEL_ALPHA_TOL:
        raise ParallelCurvesError(
            f"exponents {fit_a.alpha} and {fit_b.alpha} are equal within {PARALLEL_ALPHA_TOL}; "
            "the curves are parallel or identical"
        )
    lo, hi = sorted((fit_a, fit_b), key=lambda f: (f.alpha, f.c))
    n_star = float_power(lo.c / hi.c, 1.0 / (hi.alpha - lo.alpha))
    if n_star == 0.0:
        raise NumericError(f"floating-point underflow: the crossing of c={lo.c!r} and c={hi.c!r} rounds to 0")
    return Intersection(n_star=n_star, superior=lo)


def noise_impact(
    fit_clean: PowerLawFit,
    fit_noisy: PowerLawFit,
    targets: list[float],
) -> NoiseImpactReport:
    """Exponent shift and per-target data multipliers of a degraded curve.

    For each target loss L the multiplier is
    ``(L/c_noisy)**(1/alpha_noisy) / (L/c_clean)**(1/alpha_clean)``:
    how many times more samples the noisy curve needs to match the clean
    curve at L.
    """
    _require_decreasing(fit_clean, "clean")
    _require_decreasing(fit_noisy, "noisy")
    mults = []
    for target in targets:
        n_noisy = _sample_size(fit_noisy, target)
        n_clean = _sample_size(fit_clean, target)
        if n_clean == 0.0:
            raise NumericError(f"floating-point underflow: the clean sample size for target {target!r} rounds to 0")
        mults.append((float(target), finite(n_noisy / n_clean, f"the multiplier for target {target!r}")))
    return NoiseImpactReport(
        delta_alpha=fit_noisy.alpha - fit_clean.alpha,
        multipliers=tuple(mults),
    )

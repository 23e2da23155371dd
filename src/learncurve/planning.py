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

from .errors import NumericError, ParallelCurvesError, ParameterError
from .fitting import PowerLawFit
from .model import float_power

# Tolerance for snapping an analytically integral sample size back onto
# the integer before taking the ceiling.
_CEIL_SNAP = 1e-9


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
    """Evaluate the fitted curve at ``n``, marking extrapolation beyond n_range."""
    if not n >= 1:
        raise ParameterError(f"sample count must be >= 1, got {n}")
    value = fit.c * float_power(n, fit.alpha)
    outside = not (fit.n_range[0] <= n <= fit.n_range[1])
    return LossPrediction(n=int(n), value=value, extrapolated=outside)


def required_sample_size(fit: PowerLawFit, target_loss: float) -> int:
    """Smallest integer N with predicted loss at or below ``target_loss``.

    Inverts the power law, ``N = (target / c) ** (1 / alpha)``, then takes
    the ceiling; values within a 1e-9 relative distance of an integer are
    snapped first so that analytically exact inverses survive floating
    point (the round trip can exceed the target by that same sliver).
    """
    if not target_loss > 0:
        raise ParameterError(f"target loss must be positive, got {target_loss}")
    if fit.alpha >= 0:
        raise ParameterError(
            f"fitted curve is non-decreasing (alpha={fit.alpha}); no finite sample size "
            "reaches the target"
        )
    exact = float_power(target_loss / fit.c, 1.0 / fit.alpha)
    n = math.ceil(exact - _CEIL_SNAP * max(abs(exact), 1.0))
    return max(n, 1)


def predict_intersection(
    fit_a: PowerLawFit, fit_b: PowerLawFit, alpha_tol: float = 1e-9
) -> Intersection:
    """Unique crossing of two fitted power laws.

    Solves ``c_a * N**alpha_a = c_b * N**alpha_b`` for N.  The operands are
    ordered canonically before computing, so swapping the arguments returns
    the identical result.  The steeper (more negative exponent) curve is
    reported as superior: it has the lower loss for every N beyond the
    crossing.
    """
    if abs(fit_a.alpha - fit_b.alpha) <= alpha_tol:
        raise ParallelCurvesError(
            f"exponents {fit_a.alpha} and {fit_b.alpha} are equal within {alpha_tol}; "
            "the curves are parallel or identical"
        )
    lo, hi = sorted((fit_a, fit_b), key=lambda f: (f.alpha, f.c))
    try:
        n_star = (lo.c / hi.c) ** (1.0 / (hi.alpha - lo.alpha))
    except OverflowError:
        n_star = math.inf
    if not (math.isfinite(n_star) and n_star > 0.0):
        raise ParameterError(
            "the curves are so close to parallel that their crossing lies beyond "
            "representable sample sizes"
        )
    return Intersection(n_star=float(n_star), superior=lo)


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
    for label, fit in (("clean", fit_clean), ("noisy", fit_noisy)):
        if fit.alpha >= 0:
            raise ParameterError(
                f"{label} fit has non-decreasing curve (alpha={fit.alpha}); "
                "required sample sizes are undefined"
            )
    mults = []
    for target in targets:
        if not target > 0:
            raise ParameterError(f"target loss must be positive, got {target}")
        n_noisy = float_power(target / fit_noisy.c, 1.0 / fit_noisy.alpha)
        n_clean = float_power(target / fit_clean.c, 1.0 / fit_clean.alpha)
        if n_clean == 0.0:
            raise NumericError(f"floating-point underflow: the clean sample size for target {target!r} rounds to 0")
        mults.append((float(target), float(n_noisy / n_clean)))
    return NoiseImpactReport(
        delta_alpha=fit_noisy.alpha - fit_clean.alpha,
        multipliers=tuple(mults),
    )

"""Three-phase learning-curve model and synthetic measurement generation.

A learning curve relates a risk metric (top-1 error, cross-entropy, ...)
to the number of training samples N.  Over large scales it passes through
three phases: a random-guess plateau at small N, a power-law decay
``c * N**alpha`` in the middle, and an irreducible-error floor once more
data stops helping.  This module provides the generative model for that
shape plus a synthesizer of noisy measurements from it, which serves as
the ground-truth oracle when validating the fitting routines.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DataError, InsufficientDataError, NumericError, ParameterError, check_seed

TOP1_ERROR = "top1_error"
CROSS_ENTROPY = "cross_entropy"

# Synthetic values are truncated here so log-transforms stay defined.
VALUE_FLOOR = 1e-12


def float_power(base: float, exponent: float) -> float:
    """``float(base) ** exponent``; NumericError when it leaves the float range."""
    try:
        result = float(base) ** exponent
    except (OverflowError, ZeroDivisionError):
        result = math.inf
    if not math.isfinite(result):
        raise NumericError(f"floating-point overflow: {base!r} ** {exponent!r} exceeds the float range")
    return result


@dataclass(frozen=True)
class ThreePhaseModel:
    """Generative learning curve: plateau, power-law segment, error floor.

    The power law ``c * N**alpha`` is clamped into ``[floor, plateau]``:
    below the plateau-exit size the curve sits at the random-guess level,
    and once the power law would drop under ``floor`` the curve stays at
    the irreducible error instead.

    Parameters
    ----------
    alpha : exponent, in (-1, 0); more negative means data helps more.
    c : scale coefficient, in metric units, > 0.
    plateau : random-guess loss level; must exceed ``floor``.
    floor : irreducible loss level, >= 0.
    """

    alpha: float
    c: float
    plateau: float
    floor: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "c", "plateau", "floor"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite")
        if not -1.0 < self.alpha < 0.0:
            raise ParameterError(f"alpha must lie in (-1, 0), got {self.alpha}")
        if not self.c > 0.0:
            raise ParameterError(f"c must be positive, got {self.c}")
        if not self.plateau > self.floor >= 0.0:
            raise ParameterError(
                f"need plateau > floor >= 0, got plateau={self.plateau}, floor={self.floor}"
            )

    def evaluate(self, n: float) -> float:
        """Loss at sample count ``n`` (clamped power law)."""
        if not n >= 1:
            raise ParameterError(f"sample count must be >= 1, got {n}")
        return min(max(self.c * float_power(n, self.alpha), self.floor), self.plateau)


def random_guess_plateau(metric: str, n_classes: int) -> float:
    """Loss level of uniform guessing over ``n_classes`` balanced classes.

    Top-1 error: ``1 - 1/k``.  Cross-entropy: ``ln k``; this is a modeling
    default for balanced classes, not a measured quantity.
    """
    if n_classes < 2:
        raise ParameterError(f"need at least 2 classes, got {n_classes}")
    if metric == TOP1_ERROR:
        return 1.0 - 1.0 / n_classes
    if metric == CROSS_ENTROPY:
        return math.log(n_classes)
    raise ParameterError(f"no random-guess level defined for metric {metric!r}")


class Measurement(NamedTuple):
    """One risk observation: metric name, sample count, replicate id, value."""

    metric: str
    n: int
    replicate: int
    value: float


class AggregateRow(NamedTuple):
    """Per-N summary of replicate values."""

    n: int
    mean: float
    std: float
    count: int


@dataclass(frozen=True)
class MeasurementSet:
    """Tidy, immutable collection of (metric, n, replicate, value) observations.

    May hold several metrics at once; fitting operations require a
    single-metric set, obtained with :meth:`only`.
    """

    points: tuple[Measurement, ...]

    def __post_init__(self):
        """The measurement rules; a violation's ``index`` is the offending point's position."""
        seen: set[tuple[str, int, int]] = set()
        for index, p in enumerate(self.points):
            key = (p.metric, p.n, p.replicate)
            if type(p.n) is not int or p.n < 1:  # a bool is no sample count
                error = ParameterError(f"sample count must be a positive int, got {p.n!r}")
            elif p.n > sys.float_info.max:
                error = ParameterError(f"sample count {p.n} exceeds the float range")
            elif type(p.replicate) is not int or p.replicate < 0:
                error = ParameterError(f"replicate id must be a non-negative int, got {p.replicate!r}")
            elif not (isinstance(p.value, float) and math.isfinite(p.value) and p.value >= 0.0):
                error = ParameterError(f"value must be a finite non-negative float, got {p.value!r}")
            elif not p.metric:
                error = ParameterError("metric name must be non-empty")
            elif key in seen:
                error = DataError(f"duplicate observation for {key}")
            else:
                seen.add(key)
                continue
            error.index = index
            raise error

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[str, int, int, float]]) -> "MeasurementSet":
        return cls(tuple(Measurement(m, int(n), int(r), float(v)) for m, n, r, v in rows))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def metrics(self) -> list[str]:
        return sorted({p.metric for p in self.points})

    def only(self, metric: str) -> "MeasurementSet":
        """Sub-set holding only the given metric (possibly empty)."""
        if all(p.metric == metric for p in self.points):
            return self
        subset = object.__new__(MeasurementSet)  # points of a valid set keep every rule
        object.__setattr__(subset, "points", tuple(p for p in self.points if p.metric == metric))
        return subset

    def distinct_n(self) -> list[int]:
        return sorted({p.n for p in self.points})


def group_by_n(points: Iterable[Measurement]) -> list[tuple[int, np.ndarray]]:
    """``(n, values)`` per distinct N, ascending N, values in the points' order."""
    by_n: dict[int, list[float]] = {}
    for p in points:
        by_n.setdefault(p.n, []).append(p.value)
    return [(n, np.asarray(by_n[n], dtype=float)) for n in sorted(by_n)]


def window(ms: MeasurementSet, n_min=None, n_max=None) -> tuple[list[Measurement], list[tuple[int, np.ndarray]]]:
    """Points of a non-empty, single-metric set with N in [n_min, n_max], and their groups."""
    if len(ms) == 0:
        raise InsufficientDataError("measurement set is empty")
    metrics = ms.metrics()
    if len(metrics) != 1:
        raise ParameterError(f"expected a single metric, got {metrics}; use only()")
    pts = [p for p in ms if (n_min is None or n_min <= p.n) and (n_max is None or p.n <= n_max)]
    return pts, group_by_n(pts)


def require_finite(values, what: str):
    """``values``; NumericError when one of them overflowed to inf or nan."""
    if not np.isfinite(values).all():
        raise NumericError(f"floating-point overflow: {what} leaves the float range")
    return values


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises NumericError instead
def group_means(groups: list[tuple[int, np.ndarray]]) -> np.ndarray:
    """Mean of each group's values."""
    return require_finite(np.asarray([vals.mean() for _, vals in groups], dtype=float), "a per-N mean")


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises NumericError instead
def aggregate(ms: MeasurementSet) -> list[AggregateRow]:
    """Per-N mean and sample standard deviation (divisor count-1), ascending N.

    Mirrors the usual mean +/- one-standard-deviation presentation of
    repeated training runs.  Requires a non-empty, single-metric set.
    """
    groups = window(ms)[1]
    means = group_means(groups)
    stds = [float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0 for _, vals in groups]
    require_finite(stds, "a per-N standard deviation")
    return [AggregateRow(n, float(mean), std, int(vals.size)) for (n, vals), mean, std in zip(groups, means, stds)]


def synth_curve(
    model: ThreePhaseModel,
    sizes: Sequence[int],
    replicates: int,
    noise_sigma: float,
    seed: int,
    metric: str = "synthetic",
) -> MeasurementSet:
    """Draw a noisy measurement set from the model.

    Each (N, replicate) gets ``evaluate(N) * (1 + eps)`` with eps drawn
    i.i.d. from a zero-mean normal of standard deviation ``noise_sigma``,
    truncated at ``VALUE_FLOOR`` so values stay strictly positive.  With
    ``noise_sigma=0`` the values equal the model exactly.  A fixed
    (seed, inputs) pair always yields a bit-identical set: points are
    generated in canonical (ascending N, ascending replicate) order.
    """
    sizes = [int(s) for s in sizes]
    if not sizes:
        raise ParameterError("sizes must be non-empty")
    if any(s < 1 for s in sizes):
        raise ParameterError("sizes must be >= 1")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ParameterError(f"sizes must be strictly increasing, got {sizes}")
    if replicates < 1:
        raise ParameterError(f"replicates must be >= 1, got {replicates}")
    if not 0 <= noise_sigma < math.inf:
        raise ParameterError(f"noise_sigma must be a finite float >= 0, got {noise_sigma}")
    seed = check_seed(seed)

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    pts = []
    for n in sizes:
        base = model.evaluate(n)
        if noise_sigma == 0.0:
            vals = [base] * replicates
        else:
            eps = rng.normal(0.0, noise_sigma, size=replicates)
            vals = np.maximum(base * (1.0 + eps), VALUE_FLOOR)
        for r in range(replicates):
            pts.append(Measurement(metric, n, r, float(vals[r])))
    return MeasurementSet(tuple(pts))

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
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .curves import float_power, plain
from .errors import DataError, InsufficientDataError, NumericError, ParameterError
from .errors import FLOAT_MAX, check_integer, check_sizes, is_real

TOP1_ERROR = "top1_error"
CROSS_ENTROPY = "cross_entropy"

# Synthetic values are truncated here so log-transforms stay defined.
VALUE_FLOOR = 1e-12


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
            if not is_real(getattr(self, name)):
                raise ParameterError(f"{name} must be a finite real number, got {getattr(self, name)!r}")
        if not is_real(self.alpha, math.nextafter(-1.0, 0.0), math.nextafter(0.0, -1.0)):
            raise ParameterError(f"alpha must lie in (-1, 0), got {self.alpha}")
        if not is_real(self.c, math.nextafter(0.0, 1.0)):
            raise ParameterError(f"c must be positive, got {self.c}")
        if not self.plateau > self.floor >= 0.0:
            raise ParameterError(
                f"need plateau > floor >= 0, got plateau={self.plateau}, floor={self.floor}"
            )
        for name in ("alpha", "c", "plateau", "floor"):
            object.__setattr__(self, name, plain(getattr(self, name)))

    def evaluate(self, n: float) -> float:
        """Loss at sample count ``n`` (clamped power law)."""
        if not is_real(n, 1, math.inf):
            raise ParameterError(f"sample count must be >= 1, got {n!r}")
        return min(max(self.c * float_power(n, self.alpha), self.floor), self.plateau)


def random_guess_plateau(metric: str, n_classes: int) -> float:
    """Loss level of uniform guessing over ``n_classes`` balanced classes.

    Top-1 error: ``1 - 1/k``.  Cross-entropy: ``ln k``; this is a modeling
    default for balanced classes, not a measured quantity.
    """
    check_integer(n_classes, "n_classes", 2, FLOAT_MAX)
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


def _typed(entries, ok, placeholder) -> tuple[Sequence, np.ndarray]:
    """``entries`` with each entry whose type fails ``ok`` replaced by ``placeholder``, and the
    mask of those entries.  Entries of good types only are passed on without a per-entry check."""
    wrong = np.zeros(len(entries), dtype=bool)
    if not all(map(ok, set(map(type, entries)))):
        wrong = np.array([not ok(type(entry)) for entry in entries], dtype=bool)
        entries = [placeholder if w else e for e, w in zip(entries, wrong.tolist())]
    return entries, wrong


def _column(entries, ok, dtype, placeholder) -> tuple[np.ndarray, np.ndarray]:
    """``entries`` as a ``dtype`` column, or as an object column of Python ints once an int leaves
    int64, and the mask of the entries whose type fails ``ok`` (see :func:`_typed`)."""
    entries, wrong = _typed(entries, ok, placeholder)
    try:
        return np.array(entries, dtype=dtype), wrong
    except OverflowError:
        return np.array(entries, dtype=object), wrong


# The measurement rules in check order, as (error class, message from the point's raw entries).
_RULES = (
    (ParameterError, "sample count must be a positive int, got {n!r}"),
    (ParameterError, "sample count {n} exceeds the float range"),
    (ParameterError, "replicate id must be a non-negative int, got {replicate!r}"),
    (ParameterError, "value must be a finite non-negative float, got {value!r}"),
    (ParameterError, "metric name must be non-empty"),
    (ParameterError, "metric name must be a string, got {metric!r}"),
    (DataError, "duplicate observation for {key}"),
)


class MeasurementSet:
    """Tidy, immutable collection of (metric, n, replicate, value) observations, held as
    read-only columns: ``n`` and ``replicate`` (int64, or Python ints once one leaves int64),
    ``value`` and metric codes; ``points`` is built on first use.  The columns hold the points
    sorted by (metric name, n, replicate), in whatever order they were listed, so no result and
    no ``==`` depends on that order.  May hold several metrics at once; fitting operations
    require a single-metric set, obtained with :meth:`only`."""

    __slots__ = ("_names", "_codes", "n", "replicate", "value", "_points")

    def __init__(self, points: Iterable[Measurement]):
        """The measurement rules as one column mask per row of ``_RULES``: the first point with a mask
        set is the first offender (the error's ``index``), and its first rule set names the error."""
        points = tuple(points)
        try:
            metric, raw_n, raw_replicate, raw_value = zip(*points, strict=True) if points else ((),) * 4
        except (TypeError, ValueError):  # some point is not one row of 4 fields
            index = next(i for i, point in enumerate(points) if not hasattr(point, "__len__") or len(point) != 4)
            error = DataError(f"a measurement has 4 fields (metric, n, replicate, value), got {points[index]!r}")
            error.index = index
            raise error from None
        # A metric that is neither a string nor None (which the non-empty rule refuses) is not hashed.
        keys, wrong_metric = _typed(metric, lambda t: t is type(None) or issubclass(t, str), None)
        names = tuple(sorted(set(keys), key=str))  # key=str: a None, which the rules refuse, still sorts
        codes = np.fromiter(map({m: i for i, m in enumerate(names)}.__getitem__, keys), np.intp, len(keys))
        n, wrong_n = _column(raw_n, {int}.__contains__, np.int64, 1)  # exactly int: a bool is no count or id
        replicate, wrong_replicate = _column(raw_replicate, {int}.__contains__, np.int64, 0)
        value, wrong_value = _column(raw_value, lambda t: issubclass(t, float), float, 0.0)
        order = np.lexsort((replicate, n, codes))  # the storage order; stable: a repeated key follows its first point
        keys = [column[order] for column in (codes, n, replicate)]
        duplicate = np.zeros(len(order), dtype=bool)
        duplicate[order[1:]] = np.logical_and.reduce([key[1:] == key[:-1] for key in keys])
        masks = np.array([
            wrong_n | (n < 1),
            n > sys.float_info.max,
            wrong_replicate | (replicate < 0),
            wrong_value | ~(np.isfinite(value) & (value >= 0.0)),
            np.array([not name for name in names], dtype=bool)[codes] & ~wrong_metric,
            wrong_metric,
            duplicate,
        ])
        if masks.any():
            index = int(masks.any(axis=0).argmax())
            error_class, message = _RULES[int(masks[:, index].argmax())]
            m, n, replicate, value = metric[index], raw_n[index], raw_replicate[index], raw_value[index]
            error = error_class(message.format(metric=m, n=n, replicate=replicate, value=value, key=(m, n, replicate)))
            error.index = index
            raise error
        self._store(names, *keys, value[order])

    def _store(self, names, codes, n, replicate, value):
        for column in (codes, n, replicate, value):
            column.flags.writeable = False
        self._names, self._codes, self._points = names, codes, None
        self.n, self.replicate, self.value = n, replicate, value

    def _take(self, index) -> "MeasurementSet":
        """The points at ``index`` (positions or a mask); part of a valid set keeps every rule."""
        part = object.__new__(MeasurementSet)
        part._store(self._names, self._codes[index], self.n[index], self.replicate[index], self.value[index])
        return part

    def rows(self) -> Iterator[tuple[str, int, int, float]]:
        """Each point as a plain (metric, n, replicate, value) tuple of Python values, in the set's order."""
        metric = map(self._names.__getitem__, self._codes.tolist())
        shared, n = {}, self.n.tolist()
        n = map(shared.setdefault, n, n)  # the points of one N share one int
        return zip(metric, n, self.replicate.tolist(), self.value.tolist())

    @property
    def points(self) -> tuple[Measurement, ...]:
        if self._points is None:
            self._points = tuple(map(Measurement._make, self.rows()))
        return self._points

    def __eq__(self, other):
        return self.points == other.points if isinstance(other, MeasurementSet) else NotImplemented

    def __len__(self) -> int:
        return len(self.value)

    def __iter__(self):
        return iter(self.points)

    def metrics(self) -> list[str]:
        return sorted(map(self._names.__getitem__, set(self._codes.tolist())))

    def only(self, metric: str) -> "MeasurementSet":
        """Sub-set holding only the given metric (possibly empty)."""
        keep = self._codes == (self._names.index(metric) if metric in self._names else -1)
        return self if keep.all() else self._take(keep)

    def distinct_n(self) -> list[int]:
        return sorted(set(self.n.tolist()))


class Groups(NamedTuple):
    """Values of a set by N: distinct N ascending (Python ints), group sizes, values group by group."""

    n: list[int]
    counts: np.ndarray
    values: np.ndarray


def group_by_n(n: np.ndarray, values: np.ndarray) -> Groups:
    """``values`` grouped by their ascending sample counts ``n``, as a window of a set holds them."""
    edges = np.flatnonzero(np.concatenate(([len(n) > 0], n[1:] != n[:-1], [True])))  # group starts, then the end
    return Groups(n[edges[:-1]].tolist(), edges[1:] - edges[:-1], values)


def reduce_groups(values: np.ndarray, counts: np.ndarray, reduce) -> np.ndarray:
    """``reduce(group, axis=-1)`` of each group on the last axis of ``values``, where the
    groups lie one after another, ``counts`` values each.  One call per distinct count: its
    groups are gathered into a C-ordered ``(..., g, R)`` array, which reduces each group
    bit-identically to a call on that group alone (``np.add.reduceat`` does not)."""
    starts = np.cumsum(counts) - counts
    out = np.empty(values.shape[:-1] + (len(counts),))
    for size in set(counts.tolist()):
        at = np.flatnonzero(counts == size)
        out[..., at] = reduce(values.take(starts[at, None] + np.arange(size), axis=-1), axis=-1)
    return out


def window(ms: MeasurementSet, n_min=None, n_max=None) -> tuple[MeasurementSet, Groups]:
    """Points of a non-empty, single-metric set with N in [n_min, n_max], and their groups."""
    if len(ms) == 0:
        raise InsufficientDataError("measurement set is empty")
    metrics = ms.metrics()
    if len(metrics) != 1:
        raise ParameterError(f"expected a single metric, got {metrics}; use only()")
    for name, bound in (("n_min", n_min), ("n_max", n_max)):
        if not (bound is None or is_real(bound)):
            raise ParameterError(f"{name} must be None or a finite real number, got {bound!r}")
    keep = (n_min is None or ms.n >= n_min) & (n_max is None or ms.n <= n_max)
    sub = ms if np.all(keep) else ms._take(keep)
    return sub, group_by_n(sub.n, sub.value)


def require_finite(values, what: str):
    """``values``; NumericError when one of them overflowed to inf or nan."""
    if not np.isfinite(values).all():
        raise NumericError(f"floating-point overflow: {what} leaves the float range")
    return values


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises NumericError instead
def group_means(groups: Groups) -> np.ndarray:
    """Mean of each group's values."""
    return require_finite(reduce_groups(groups.values, groups.counts, np.mean), "a per-N mean")


def _sample_std(groups: np.ndarray, axis: int) -> np.ndarray:
    """Standard deviation with divisor count-1 along ``axis``; 0 for groups of one."""
    return np.std(groups, axis=axis, ddof=1) if groups.shape[axis] > 1 else np.zeros_like(groups.take(0, axis=axis))


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises NumericError instead
def aggregate(ms: MeasurementSet) -> list[AggregateRow]:
    """Per-N mean and sample standard deviation (divisor count-1), ascending N.

    Mirrors the usual mean +/- one-standard-deviation presentation of
    repeated training runs.  Requires a non-empty, single-metric set.
    """
    groups = window(ms)[1]
    means = group_means(groups).tolist()
    stds = require_finite(reduce_groups(groups.values, groups.counts, _sample_std), "a per-N standard deviation")
    return list(map(AggregateRow, groups.n, means, stds.tolist(), groups.counts.tolist()))


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
    Sizes and ``replicates`` must be integers (numpy integers too, no bools), and
    ``replicates * len(sizes)`` at most ``sys.maxsize``.
    """
    sizes = check_sizes(sizes)
    replicates = check_integer(replicates, "replicates", 1, sys.maxsize // len(sizes))  # the points fit one intp array
    if not is_real(noise_sigma, 0):
        raise ParameterError(f"noise_sigma must be a finite float >= 0, got {noise_sigma!r}")
    seed = check_integer(seed, "seed", 0)

    values = np.repeat([model.evaluate(n) for n in sizes], replicates)
    if noise_sigma != 0.0:
        eps = np.random.default_rng(np.random.SeedSequence(seed)).normal(0.0, noise_sigma, size=values.size)
        values = np.maximum(values * (1.0 + eps), VALUE_FLOOR)
    ns = [n for n in sizes for _ in range(replicates)]
    return MeasurementSet(zip([metric] * len(ns), ns, list(range(replicates)) * len(sizes), values.tolist()))

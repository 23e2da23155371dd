"""Power-law fitting for learning curves.

Two estimation routes for ``L(N) = c * N**alpha``:

* :func:`fit_loglog` -- ordinary least squares on (log N, log L), using
  ``log L = log c + alpha * log N``.
* :func:`fit_nonlinear` -- damped Gauss-Newton on the original scale,
  minimizing ``sum (L_i - c * N_i**alpha)**2``.

The two weight residuals differently and therefore disagree on noisy
data; :func:`fit_discrepancy` quantifies by how much.
:func:`detect_power_law_region` locates the grid point where power-law
behavior starts, and :func:`bootstrap_ci` attaches case-resampling
confidence intervals to either fit.  Natural logarithms are used
throughout; the exponent is base-invariant.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .errors import (
    InsufficientDataError,
    LogDomainError,
    NonConvergenceError,
    NoRegionError,
    NumericError,
    ParameterError,
)
from .model import Measurement, MeasurementSet, aggregate, float_power, group_by_n

LOGLOG = "loglog"
NONLINEAR = "nonlinear"

GN_MAX_ITER = 200
GN_REL_TOL = 1e-10
GN_MAX_HALVINGS = 30

# bootstrap_ci refits its draws in blocks of about this many resampled values.
BLOCK_VALUES = 8192


@dataclass(frozen=True)
class PowerLawFit:
    """Fitted ``L(N) = c * N**alpha``.

    ``rss`` and ``r_squared`` live in the fitting space: log-log space for
    the ``loglog`` method, the original linear space for ``nonlinear``.
    ``r_squared`` is ``None`` when the total sum of squares vanishes (flat
    data) and is clamped into [0, 1] otherwise.  ``n_range`` records the
    smallest and largest sample count actually used.  ``iterations`` is a
    solver diagnostic, set by the nonlinear route only.
    """

    alpha: float
    c: float
    method: str
    n_range: tuple[int, int]
    rss: float
    r_squared: float | None
    ci_alpha: tuple[float, float] | None = None
    iterations: int | None = None

    def __post_init__(self):
        for name in ("alpha", "c", "rss"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.c > 0:
            raise ParameterError(f"fitted c must be positive, got {self.c}")
        if not self.n_range[0] < self.n_range[1]:
            raise ParameterError(f"n_range must be increasing, got {self.n_range}")
        if self.rss < 0:
            raise ParameterError(f"rss must be non-negative, got {self.rss}")
        if self.r_squared is not None and not 0.0 <= self.r_squared <= 1.0:
            raise ParameterError(f"r_squared must lie in [0, 1], got {self.r_squared}")

    def predict(self, n: float) -> float:
        return self.c * float_power(n, self.alpha)


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
        if self.n_end_power_law is not None and self.n_start_power_law > self.n_end_power_law:
            raise ParameterError("region start must not exceed region end")


class Discrepancy(NamedTuple):
    """Relative parameter differences between two fits (reference = first)."""

    alpha: float
    c: float


def _select(ms: MeasurementSet, n_min, n_max) -> list[Measurement]:
    """Points of a single-metric set within [n_min, n_max], >= 2 distinct N."""
    if len(ms) == 0:
        raise InsufficientDataError("measurement set is empty")
    metrics = ms.metrics()
    if len(metrics) != 1:
        raise ParameterError(f"fitting expects a single metric, got {metrics}; use only()")
    lo = -math.inf if n_min is None else n_min
    hi = math.inf if n_max is None else n_max
    pts = [p for p in ms if lo <= p.n <= hi]
    distinct = {p.n for p in pts}
    if len(distinct) < 2:
        raise InsufficientDataError(
            f"need at least 2 distinct sample counts in [{n_min}, {n_max}], found {len(distinct)}"
        )
    return pts


def _xy(pts: list[Measurement], on_means: bool) -> tuple[np.ndarray, np.ndarray]:
    if on_means:
        groups = group_by_n(pts)
        return (
            np.asarray([n for n, _ in groups], dtype=float),
            np.asarray([vals.mean() for _, vals in groups], dtype=float),
        )
    return (
        np.asarray([p.n for p in pts], dtype=float),
        np.asarray([p.value for p in pts], dtype=float),
    )


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares lines y = intercept + slope*x along the last axis of ``y``.

    Returns slope and intercept, one entry per line (0-d for one line).
    """
    xm, ym = x.mean(axis=-1, keepdims=True), y.mean(axis=-1, keepdims=True)
    xc = x - xm
    slope = (xc * (y - ym)).sum(axis=-1) / (xc * xc).sum(axis=-1)
    return slope, ym[..., 0] - slope * xm[..., 0]


def _exp_c(log_c: float) -> float:
    """The coefficient ``exp(log_c)``; NumericError when it overflows or underflows to 0."""
    try:
        c = math.exp(log_c)
    except OverflowError:
        c = math.inf
    if c in (0.0, math.inf):
        raise NumericError(f"floating-point {'overflow' if c else 'underflow'}: c = exp({log_c!r}) leaves the float range")
    return c


def _r_squared(rss: float, ss_tot: float) -> float | None:
    if ss_tot == 0.0:
        return None
    return min(max(1.0 - rss / ss_tot, 0.0), 1.0)


def _require_positive(pts) -> None:
    for p in pts:
        if p.value <= 0.0:
            raise LogDomainError(
                f"value {p.value!r} at (metric={p.metric!r}, n={p.n}, replicate={p.replicate}) "
                "is not positive; logarithm undefined"
            )


def _loglog_line(log_n: np.ndarray, log_y: np.ndarray) -> tuple[float, float, float, float | None]:
    """Slope, intercept, rss and r-squared of the least-squares line through (log_n, log_y)."""
    alpha, log_c = map(float, _ols(log_n, log_y))
    resid = log_y - (log_c + alpha * log_n)
    rss = float(resid @ resid)
    return alpha, log_c, rss, _r_squared(rss, float(((log_y - log_y.mean()) ** 2).sum()))


def fit_loglog(
    ms: MeasurementSet,
    n_min: int | None = None,
    n_max: int | None = None,
    *,
    on_means: bool = True,
) -> PowerLawFit:
    """Least-squares line in log-log space.

    With ``on_means`` (the default, matching plotted mean curves) one
    point per distinct N enters the regression; otherwise every replicate
    is its own point.  All values in the window must be strictly positive.
    """
    pts = _select(ms, n_min, n_max)
    _require_positive(pts)
    n_arr, y_arr = _xy(pts, on_means)
    alpha, log_c, rss, r_squared = _loglog_line(np.log(n_arr), np.log(y_arr))
    used = [p.n for p in pts]
    return PowerLawFit(
        alpha=alpha,
        c=_exp_c(log_c),
        method=LOGLOG,
        n_range=(min(used), max(used)),
        rss=rss,
        r_squared=r_squared,
    )


def _solve_rows(lhs: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.solve`` on each stacked system; singular ones give NaN and False.

    LAPACK solves each system on its own, so a row's result does not depend
    on its neighbours; a stack holding a singular system is split in halves
    until that system stands alone.
    """
    try:
        return np.linalg.solve(lhs, rhs)[..., 0], np.ones(len(lhs), dtype=bool)
    except np.linalg.LinAlgError:
        if len(lhs) == 1:
            return np.full((1, lhs.shape[-1]), np.nan), np.zeros(1, dtype=bool)
        half = len(lhs) // 2
        head, tail = _solve_rows(lhs[:half], rhs[:half]), _solve_rows(lhs[half:], rhs[half:])
        return np.concatenate((head[0], tail[0])), np.concatenate((head[1], tail[1]))


@np.errstate(over="ignore", invalid="ignore")  # a row that leaves the float range ends as inf or nan
def _gauss_newton(
    n: np.ndarray, y: np.ndarray, c0: float, a0: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Damped Gauss-Newton for min sum (y - c*n**a)**2, one problem per row of ``y``.

    Every row shares the sample counts ``n`` and the start (c0, a0).  Full
    step first, then step halving (factor 0.5, at most ``GN_MAX_HALVINGS``
    halvings) until the residual sum of squares decreases; candidates with
    c <= 0 are rejected the same way.  If no improving step exists the
    iterate is stationary and the row has converged; otherwise convergence
    means a relative rss decrease below ``GN_REL_TOL``.  A row whose normal
    matrix is singular stops unconverged.  Rows that stop leave the working
    set, and every row goes through the same floating-point operations as a
    solve of that row alone.  Returns arrays (c, alpha, rss, iterations,
    converged) with one entry per row.
    """
    ln_n = np.log(n)
    c = np.full(len(y), c0, dtype=float)
    a = np.full(len(y), a0, dtype=float)
    rss = ((y - c[:, None] * n ** a[:, None]) ** 2).sum(axis=1)
    iterations = np.full(len(y), GN_MAX_ITER)
    converged = np.zeros(len(y), dtype=bool)
    # The rows still iterating, and their data and iterates.
    live, y_l, c_l, a_l, rss_l = np.arange(len(y)), y, c, a, rss
    for iteration in range(1, GN_MAX_ITER + 1):
        pow_na = n ** a_l[:, None]
        f = c_l[:, None] * pow_na
        jac = np.stack((pow_na, f * ln_n), axis=-1)  # d/dc, d/dalpha
        jac_t = jac.transpose(0, 2, 1)
        delta, solved = _solve_rows(jac_t @ jac, jac_t @ (y_l - f)[:, :, None])

        new_c, new_a, new_rss = c_l, a_l, rss_l
        search = solved
        step = 1.0
        for _ in range(GN_MAX_HALVINGS + 1):
            cc = c_l + step * delta[:, 0]
            aa = a_l + step * delta[:, 1]
            trial = search & (cc > 0.0)
            rr = np.full(len(live), np.inf)
            rr[trial] = ((y_l[trial] - cc[trial, None] * n ** aa[trial, None]) ** 2).sum(axis=1)
            better = rr < rss_l
            new_c, new_a = np.where(better, cc, new_c), np.where(better, aa, new_a)
            new_rss = np.where(better, rr, new_rss)
            search = search & ~better
            if not search.any():
                break
            step *= 0.5

        # A row without a descent step is stationary: its rss change is zero.
        drop = np.divide(rss_l - new_rss, rss_l, out=np.zeros(len(live)), where=new_rss < rss_l)
        stop = drop < GN_REL_TOL
        if stop.any():
            done, keep = live[stop], ~stop
            c[done], a[done], rss[done] = new_c[stop], new_a[stop], new_rss[stop]
            converged[done] = solved[stop]
            iterations[done] = iteration
            live, y_l, new_c, new_a, new_rss = (v[keep] for v in (live, y_l, new_c, new_a, new_rss))
        c_l, a_l, rss_l = new_c, new_a, new_rss
        if len(live) == 0:
            break
    c[live], a[live], rss[live] = c_l, a_l, rss_l
    return c, a, rss, iterations, converged


def fit_nonlinear(
    ms: MeasurementSet,
    n_min: int | None = None,
    n_max: int | None = None,
    *,
    on_means: bool = True,
    init: PowerLawFit | None = None,
) -> PowerLawFit:
    """Direct least squares on the original scale via damped Gauss-Newton.

    Starts from ``init`` when given, else from a log-log fit of the same
    window (restricted to strictly positive values, since zeros are legal
    here but have no logarithm).  Raises :class:`NonConvergenceError`
    carrying the last iterate if 200 iterations do not converge.
    """
    pts = _select(ms, n_min, n_max)
    n_arr, y_arr = _xy(pts, on_means)
    used = [p.n for p in pts]
    n_range = (min(used), max(used))

    if init is not None:
        c0, a0 = init.c, init.alpha
    else:
        pos = [p for p in pts if p.value > 0.0]
        if len({p.n for p in pos}) < 2:
            raise InsufficientDataError(
                "cannot derive an initial guess: fewer than 2 distinct sample counts "
                "with positive values; pass init explicitly"
            )
        pn, py = (n_arr, y_arr) if len(pos) == len(pts) else _xy(pos, on_means)
        a0, log_c0 = _ols(np.log(pn), np.log(py))
        c0 = _exp_c(log_c0)

    c, a, rss, iterations, converged = (
        v[0].item() for v in _gauss_newton(n_arr, y_arr[None, :], c0, a0)
    )
    with np.errstate(over="ignore", invalid="ignore"):
        ss_tot = float(((y_arr - y_arr.mean()) ** 2).sum())
    if not all(map(math.isfinite, (c, a, rss, ss_tot))):
        raise NumericError(f"floating-point overflow: the nonlinear fit (c={c!r}, alpha={a!r}, rss={rss!r}) "
                           "leaves the float range")
    fit = PowerLawFit(
        alpha=a,
        c=c,
        method=NONLINEAR,
        n_range=n_range,
        rss=rss,
        r_squared=_r_squared(rss, ss_tot),
        iterations=iterations,
    )
    if not converged:
        raise NonConvergenceError(
            f"Gauss-Newton did not converge within {GN_MAX_ITER} iterations "
            f"(last rss {rss:.6g})",
            last_fit=fit,
        )
    return fit


def fit_discrepancy(a: PowerLawFit, b: PowerLawFit) -> Discrepancy:
    """Relative |difference| of alpha and c between two fits, reference = first."""
    if a.n_range[0] > b.n_range[1] or b.n_range[0] > a.n_range[1]:
        raise ParameterError(
            f"fits cover disjoint sample ranges {a.n_range} and {b.n_range}"
        )
    if a.alpha == 0.0:
        raise ParameterError("reference fit has zero exponent; relative discrepancy undefined")
    return Discrepancy(
        alpha=abs(a.alpha - b.alpha) / abs(a.alpha),
        c=abs(a.c - b.c) / abs(a.c),
    )


def detect_power_law_region(
    ms: MeasurementSet,
    plateau: float | None = None,
    r2_threshold: float = 0.98,
) -> RegionSegmentation:
    """Locate the start (and, when visible, the end) of the power-law phase.

    The start is the smallest grid point N whose suffix (all points with
    N' >= N) admits a log-log fit on per-N means with r-squared at or
    above ``r2_threshold``; when ``plateau`` is given, the per-N mean at N
    must additionally sit below ``0.95 * plateau``, which keeps
    random-guess points out of the region.  The end is reported only when
    the trailing means flatten: the log-log slope of the last three grid
    points must exceed a quarter of the fitted exponent.
    """
    if not 0.0 <= r2_threshold <= 1.0:
        raise ParameterError(f"r2_threshold must lie in [0, 1], got {r2_threshold}")
    grid = ms.distinct_n()
    if len(grid) < 4:
        raise InsufficientDataError(f"need at least 4 distinct sample counts, found {len(grid)}")
    means = [row.mean for row in aggregate(ms)]
    _require_positive(ms)
    log_n, log_mean = np.log(np.asarray(grid, dtype=float)), np.log(np.asarray(means))

    diagnostics: dict[int, float | None] = {}
    start = None
    for k, n0 in enumerate(grid[:-1]):  # the last point alone cannot anchor a fit
        alpha, _, _, r_squared = _loglog_line(log_n[k:], log_mean[k:])
        diagnostics[n0] = r_squared
        ok = r_squared is not None and r_squared >= r2_threshold
        if ok and plateau is not None:
            ok = means[k] < 0.95 * plateau
        if ok and start is None:
            start, start_alpha = n0, alpha
    if start is None:
        raise NoRegionError(
            f"no suffix of the grid reaches r_squared >= {r2_threshold}",
            diagnostics=diagnostics,
        )

    tail_slope, _ = _ols(log_n[-3:], log_mean[-3:])
    n_end = grid[-3] if tail_slope > start_alpha / 4.0 and grid[-3] >= start else None
    return RegionSegmentation(start, n_end, diagnostics)


def bootstrap_ci(
    ms: MeasurementSet,
    method: str = LOGLOG,
    n_min: int | None = None,
    n_max: int | None = None,
    *,
    draws: int = 1000,
    confidence: float = 0.95,
    seed: int = 0,
    on_means: bool = True,
) -> PowerLawFit:
    """Case-resampling percentile confidence interval for the exponent.

    Replicates are resampled with replacement independently within each N,
    the curve is refitted per draw, and the interval is the percentile
    range of the resampled exponents.  Randomness for draw ``i`` is derived
    from ``(seed, i)``, so results do not depend on evaluation order.
    Returns the fit on the original data with ``ci_alpha`` attached.
    """
    if method not in (LOGLOG, NONLINEAR):
        raise ParameterError(f"unknown fit method {method!r}")
    if draws < 1:
        raise ParameterError(f"draws must be >= 1, got {draws}")
    if not 0.0 < confidence < 1.0:
        raise ParameterError(f"confidence must lie in (0, 1), got {confidence}")
    if seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed}")

    if method == LOGLOG:
        base = fit_loglog(ms, n_min, n_max, on_means=on_means)
    else:
        base = fit_nonlinear(ms, n_min, n_max, on_means=on_means)

    groups = group_by_n(sorted(_select(ms, n_min, n_max), key=lambda p: p.replicate))
    for n, vals in groups:
        if vals.size < 2:
            raise InsufficientDataError(
                f"only one replicate at N={n}: case resampling needs at least 2 "
                "(residual bootstrap is not supported)"
            )
    ns = np.asarray([n for n, _ in groups], dtype=float)
    values = np.concatenate([vals for _, vals in groups])
    counts = np.asarray([vals.size for _, vals in groups])
    offsets = np.concatenate(([0], np.cumsum(counts)))
    # Uniform j of a draw picks one of the values in the group of value j.
    group_start = np.repeat(offsets[:-1], counts)
    group_size = np.repeat(counts, counts)
    x = ns if on_means else np.repeat(ns, counts)
    log_x = np.log(x)

    alphas = []
    failures = 0
    rows = max(1, BLOCK_VALUES // len(values))
    u = np.empty((rows, len(values)))
    for first in range(0, draws, rows):
        block = u[: min(rows, draws - first)]
        for i, row in enumerate(block, start=first):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
            rng.random(out=row)
        y = values[group_start + (block * group_size).astype(np.intp)]
        if on_means:
            y = np.stack([y[:, lo:hi].mean(axis=1) for lo, hi in zip(offsets, offsets[1:])], axis=1)
        if method == LOGLOG:
            alphas.append(_ols(log_x, np.log(y))[0])
        else:
            _, a, _, _, converged = _gauss_newton(x, y, base.c, base.alpha)
            alphas.append(a[converged])
            failures += int((~converged).sum())
    if failures > draws // 2:
        raise NonConvergenceError(
            f"bootstrap refit failed on {failures} of {draws} draws", last_fit=base
        )

    lo_q = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(np.concatenate(alphas), [lo_q, 1.0 - lo_q])
    return dataclasses.replace(base, ci_alpha=(float(lo), float(hi)))

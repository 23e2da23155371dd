"""Power-law fitting for learning curves.

Two estimation routes for ``L(N) = c * N**alpha``:

* :func:`fit_loglog` -- ordinary least squares on (log N, log L), using
  ``log L = log c + alpha * log N``.
* :func:`fit_nonlinear` -- damped Gauss-Newton on the original scale,
  minimizing ``sum (L_i - c * N_i**alpha)**2``.

Every fit sees one point per distinct N (see :func:`_xy`): off the means,
``sum_i (y_i - f(N_i))**2 = sum_g R_g*(mean_g - f(N_g))**2 + SS_pure`` for
group counts ``R_g`` and the within-group sum of squares ``SS_pure``, which
no fit moves (Draper & Smith, *Applied Regression Analysis*, 3rd ed., §2.1).

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

import numpy as np

from .curves import LOGLOG, NONLINEAR, Discrepancy, PowerLawFit, RegionSegmentation
from .errors import (
    InsufficientDataError,
    LogDomainError,
    NonConvergenceError,
    NoRegionError,
    NumericError,
    ParameterError,
    check_integer,
    is_real,
)
from .model import Groups, MeasurementSet, group_by_n, reduce_groups, require_finite, window

GN_MAX_ITER = 200
GN_REL_TOL = 1e-10
GN_MAX_HALVINGS = 30

# bootstrap_ci refuses more draws than this: its run time and its list of exponents grow with them.
MAX_DRAWS = 10**6

# bootstrap_ci draws its resamples in blocks, and refits them in batches, of about this many values
# (resampled values per block, per-N points per batch).
BLOCK_VALUES = 8192


def _distinct(ns: list[int]) -> int:
    """How many distinct sample counts the ascending counts ``ns`` hold, as the fits see N: as the log
    of a float, so counts that round to one float, or to floats with one log, are one count."""
    log_n = np.log(np.asarray(ns, dtype=float))
    return int(log_n.size > 0) + int(np.count_nonzero(log_n[1:] != log_n[:-1]))


def _select(ms: MeasurementSet, n_min, n_max) -> tuple[MeasurementSet, Groups]:
    """The window of ``ms`` in [n_min, n_max]; it must hold >= 2 distinct N (see :func:`_distinct`)."""
    sub, groups = window(ms, n_min, n_max)
    distinct = _distinct(groups.n)
    if distinct < 2:
        raise InsufficientDataError(
            f"need at least 2 distinct sample counts in [{n_min}, {n_max}], found {distinct}"
        )
    return sub, groups


@np.errstate(over="ignore", invalid="ignore")  # an overflowing mean raises NumericError
def _xy(groups: Groups, on_means: bool, log: bool = False, what: str = "a per-N mean"):
    """The per-N points a fit sees, ``(x, y, weights, values)``, for ``groups`` whose values may
    hold one set per row (y then holds one row per set).  On means y is each group's mean (its
    log with ``log``) of weight 1 and the values are y.  Off means y is the mean of each group's
    values (of their logs with ``log``) weighted by the group's count, and the values every value
    (log): what r-squared's total sum of squares covers.  ``what`` names the mean in an
    overflow's message.
    """
    values = np.log(groups.values) if log and not on_means else groups.values
    y = require_finite(reduce_groups(values, groups.counts, np.mean), what)
    x = np.asarray(groups.n, dtype=float)
    if on_means:
        y = np.log(y) if log else y
        return x, y, 1.0, y
    return x, y, groups.counts.astype(float), values


@np.errstate(over="ignore", invalid="ignore")  # an overflowing spread ends as inf
def _ss_pure(counts: np.ndarray, y: np.ndarray, values: np.ndarray, on_means: bool) -> np.ndarray:
    """``SS_pure`` of the points ``y`` and ``values`` of :func:`_xy`, one entry per row of y: 0 on
    means, off them the sum of squares of each group's ``counts`` values about their mean."""
    if on_means:
        return np.zeros(y.shape[:-1])
    within = np.repeat(y, counts, axis=-1)
    np.subtract(values, within, out=within)
    within *= within
    return within.sum(axis=-1)


@np.errstate(divide="ignore", invalid="ignore")  # sample counts equal in log space give a nan slope
def _ols(x: np.ndarray, y: np.ndarray, weights=1.0) -> tuple[np.ndarray, np.ndarray]:
    """Weighted least-squares lines y = intercept + slope*x along the last axis of ``y``, every
    line with the per-point ``weights`` (a scalar weighs every point alike).

    Returns slope and intercept, one entry per line (0-d for one line).
    """
    total = np.broadcast_to(weights, x.shape).sum(axis=-1, keepdims=True)
    xm, ym = ((weights * v).sum(axis=-1, keepdims=True) / total for v in (x, y))
    xc = x - xm
    wxc = weights * xc
    slope = (wxc * (y - ym)).sum(axis=-1) / (wxc * xc).sum(axis=-1)
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
    if ss_tot == 0.0 or math.isnan(rss):
        return None
    return min(max(1.0 - rss / ss_tot, 0.0), 1.0)


def _require_positive(ms: MeasurementSet) -> None:
    bad = np.flatnonzero(ms.value <= 0.0)
    if bad.size:
        value, n, replicate = float(ms.value[bad[0]]), int(ms.n[bad[0]]), int(ms.replicate[bad[0]])
        raise LogDomainError(
            f"value {value!r} at (metric={ms.metrics()[0]!r}, n={n}, replicate={replicate}) "  # a window: one metric
            "is not positive; logarithm undefined"
        )


def fit_loglog(
    ms: MeasurementSet,
    n_min: int | None = None,
    n_max: int | None = None,
    *,
    on_means: bool = True,
) -> PowerLawFit:
    """Least-squares line in log-log space.

    With ``on_means`` (the default, matching plotted mean curves) the log
    of each per-N mean is one point; otherwise every replicate counts, as
    the per-N mean of the logs weighted by the replicate count.  All values
    in the window must be strictly positive.
    """
    sub, groups = _select(ms, n_min, n_max)
    _require_positive(sub)
    x, log_y, weights, values = _xy(groups, on_means, log=True)
    log_n = np.log(x)
    alpha, log_c = map(float, _ols(log_n, log_y, weights))
    resid = log_y - (log_c + alpha * log_n)
    rss = float((weights * resid) @ resid + _ss_pure(groups.counts, log_y, values, on_means))
    return PowerLawFit(
        alpha=alpha,
        c=_exp_c(log_c),
        method=LOGLOG,
        n_range=(groups.n[0], groups.n[-1]),
        rss=rss,
        r_squared=_r_squared(rss, float(((values - values.mean()) ** 2).sum())),
    )


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # a row that leaves the float range ends as inf or nan
def _gauss_newton(
    n: np.ndarray, y: np.ndarray, c0: float, a0: float, weights=1.0, ss_pure=0.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Damped Gauss-Newton for min sum weights*(y - c*n**a)**2, one problem per row of ``y``.

    Every row shares the sample counts ``n``, the per-point ``weights`` and the start (c0, a0);
    ``ss_pure`` (a scalar or one per row) is added to each row's weighted sum, so the rss, its
    relative decrease and the returned rss are those of every value behind the points.

    The step solves the 2x2 normal equations ``[pp pq; pq qq] d = [g0; g1]``, with each entry one
    row sum of products of ``p = n**a``, ``q = c*p*ln n`` and the residual, all scaled by
    ``weights**0.5``, by Gaussian elimination with partial pivoting (LAPACK's method: the row
    with the larger first entry leads).  The pivot or ``u22`` being 0 makes the matrix singular,
    and such a row stops unconverged.  Full step first, then step halving (factor 0.5, at most
    ``GN_MAX_HALVINGS`` halvings) until the residual sum of squares decreases; candidates with
    c <= 0 are rejected the same way.  Each halving pass takes only the rows still searching,
    through their index ``search``.  If no improving step exists the iterate is stationary and
    the row has converged; otherwise convergence means a relative rss decrease below
    ``GN_REL_TOL``.  Each iteration gathers the iterates of the rows still iterating through
    one index, ``live``, and writes each accepted step back (their data rows drop out as rows
    stop); every row goes through the same floating-point operations as a solve of that row
    alone.  Returns arrays (c, alpha, rss, iterations, converged), one per row.
    """
    ln_n = np.log(n)
    # W**0.5 J and W**0.5 (y - f) give the weighted normal equations; both are scaled in place,
    # so weighting adds no array to an iteration.
    root_w = np.sqrt(weights)
    pure = np.full(len(y), ss_pure, dtype=float)
    c = np.full(len(y), c0, dtype=float)
    a = np.full(len(y), a0, dtype=float)
    rss = (weights * (y - c[:, None] * n ** a[:, None]) ** 2).sum(axis=1) + pure
    iterations = np.full(len(y), GN_MAX_ITER)
    converged = np.zeros(len(y), dtype=bool)
    live, y_l, pure_l = np.arange(len(y)), y, pure
    for iteration in range(1, GN_MAX_ITER + 1):
        c_l, a_l, rss_l = c[live], a[live], rss[live]
        p = n ** a_l[:, None]  # d/dc
        f = c_l[:, None] * p
        q = f * ln_n  # d/dalpha
        resid = np.subtract(y_l, f, out=f)
        for v in (p, q, resid):
            v *= root_w
        # einsum sums a row as it would sum that row alone; BLAS (@, np.dot) may not.
        pp, pq, qq, g0, g1 = (np.einsum("ij,ij->i", u, v) for u, v in ((p, p), (p, q), (q, q), (p, resid), (q, resid)))
        swap = np.abs(pq) > pp
        (a11, a12, b1), (a21, a22, b2) = np.where(swap, ((pq, qq, g1), (pp, pq, g0)), ((pp, pq, g0), (pq, qq, g1)))
        l21 = a21 / a11
        u22 = a22 - l21 * a12
        solved = (a11 != 0.0) & (u22 != 0.0)
        d_a = (b2 - l21 * b1) / u22
        d_c = (b1 - a12 * d_a) / a11

        search = np.flatnonzero(solved)
        step = 1.0
        for _ in range(GN_MAX_HALVINGS + 1):
            if len(search) == 0:
                break
            cc = c_l[search] + step * d_c[search]
            aa = a_l[search] + step * d_a[search]
            rr = (weights * (y_l[search] - cc[:, None] * n ** aa[:, None]) ** 2).sum(axis=1) + pure_l[search]
            better = (cc > 0.0) & (rr < rss_l[search])
            took = live[search[better]]
            c[took], a[took], rss[took] = cc[better], aa[better], rr[better]
            search = search[~better]
            step *= 0.5

        # A row without a descent step is stationary: its rss change is zero.
        new_rss = rss[live]
        drop = np.divide(rss_l - new_rss, rss_l, out=np.zeros(len(live)), where=new_rss < rss_l)
        stop = drop < GN_REL_TOL
        if stop.any():
            converged[live[stop]], iterations[live[stop]] = solved[stop], iteration
            live, y_l, pure_l = live[~stop], y_l[~stop], pure_l[~stop]
        if len(live) == 0:
            break
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
    here but have no logarithm).  Off the means it fits the per-N means
    weighted by their replicate counts, and its rss covers every value.
    Raises :class:`NonConvergenceError` carrying the last iterate if 200
    iterations do not converge, or if the normal matrix turns singular first;
    the message says which, and at which iteration.
    """
    sub, groups = _select(ms, n_min, n_max)
    x, y, weights, values = _xy(groups, on_means)

    if init is not None:
        c0, a0 = init.c, init.alpha
    else:
        pos = sub.value > 0.0
        pos_groups = group_by_n(sub.n[pos], sub.value[pos])
        if _distinct(pos_groups.n) < 2:
            raise InsufficientDataError(
                "cannot derive an initial guess: fewer than 2 distinct sample counts "
                "with positive values; pass init explicitly"
            )
        pos_x, log_y, pos_weights, _ = _xy(pos_groups, on_means, log=True)
        a0, log_c0 = map(float, _ols(np.log(pos_x), log_y, pos_weights))
        c0 = _exp_c(log_c0)

    c, a, rss, iterations, converged = (
        v[0].item()
        for v in _gauss_newton(x, y[None, :], c0, a0, weights, _ss_pure(groups.counts, y, values, on_means))
    )
    with np.errstate(over="ignore", invalid="ignore"):
        ss_tot = float(((values - values.mean()) ** 2).sum())
    require_finite([c, a, rss, ss_tot], f"the nonlinear fit (c={c!r}, alpha={a!r}, rss={rss!r})")
    fit = PowerLawFit(
        alpha=a,
        c=c,
        method=NONLINEAR,
        n_range=(groups.n[0], groups.n[-1]),
        rss=rss,
        r_squared=_r_squared(rss, ss_tot),
        iterations=iterations,
    )
    if not converged:
        why = (
            f"stopped at iteration {iterations}: the normal matrix is singular"
            if iterations < GN_MAX_ITER
            else f"did not converge within {GN_MAX_ITER} iterations"
        )
        raise NonConvergenceError(f"Gauss-Newton {why} (last rss {rss:.6g})", last_fit=fit)
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

    One backward pass over the grid merges one point at a time into the
    running co-moments of (log N, log mean), taken about the last point,
    by Welford's update (raw power sums would cancel catastrophically), so
    every suffix's slope ``Sxy/Sxx`` and r-squared ``Sxy**2/(Sxx*Syy)``
    come in O(G) time.  An r-squared is None where ``Sxx`` or ``Syy`` is 0.
    """
    if not is_real(r2_threshold, 0.0, 1.0):
        raise ParameterError(f"r2_threshold must lie in [0, 1], got {r2_threshold!r}")
    if not (plateau is None or is_real(plateau)):
        raise ParameterError(f"plateau must be None or a finite real number, got {plateau!r}")
    grid = ms.distinct_n()
    if _distinct(grid) < 4:
        raise InsufficientDataError(f"need at least 4 distinct sample counts, found {_distinct(grid)}")
    sub, groups = window(ms)
    _require_positive(sub)
    x, means, *_ = _xy(groups, True)
    log_n, log_mean = np.log(x), np.log(means)

    diagnostics: dict[int, float | None] = {}
    start = None
    count = mx = my = sxx = syy = sxy = 0.0
    # Taken about the last point, which every suffix holds, so means equal to a few ulps keep their spread.
    shifted = zip((log_n - log_n[-1]).tolist(), (log_mean - log_mean[-1]).tolist(), grid, means.tolist())
    for lx, ly, n0, mean in reversed(list(shifted)):
        count += 1.0
        dx, dy = lx - mx, ly - my
        mx += dx / count
        my += dy / count
        ey = ly - my
        sxx += dx * (lx - mx)
        syy += dy * ey
        sxy += dx * ey
        if count == 1.0:  # the last point alone cannot anchor a fit
            continue
        r_squared = min(sxy * sxy / (sxx * syy), 1.0) if sxx and syy else None
        diagnostics[n0] = r_squared
        ok = r_squared is not None and r_squared >= r2_threshold
        if ok and plateau is not None:
            ok = mean < 0.95 * plateau
        if ok:  # the pass runs backwards: the last suffix to pass is the first
            start, start_alpha = n0, sxy / sxx
    diagnostics = dict(reversed(diagnostics.items()))
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
    range of the resampled exponents.  All uniforms come from one Philox
    stream keyed by ``SeedSequence(seed)``, and ``draws`` may be at most
    ``MAX_DRAWS``; draw ``i`` takes the counter
    blocks ``[i*w/4, (i+1)*w/4)``, where ``w = 4*ceil(P/4)`` for ``P``
    resampled values, so it depends only on ``(seed, i, P)``, not on the
    block size or on ``draws``.  Each resample is reduced to the per-N
    points of :func:`_xy` at once, on means or off them.  ``BLOCK_VALUES``
    bounds the memory twice: a resample block holds about that many
    resampled values, and a refit batch, a whole number of resample blocks,
    about that many per-N points.  Every draw's refit is the same whatever
    its batch.  Returns the fit on the original data with
    ``ci_alpha`` attached and ``draws_failed`` set to the number of draws
    whose refit did not converge and was left out (0 for ``loglog``).
    """
    if method not in (LOGLOG, NONLINEAR):
        raise ParameterError(f"unknown fit method {method!r}")
    draws = check_integer(draws, "draws", 1, MAX_DRAWS)
    if not is_real(confidence, math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0)):
        raise ParameterError(f"confidence must lie in (0, 1), got {confidence!r}")
    seed = check_integer(seed, "seed", 0)

    base = (fit_loglog if method == LOGLOG else fit_nonlinear)(ms, n_min, n_max, on_means=on_means)

    ns, counts, values = window(ms, n_min, n_max)[1]  # a group resamples its values in replicate order
    if (counts < 2).any():
        raise InsufficientDataError(
            f"only one replicate at N={ns[np.argmax(counts < 2)]}: case resampling needs at least 2 "
            "(residual bootstrap is not supported)"
        )
    x = np.asarray(ns, dtype=float)
    log_x = np.log(x)
    # Uniform j of a draw picks one of the values in the group of value j.
    group_start = np.repeat(np.cumsum(counts) - counts, counts)
    group_size = np.repeat(counts, counts)

    # A row of w = 4*ceil(P/4) uniforms is a whole number of Philox counter blocks.
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    width = -(-len(values) // 4) * 4
    alphas = []
    failures = 0
    rows = max(1, BLOCK_VALUES // len(values))  # draws per resample block
    batch = rows * max(1, BLOCK_VALUES // (rows * len(x)))  # draws per refit: whole resample blocks
    for first in range(0, draws, batch):
        ys, pure = [], []
        for start in range(first, min(first + batch, draws), rows):
            block = rng.random((min(rows, draws - start), width))[:, : len(values)]
            resample = Groups(x, counts, values[group_start + (block * group_size).astype(np.intp)])
            _, y, weights, resampled = _xy(resample, on_means, method == LOGLOG, "a resampled per-N mean")
            ys.append(y)
            if method == NONLINEAR:  # the log-log refit has no use for SS_pure
                pure.append(_ss_pure(counts, y, resampled, on_means))
        y = np.concatenate(ys)
        if method == LOGLOG:
            alphas.append(_ols(log_x, y, weights)[0])
        else:
            _, a, _, _, converged = _gauss_newton(x, y, base.c, base.alpha, weights, np.concatenate(pure))
            alphas.append(a[converged])
            failures += int((~converged).sum())
    if failures > draws // 2:
        raise NonConvergenceError(
            f"bootstrap refit failed on {failures} of {draws} draws", last_fit=base
        )

    lo_q = (1.0 - confidence) / 2.0
    lo, hi = require_finite(np.quantile(np.concatenate(alphas), [lo_q, 1.0 - lo_q]), "the bootstrap interval")
    return dataclasses.replace(base, ci_alpha=(float(lo), float(hi)), draws_failed=failures)

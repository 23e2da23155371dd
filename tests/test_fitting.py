"""Tests for the power-law estimators, region detection, and the bootstrap."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from learncurve import (
    InsufficientDataError,
    LogDomainError,
    MeasurementSet,
    NonConvergenceError,
    NoRegionError,
    ParameterError,
    PowerLawFit,
    RegionSegmentation,
    ThreePhaseModel,
    ToolkitError,
    aggregate,
    bootstrap_ci,
    detect_power_law_region,
    fit_discrepancy,
    fit_loglog,
    fit_nonlinear,
    synth_curve,
)
from learncurve import fitting

SIZES = [900, 1800, 3600, 9000, 22500, 45000, 90000]


def exact_points(alpha, c, ns, metric="m", replicates=1):
    rows = []
    for n in ns:
        for r in range(replicates):
            rows.append((metric, n, r, c * n**alpha))
    return MeasurementSet.from_rows(rows)


def make_fit(alpha, c, n_range=(90, 9000), method="loglog"):
    return PowerLawFit(alpha=alpha, c=c, method=method, n_range=n_range, rss=0.0, r_squared=1.0)


class TestFitLogLog:
    def test_noiseless_recovery(self):
        ms = exact_points(-0.5, 2.0, [100, 400, 1600])
        fit = fit_loglog(ms)
        assert fit.alpha == pytest.approx(-0.5, abs=1e-12)
        assert fit.c == pytest.approx(2.0, rel=1e-12)
        assert fit.rss == pytest.approx(0.0, abs=1e-24)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.n_range == (100, 1600)

    def test_two_point_line(self):
        ms = MeasurementSet.from_rows([("m", 10, 0, 1.0), ("m", 100, 0, 0.1)])
        fit = fit_loglog(ms)
        assert fit.alpha == pytest.approx(-1.0, abs=1e-12)
        assert fit.c == pytest.approx(10.0, rel=1e-12)

    def test_recovers_exponent_from_noisy_means(self):
        model = ThreePhaseModel(alpha=-0.62, c=0.5 * 900**0.62, plateau=1.0, floor=0.0)
        ms = synth_curve(model, SIZES, 5, 0.02, seed=12)
        fit = fit_loglog(ms, on_means=True)
        assert fit.alpha == pytest.approx(-0.62, abs=0.03)

    def test_window_restricts_points(self):
        ms = exact_points(-0.5, 2.0, [10, 100, 400, 1600])
        fit = fit_loglog(ms, n_min=100, n_max=1600)
        assert fit.n_range == (100, 1600)

    def test_insufficient_distinct_n(self):
        ms = MeasurementSet.from_rows([("m", 10, 0, 1.0), ("m", 10, 1, 1.1)])
        with pytest.raises(InsufficientDataError):
            fit_loglog(ms)

    def test_window_can_starve_the_fit(self):
        ms = exact_points(-0.5, 2.0, [100, 400, 1600])
        with pytest.raises(InsufficientDataError):
            fit_loglog(ms, n_min=500, n_max=2000)

    def test_nonpositive_value_names_the_point(self):
        ms = MeasurementSet.from_rows([("m", 10, 0, 1.0), ("m", 100, 2, 0.0)])
        with pytest.raises(LogDomainError, match=r"n=100, replicate=2"):
            fit_loglog(ms)

    def test_mixed_metrics_rejected(self):
        ms = MeasurementSet.from_rows([("a", 10, 0, 1.0), ("b", 100, 0, 0.1)])
        with pytest.raises(ParameterError):
            fit_loglog(ms)

    def test_means_equal_replicates_when_replicates_identical(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            alpha = rng.uniform(-0.9, -0.1)
            c = rng.uniform(0.5, 5.0)
            ns = sorted(rng.choice(np.arange(10, 5000), size=4, replace=False).tolist())
            noisy = [c * n**alpha * (1 + rng.normal(0, 0.1)) for n in ns]
            rows = [("m", n, r, v) for n, v in zip(ns, noisy) for r in range(3)]
            ms = MeasurementSet.from_rows(rows)
            fit_means = fit_loglog(ms, on_means=True)
            fit_reps = fit_loglog(ms, on_means=False)
            assert fit_means.alpha == pytest.approx(fit_reps.alpha, rel=1e-12)
            assert fit_means.c == pytest.approx(fit_reps.c, rel=1e-12)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(6)
        model = ThreePhaseModel(alpha=-0.4, c=3.0, plateau=50.0, floor=0.0)
        ms = synth_curve(model, [10, 30, 100, 300], 3, 0.05, seed=9)
        s = float(rng.uniform(0.5, 20.0))
        scaled = MeasurementSet.from_rows([(p.metric, p.n, p.replicate, p.value * s) for p in ms])
        base, multiplied = fit_loglog(ms), fit_loglog(scaled)
        assert multiplied.alpha == pytest.approx(base.alpha, rel=1e-12)
        assert multiplied.c == pytest.approx(base.c * s, rel=1e-9)

    def test_grid_equivariance(self):
        model = ThreePhaseModel(alpha=-0.4, c=3.0, plateau=50.0, floor=0.0)
        ms = synth_curve(model, [10, 30, 100, 300], 3, 0.05, seed=9)
        beta = 3
        relabeled = MeasurementSet.from_rows(
            [(p.metric, p.n * beta, p.replicate, p.value) for p in ms]
        )
        base, mapped = fit_loglog(ms), fit_loglog(relabeled)
        assert mapped.alpha == pytest.approx(base.alpha, rel=1e-12)
        assert mapped.c == pytest.approx(base.c * beta ** (-base.alpha), rel=1e-9)


class TestFitNonlinear:
    def test_noiseless_agreement_with_loglog(self):
        ms = exact_points(-0.5, 2.0, [100, 400, 1600])
        fit = fit_nonlinear(ms)
        assert fit.alpha == pytest.approx(-0.5, abs=1e-10)
        assert fit.c == pytest.approx(2.0, rel=1e-10)
        assert fit.method == "nonlinear"

    def test_true_init_converges_immediately(self):
        ms = exact_points(-0.5, 2.0, [100, 400, 1600])
        fit = fit_nonlinear(ms, init=make_fit(-0.5, 2.0, (100, 1600)))
        assert fit.rss == 0.0
        assert fit.iterations <= 2

    def test_noiseless_recovery_tight(self):
        model = ThreePhaseModel(alpha=-0.62, c=0.5 * 900**0.62, plateau=1.0, floor=0.0)
        ms = synth_curve(model, SIZES, 5, 0.0, seed=1)
        fit = fit_nonlinear(ms)
        assert fit.alpha == pytest.approx(-0.62, abs=1e-9)

    def test_heteroscedastic_data_separates_the_methods(self):
        # Additive constant-variance noise favors large-N points in log space,
        # so the two routes disagree.  The expected discrepancy is frozen from
        # a fixed-seed oracle run of this exact generator.
        rng = np.random.default_rng(20240901)
        model = ThreePhaseModel(alpha=-0.62, c=0.5 * 900**0.62, plateau=1.0, floor=0.0)
        rows = []
        for n in SIZES:
            base = model.evaluate(n)
            for r in range(5):
                rows.append(("m", n, r, max(base + rng.normal(0.0, 0.05), 1e-9)))
        ms = MeasurementSet.from_rows(rows)
        fit_a, fit_b = fit_loglog(ms), fit_nonlinear(ms)
        disc = fit_discrepancy(fit_a, fit_b)
        assert disc.alpha == pytest.approx(0.15757295753923675, rel=1e-9)
        assert disc.alpha > 0.01

    def test_scale_equivariance(self):
        model = ThreePhaseModel(alpha=-0.4, c=3.0, plateau=50.0, floor=0.0)
        ms = synth_curve(model, [10, 30, 100, 300], 3, 0.05, seed=9)
        s = 7.5
        scaled = MeasurementSet.from_rows([(p.metric, p.n, p.replicate, p.value * s) for p in ms])
        base, multiplied = fit_nonlinear(ms), fit_nonlinear(scaled)
        assert multiplied.alpha == pytest.approx(base.alpha, rel=1e-8)
        assert multiplied.c == pytest.approx(base.c * s, rel=1e-8)

    def test_zero_values_allowed_with_explicit_init(self):
        rows = [("m", 10, 0, 1.0), ("m", 100, 0, 0.1), ("m", 10000, 0, 0.0)]
        ms = MeasurementSet.from_rows(rows)
        fit = fit_nonlinear(ms, init=make_fit(-1.0, 10.0, (10, 10000)))
        assert fit.alpha < -0.5


class TestFitDiscrepancy:
    def test_identical_fits(self):
        fit = make_fit(-0.5, 2.0)
        assert fit_discrepancy(fit, fit) == (0.0, 0.0)

    def test_eight_percent_scale(self):
        a, b = make_fit(-0.50, 1.0), make_fit(-0.54, 1.0)
        disc = fit_discrepancy(a, b)
        assert disc.alpha == pytest.approx(0.08, rel=1e-12)

    def test_reference_is_first_argument(self):
        a, b = make_fit(-0.5, 2.0), make_fit(-0.6, 3.0)
        assert fit_discrepancy(a, b).alpha == pytest.approx(0.1 / 0.5)
        assert fit_discrepancy(b, a).alpha == pytest.approx(0.1 / 0.6)

    def test_zero_reference_exponent_rejected(self):
        a = make_fit(0.0, 2.0)
        with pytest.raises(ParameterError):
            fit_discrepancy(a, make_fit(-0.5, 2.0))

    def test_disjoint_ranges_rejected(self):
        a = make_fit(-0.5, 2.0, n_range=(10, 100))
        b = make_fit(-0.5, 2.0, n_range=(200, 900))
        with pytest.raises(ParameterError):
            fit_discrepancy(a, b)


class TestPowerLawFitValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(c=0.0),
            dict(c=-1.0),
            dict(n_range=(100, 100)),
            dict(rss=-1.0),
            dict(r_squared=1.5),
        ],
    )
    def test_invalid(self, kwargs):
        base = dict(alpha=-0.5, c=1.0, method="loglog", n_range=(10, 100), rss=0.0, r_squared=1.0)
        base.update(kwargs)
        with pytest.raises(ParameterError):
            PowerLawFit(**base)


GRID = [90, 180, 360, 720, 1440, 2880, 5760, 11520]


class TestDetectRegion:
    def three_phase_set(self, plateau_exit=500.0, floor=0.0, sigma=0.0, seed=1):
        alpha = -0.62
        c = 0.5 * plateau_exit**0.62  # power law crosses 0.5 exactly at plateau_exit
        model = ThreePhaseModel(alpha=alpha, c=c, plateau=0.5, floor=floor)
        return model, synth_curve(model, GRID, 3, sigma, seed=seed, metric="m")

    def test_start_after_plateau(self):
        model, ms = self.three_phase_set()
        seg = detect_power_law_region(ms, plateau=model.plateau)
        # True transition at N=500; the smallest grid point past it is 720.
        assert seg.n_start_power_law == 720
        assert seg.n_end_power_law is None

    def test_pure_power_law_starts_at_first_grid_point(self):
        model = ThreePhaseModel(alpha=-0.62, c=10.0, plateau=1e6, floor=0.0)
        ms = synth_curve(model, GRID, 3, 0.0, seed=2, metric="m")
        seg = detect_power_law_region(ms)
        assert seg.n_start_power_law == GRID[0]
        assert seg.n_end_power_law is None

    def test_constant_data_has_no_region(self):
        rows = [("m", n, r, 0.5) for n in GRID for r in range(2)]
        ms = MeasurementSet.from_rows(rows)
        with pytest.raises(NoRegionError) as exc_info:
            detect_power_law_region(ms)
        assert set(exc_info.value.diagnostics) == set(GRID[:-1])

    def test_diagnostics_cover_every_candidate(self):
        model, ms = self.three_phase_set()
        seg = detect_power_law_region(ms, plateau=model.plateau)
        assert sorted(seg.diagnostics) == GRID[:-1]

    def test_flattening_tail_reports_region_end(self):
        # Floor reached by the last three grid points; relaxing the r^2 rule
        # lets the start be found, and the flat tail triggers the end report.
        model, ms = self.three_phase_set(floor=0.5 * (500 / 2880) ** 0.62)
        seg = detect_power_law_region(ms, plateau=model.plateau, r2_threshold=0.5)
        assert seg.n_end_power_law == GRID[-3]
        assert seg.n_start_power_law <= seg.n_end_power_law

    def test_start_is_on_the_grid(self):
        rng = np.random.default_rng(11)
        for seed in range(10):
            model = ThreePhaseModel(alpha=-0.5, c=20.0, plateau=1e6, floor=0.0)
            ms = synth_curve(model, GRID, 3, 0.02, seed=seed, metric="m")
            try:
                seg = detect_power_law_region(ms)
            except NoRegionError:
                continue
            assert seg.n_start_power_law in GRID
            assert seg.n_start_power_law >= GRID[0]

    def test_needs_four_distinct_n(self):
        ms = exact_points(-0.5, 2.0, [100, 400, 1600])
        with pytest.raises(InsufficientDataError):
            detect_power_law_region(ms)

    def test_segmentation_invariant(self):
        with pytest.raises(ParameterError):
            RegionSegmentation(n_start_power_law=720, n_end_power_law=360, diagnostics={})


class TestBootstrap:
    MODEL = ThreePhaseModel(alpha=-0.62, c=0.5 * 900**0.62, plateau=1.0, floor=0.0)

    def test_zero_noise_collapses_interval(self):
        ms = synth_curve(self.MODEL, SIZES, 5, 0.0, seed=3, metric="m")
        fit = bootstrap_ci(ms, "loglog", seed=10)
        lo, hi = fit.ci_alpha
        assert lo == hi == pytest.approx(-0.62, abs=1e-12)

    def test_same_seed_identical(self):
        ms = synth_curve(self.MODEL, SIZES, 5, 0.05, seed=3, metric="m")
        a = bootstrap_ci(ms, "loglog", seed=10)
        b = bootstrap_ci(ms, "loglog", seed=10)
        assert a.ci_alpha == b.ci_alpha

    def test_different_seed_differs(self):
        ms = synth_curve(self.MODEL, SIZES, 5, 0.05, seed=3, metric="m")
        a = bootstrap_ci(ms, "loglog", seed=10)
        b = bootstrap_ci(ms, "loglog", seed=11)
        assert a.ci_alpha != b.ci_alpha

    def test_interval_brackets_point_estimate(self):
        ms = synth_curve(self.MODEL, SIZES, 5, 0.05, seed=3, metric="m")
        fit = bootstrap_ci(ms, "loglog", seed=10)
        lo, hi = fit.ci_alpha
        assert lo <= fit.alpha <= hi

    def test_single_replicate_rejected(self):
        rows = [("m", n, 0, self.MODEL.evaluate(n)) for n in SIZES]
        ms = MeasurementSet.from_rows(rows)
        with pytest.raises(InsufficientDataError, match="replicate"):
            bootstrap_ci(ms, "loglog", seed=1)

    def test_nonlinear_method_supported(self):
        ms = synth_curve(self.MODEL, SIZES, 5, 0.05, seed=3, metric="m")
        fit = bootstrap_ci(ms, "nonlinear", draws=50, seed=10)
        assert fit.method == "nonlinear"
        lo, hi = fit.ci_alpha
        assert lo < -0.62 + 0.2 and hi > -0.62 - 0.2

    def test_width_shrinks_with_more_replicates(self):
        # Stochastic claim, so compare averages over a few fixed seeds.
        def mean_width(reps):
            widths = []
            for seed in range(4):
                ms = synth_curve(self.MODEL, SIZES, reps, 0.05, seed=seed, metric="m")
                lo, hi = bootstrap_ci(ms, "loglog", draws=300, seed=seed).ci_alpha
                widths.append(hi - lo)
            return sum(widths) / len(widths)

        assert mean_width(12) < mean_width(3)

    def test_requested_confidence_changes_width(self):
        ms = synth_curve(self.MODEL, SIZES, 5, 0.05, seed=3, metric="m")
        wide = bootstrap_ci(ms, "loglog", seed=10, confidence=0.99).ci_alpha
        narrow = bootstrap_ci(ms, "loglog", seed=10, confidence=0.5).ci_alpha
        assert wide[1] - wide[0] > narrow[1] - narrow[0]

    @pytest.mark.parametrize("kwargs", [dict(draws=0), dict(confidence=1.0), dict(method="huber")])
    def test_bad_arguments(self, kwargs):
        ms = synth_curve(self.MODEL, SIZES, 5, 0.05, seed=3, metric="m")
        args = dict(method="loglog", draws=10, confidence=0.9, seed=1)
        args.update(kwargs)
        with pytest.raises(ParameterError):
            bootstrap_ci(ms, args.pop("method"), **args)


# ---------------------------------------------------------------------------
# The batched bootstrap against the per-draw refits it replaced
# ---------------------------------------------------------------------------


def reference_gauss_newton(n, y, c0, a0):
    """Gauss-Newton on one problem, as fit_nonlinear and every bootstrap draw
    ran it before refits were batched; the batched solver must match it bit
    for bit."""
    ln_n = np.log(n)
    c, a = float(c0), float(a0)
    f = c * n**a
    rss = float(((y - f) ** 2).sum())
    for iteration in range(1, fitting.GN_MAX_ITER + 1):
        pow_na = n**a
        f = c * pow_na
        r = y - f
        jac = np.column_stack((pow_na, f * ln_n))
        try:
            delta = np.linalg.solve(jac.T @ jac, jac.T @ r)
        except np.linalg.LinAlgError:
            return c, a, rss, iteration, False
        step = 1.0
        cand = None
        for _ in range(fitting.GN_MAX_HALVINGS + 1):
            cc = float(c + step * delta[0])
            aa = float(a + step * delta[1])
            if cc > 0.0:
                rr = float(((y - cc * n**aa) ** 2).sum())
                if rr < rss:
                    cand = (cc, aa, rr)
                    break
            step *= 0.5
        if cand is None:
            return c, a, rss, iteration, True
        rel_drop = (rss - cand[2]) / rss if rss > 0 else 0.0
        c, a, rss = cand
        if rel_drop < fitting.GN_REL_TOL:
            return c, a, rss, iteration, True
    return c, a, rss, fitting.GN_MAX_ITER, False


def reference_ci_alpha(ms, method, draws, confidence, seed, on_means):
    """bootstrap_ci's interval from one refit per draw, the loop it replaced."""
    base = (fit_loglog if method == "loglog" else fit_nonlinear)(ms, on_means=on_means)
    groups = {}
    for p in sorted(ms, key=lambda p: (p.n, p.replicate)):
        groups.setdefault(p.n, []).append(p.value)
    ns = np.asarray(sorted(groups), dtype=float)
    values = [np.asarray(groups[int(n)], dtype=float) for n in ns]
    counts = np.asarray([v.size for v in values])
    offsets = np.concatenate(([0], np.cumsum(counts)))
    alphas, failures = [], 0
    for i in range(draws):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        u = rng.random(int(counts.sum()))
        resampled = [
            vals[(u[offsets[g] : offsets[g + 1]] * vals.size).astype(np.intp)]
            for g, vals in enumerate(values)
        ]
        if on_means:
            x, y = ns, np.asarray([grp.mean() for grp in resampled])
        else:
            x, y = np.repeat(ns, counts), np.concatenate(resampled)
        if method == "loglog":
            lx, ly = np.log(x), np.log(y)
            xc = lx - lx.mean()
            alphas.append(float((xc * (ly - ly.mean())).sum() / (xc * xc).sum()))
        else:
            _, a, _, _, converged = reference_gauss_newton(x, y, base.c, base.alpha)
            if converged:
                alphas.append(a)
            else:
                failures += 1
    if failures > draws // 2:
        raise NonConvergenceError("too many failed draws")
    lo_q = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(np.asarray(alphas), [lo_q, 1.0 - lo_q])
    return float(lo), float(hi)


def outcome(compute):
    try:
        return compute()
    except ToolkitError as exc:
        return type(exc)


@st.composite
def curves(draw, max_replicates=6):
    """A noisy power law on 3-6 sizes with 2 or more replicates per size."""
    sizes = sorted(draw(st.lists(st.integers(1, 10**6), min_size=3, max_size=6, unique=True)))
    replicates = draw(st.lists(st.integers(2, max_replicates), min_size=len(sizes), max_size=len(sizes)))
    alpha = draw(st.floats(-0.95, -0.05))
    c = draw(st.floats(0.1, 100.0))
    sigma = draw(st.sampled_from([0.0, 0.01, 0.1, 0.4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = [
        ("m", n, r, max(c * n**alpha * (1.0 + sigma * rng.standard_normal()), 1e-6))
        for n, count in zip(sizes, replicates)
        for r in range(count)
    ]
    return MeasurementSet.from_rows(rows)


class TestBatchedBootstrap:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        ms=curves(),
        method=st.sampled_from(["loglog", "nonlinear"]),
        on_means=st.booleans(),
        draws=st.integers(1, 150),
        seed=st.integers(0, 2**63),
        confidence=st.sampled_from([0.5, 0.9, 0.95]),
        block=st.sampled_from([1, 10, 64, fitting.BLOCK_VALUES]),
    )
    def test_interval_equals_per_draw_refits_exactly(self, ms, method, on_means, draws, seed, confidence, block):
        # Small blocks split the draws into several blocks and a ragged last one.
        with mock.patch.object(fitting, "BLOCK_VALUES", block):
            got = outcome(lambda: bootstrap_ci(
                ms, method, draws=draws, confidence=confidence, seed=seed, on_means=on_means
            ).ci_alpha)
        assert got == outcome(lambda: reference_ci_alpha(ms, method, draws, confidence, seed, on_means))

    @pytest.mark.parametrize("method", ["loglog", "nonlinear"])
    @pytest.mark.parametrize("on_means", [True, False])
    def test_set_larger_than_a_block_refits_one_draw_at_a_time(self, method, on_means):
        model = ThreePhaseModel(alpha=-0.4, c=3.0, plateau=50.0, floor=0.0)
        sizes = sorted({int(n) for n in np.geomspace(50, 400_000, 60)})
        ms = synth_curve(model, sizes, 140, 0.05, seed=4, metric="m")
        assert len(ms) > fitting.BLOCK_VALUES
        got = bootstrap_ci(ms, method, draws=3, seed=8, on_means=on_means).ci_alpha
        assert got == reference_ci_alpha(ms, method, 3, 0.95, 8, on_means)

    def test_paper_scale_interval_unchanged(self):
        # 1000 draws of 35 values: four full blocks and a ragged fifth.
        ms = synth_curve(TestBootstrap.MODEL, SIZES, 5, 0.05, seed=3, metric="m")
        assert 1000 % (fitting.BLOCK_VALUES // len(ms)) != 0
        for method in ("loglog", "nonlinear"):
            got = bootstrap_ci(ms, method, seed=10).ci_alpha
            assert got == reference_ci_alpha(ms, method, 1000, 0.95, 10, True)

    @pytest.mark.filterwarnings("ignore:overflow encountered")  # far-off starts overshoot
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(ms=curves(), c0=st.floats(0.01, 100.0), a0=st.floats(-3.0, 1.0))
    def test_fit_nonlinear_takes_the_same_steps(self, ms, c0, a0):
        n = np.asarray([p.n for p in ms], dtype=float)
        y = np.asarray([p.value for p in ms])
        c, a, rss, iterations, converged = reference_gauss_newton(n, y, c0, a0)
        try:
            fit = fit_nonlinear(ms, on_means=False, init=make_fit(a0, c0))
        except NonConvergenceError as exc:
            assert not converged
            fit = exc.last_fit
        else:
            assert converged
        assert (fit.c, fit.alpha, fit.rss, fit.iterations) == (c, a, rss, iterations)

    def test_singular_normal_matrix_stops_those_rows_unconverged(self):
        # n**-400 underflows to 0, so the Jacobian and its normal matrix vanish.
        n = np.array([10.0, 100.0, 1000.0])
        y = np.array([[1.0, 0.5, 0.25], [2.0, 1.0, 0.5]])
        c, a, rss, iterations, converged = fitting._gauss_newton(n, y, 1.0, -400.0)
        assert not converged.any()
        assert iterations.tolist() == [1, 1]
        assert c.tolist() == [1.0, 1.0] and a.tolist() == [-400.0, -400.0]
        assert rss.tolist() == [(y[0] ** 2).sum(), (y[1] ** 2).sum()]

    def test_a_singular_system_fails_only_its_own_row(self):
        lhs = np.array([[[2.0, 1.0], [1.0, 3.0]], [[1.0, 2.0], [2.0, 4.0]], [[4.0, 0.0], [0.0, 5.0]]])
        rhs = np.array([[[1.0], [2.0]], [[1.0], [1.0]], [[8.0], [10.0]]])
        delta, solved = fitting._solve_rows(lhs, rhs)
        assert solved.tolist() == [True, False, True]
        assert np.isnan(delta[1]).all()
        for k in (0, 2):
            assert delta[k].tolist() == np.linalg.solve(lhs[k], rhs[k, :, 0]).tolist()


class TestNonlinearOracle:
    """fit_nonlinear against an independent least-squares solver."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("sigma", [0.02, 0.1])
    @pytest.mark.parametrize("on_means", [True, False])
    def test_agrees_with_scipy_curve_fit(self, seed, sigma, on_means):
        optimize = pytest.importorskip("scipy.optimize")
        model = ThreePhaseModel(alpha=-0.3 - 0.1 * seed, c=5.0, plateau=1e6, floor=0.0)
        ms = synth_curve(model, SIZES, 5, sigma, seed=100 + seed, metric="m")
        if on_means:
            rows = aggregate(ms)
            n, y = np.asarray([r.n for r in rows], dtype=float), np.asarray([r.mean for r in rows])
        else:
            n, y = np.asarray([p.n for p in ms], dtype=float), np.asarray([p.value for p in ms])
        start = fit_loglog(ms, on_means=on_means)
        (c, alpha), _ = optimize.curve_fit(
            lambda x, c, a: c * x**a, n, y, p0=(start.c, start.alpha),
            xtol=1e-15, ftol=1e-15, gtol=1e-15, maxfev=100_000,
        )
        rss = float(((y - c * n**alpha) ** 2).sum())
        fit = fit_nonlinear(ms, on_means=on_means)
        assert fit.alpha == pytest.approx(alpha, rel=1e-6)
        assert fit.c == pytest.approx(c, rel=1e-6)
        assert fit.rss <= rss * (1.0 + 1e-9)

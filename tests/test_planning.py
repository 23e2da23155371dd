"""Tests for extrapolation, sample-size targets, crossovers, and noise cost."""

import math
import re
import sys

import numpy as np
import pytest

from learncurve import (
    NumericError,
    ParallelCurvesError,
    ParameterError,
    PowerLawFit,
    ThreePhaseModel,
    extrapolate,
    fit_loglog,
    noise_impact,
    TOP1_ERROR,
    predict_intersection,
    random_guess_plateau,
    required_sample_size,
    synth_curve,
)


def make_fit(alpha, c, n_range=(90, 9000)):
    return PowerLawFit(alpha=alpha, c=c, method="loglog", n_range=n_range, rss=0.0, r_squared=1.0)


def bisect_crossing(fit_a, fit_b, lo=1.0, hi=1e8):
    """Independent oracle: crossing located by bisection in log space."""
    gap = lambda n: fit_a.predict(n) - fit_b.predict(n)
    assert gap(lo) * gap(hi) < 0
    while hi / lo - 1 > 1e-14:
        mid = math.sqrt(lo * hi)
        if gap(lo) * gap(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return math.sqrt(lo * hi)


class TestExtrapolate:
    def test_value(self):
        pred = extrapolate(make_fit(-0.5, 1.0), 10000)
        assert pred.value == pytest.approx(0.01, rel=1e-12)
        assert pred.extrapolated
        assert pred.marker == "extrapolation"

    def test_interpolation_marker(self):
        pred = extrapolate(make_fit(-0.5, 1.0), 900)
        assert not pred.extrapolated
        assert pred.marker == "interpolation"

    def test_range_boundaries_count_as_interpolation(self):
        fit = make_fit(-0.5, 1.0, n_range=(90, 9000))
        assert not extrapolate(fit, 90).extrapolated
        assert not extrapolate(fit, 9000).extrapolated
        assert extrapolate(fit, 9001).extrapolated

    def test_matches_generating_model_beyond_fit_range(self):
        model = ThreePhaseModel(alpha=-0.62, c=0.5 * 900**0.62, plateau=1.0, floor=0.0)
        ms = synth_curve(model, [900, 1800, 3600, 9000], 5, 0.0, seed=4, metric="m")
        fit = fit_loglog(ms)
        pred = extrapolate(fit, 90000)
        assert pred.extrapolated
        assert pred.value == pytest.approx(model.evaluate(90000), rel=1e-9)

    def test_rejects_n_below_one(self):
        with pytest.raises(ParameterError):
            extrapolate(make_fit(-0.5, 1.0), 0)

    @pytest.mark.parametrize("n", [10.7, 10.0, "10", True])
    def test_rejects_a_sample_count_that_is_not_an_integer(self, n):
        with pytest.raises(ParameterError, match=f"^sample count must be a non-negative integer, got {re.escape(repr(n))}$"):
            extrapolate(make_fit(-0.5, 1.0), n)

    def test_numpy_integer_gives_a_python_int(self):
        pred = extrapolate(make_fit(-0.5, 1.0), np.int64(100))
        assert type(pred.n) is int and pred == extrapolate(make_fit(-0.5, 1.0), 100)


class TestRequiredSampleSize:
    def test_inverse_of_extrapolation(self):
        assert required_sample_size(make_fit(-0.5, 1.0), 0.01) == 10000

    def test_target_equal_to_c_needs_one_sample(self):
        assert required_sample_size(make_fit(-0.5, 1.0), 1.0) == 1

    def test_target_above_c_needs_one_sample(self):
        assert required_sample_size(make_fit(-0.5, 1.0), 5.0) == 1

    def test_recovered_fit_inverts_the_generator(self):
        model = ThreePhaseModel(alpha=-0.58, c=900**0.58, plateau=10.0, floor=0.0)
        ms = synth_curve(model, [900, 1800, 3600, 9000], 5, 0.0, seed=4, metric="m")
        fit = fit_loglog(ms)
        n = required_sample_size(fit, model.evaluate(4096))
        assert abs(n - 4096) <= 1

    def test_round_trip_stays_at_or_below_target(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            fit = make_fit(rng.uniform(-0.95, -0.05), rng.uniform(0.2, 5.0))
            target = float(fit.c * rng.uniform(1, 10**5) ** fit.alpha)
            n = required_sample_size(fit, target)
            assert extrapolate(fit, n).value <= target * (1 + 1e-9)

    def test_inverse_pair_property(self):
        rng = np.random.default_rng(18)
        for _ in range(200):
            fit = make_fit(rng.uniform(-0.95, -0.05), rng.uniform(0.2, 5.0))
            n = int(rng.integers(1, 10**6))
            back = required_sample_size(fit, extrapolate(fit, n).value)
            assert back in (n, n + 1)

    def test_non_decreasing_curve_rejected(self):
        with pytest.raises(ParameterError):
            required_sample_size(make_fit(0.2, 1.0), 0.01)

    def test_non_positive_target_rejected(self):
        with pytest.raises(ParameterError):
            required_sample_size(make_fit(-0.5, 1.0), 0.0)


class TestPredictIntersection:
    def test_closed_form_matches_bisection(self):
        fit_a, fit_b = make_fit(-0.3, 1.0), make_fit(-0.6, 4.0)
        crossing = predict_intersection(fit_a, fit_b)
        assert crossing.n_star == pytest.approx(4.0 ** (1 / 0.3), rel=1e-12)
        assert crossing.n_star == pytest.approx(101.59, abs=0.01)
        oracle = bisect_crossing(fit_a, fit_b)
        assert crossing.n_star == pytest.approx(oracle, rel=1e-9)

    def test_steeper_curve_wins_beyond(self):
        crossing = predict_intersection(make_fit(-0.3, 1.0), make_fit(-0.6, 4.0))
        assert crossing.superior.alpha == -0.6
        n_probe = crossing.n_star * 10
        assert crossing.superior.predict(n_probe) < make_fit(-0.3, 1.0).predict(n_probe)

    def test_constructed_crossing_is_exact(self):
        alpha_a, alpha_b, c_a = -0.3, -0.6, 1.0
        c_b = c_a * 9000.0 ** (alpha_a - alpha_b)
        crossing = predict_intersection(make_fit(alpha_a, c_a), make_fit(alpha_b, c_b))
        assert crossing.n_star == 9000.0

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            fit_a = make_fit(rng.uniform(-0.9, -0.1), rng.uniform(0.2, 5.0))
            fit_b = make_fit(rng.uniform(-0.9, -0.1), rng.uniform(0.2, 5.0))
            if abs(fit_a.alpha - fit_b.alpha) <= 0.05:  # keep crossings representable
                continue
            ab, ba = predict_intersection(fit_a, fit_b), predict_intersection(fit_b, fit_a)
            assert ab.n_star == ba.n_star
            assert ab.superior == ba.superior

    def test_curves_agree_at_the_crossing(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            fit_a = make_fit(rng.uniform(-0.9, -0.1), rng.uniform(0.2, 5.0))
            fit_b = make_fit(rng.uniform(-0.9, -0.1), rng.uniform(0.2, 5.0))
            if abs(fit_a.alpha - fit_b.alpha) <= 0.05:
                continue
            n_star = predict_intersection(fit_a, fit_b).n_star
            assert abs(fit_a.predict(n_star) - fit_b.predict(n_star)) <= 1e-6 * fit_a.predict(n_star)

    def test_near_parallel_unrepresentable_crossing_rejected(self):
        with pytest.raises(NumericError):
            predict_intersection(make_fit(-0.5, 1.0), make_fit(-0.5 + 1e-8, 5.0))

    def test_identical_fits_rejected(self):
        fit = make_fit(-0.5, 2.0)
        with pytest.raises(ParallelCurvesError):
            predict_intersection(fit, fit)

    def test_parallel_fits_rejected(self):
        with pytest.raises(ParallelCurvesError):
            predict_intersection(make_fit(-0.5, 2.0), make_fit(-0.5, 3.0))


class TestNoiseImpact:
    def test_no_degradation(self):
        fit = make_fit(-0.62, 1.0)
        report = noise_impact(fit, fit, [0.5, 0.1, 0.05])
        assert report.delta_alpha == 0.0
        assert all(m == pytest.approx(1.0) for _, m in report.multipliers)

    def test_delta_alpha_is_exact_fit_difference(self):
        report = noise_impact(make_fit(-0.62, 1.0), make_fit(-0.31, 1.3), [0.1])
        assert report.delta_alpha == pytest.approx(-0.31 - (-0.62), abs=1e-15)

    def test_multiplier_matches_direct_formula(self):
        clean, noisy = make_fit(-0.62, 0.9), make_fit(-0.378, 1.1)
        targets = [0.2, 0.1]
        report = noise_impact(clean, noisy, targets)
        for target in targets:
            expected = (target / noisy.c) ** (1 / noisy.alpha) / (target / clean.c) ** (1 / clean.alpha)
            assert report.multiplier_at(target) == pytest.approx(expected, rel=1e-12)

    def test_multiplier_grows_as_target_shrinks(self):
        # A shallower noisy curve costs disproportionally more data for
        # more ambitious targets.
        clean, noisy = make_fit(-0.62, 0.9), make_fit(-0.378, 1.1)
        targets = [0.4, 0.2, 0.1, 0.05, 0.02]
        report = noise_impact(clean, noisy, targets)
        mults = [m for _, m in report.multipliers]
        assert all(b >= a for a, b in zip(mults, mults[1:]))
        assert mults[-1] > 1.0

    def test_unknown_target_lookup_raises(self):
        report = noise_impact(make_fit(-0.62, 1.0), make_fit(-0.5, 1.0), [0.1])
        with pytest.raises(KeyError):
            report.multiplier_at(0.2)

    def test_non_decreasing_curve_rejected(self):
        with pytest.raises(ParameterError):
            noise_impact(make_fit(-0.62, 1.0), make_fit(0.1, 1.0), [0.1])

    def test_non_positive_target_rejected(self):
        with pytest.raises(ParameterError):
            noise_impact(make_fit(-0.62, 1.0), make_fit(-0.5, 1.0), [0.0])


MODEL = ThreePhaseModel(alpha=-0.5, c=1.0, plateau=2.0, floor=0.1)
FIT = make_fit(-0.5, 1.0)


def _model(**fields):
    return ThreePhaseModel(**{"alpha": -0.5, "c": 1.0, "plateau": 2.0, **fields})


@pytest.mark.parametrize("call, expected", [
    (lambda: _model(alpha="x"), "alpha must be a finite real number, got 'x'"),
    (lambda: _model(c=None), "c must be a finite real number, got None"),
    (lambda: _model(plateau=-(2**2000)), f"plateau must be a finite real number, got {-(2**2000)}"),
    (lambda: _model(floor=math.nan), "floor must be a finite real number, got nan"),
    (lambda: _model(alpha=np.float64(math.inf)), "alpha must be a finite real number, got np.float64(inf)"),
    (lambda: _model(alpha=np.int64(-1)), "alpha must lie in (-1, 0), got -1"),
    (lambda: _model(c=0), "c must be positive, got 0"),
    (lambda: _model(alpha=0.5), "alpha must lie in (-1, 0), got 0.5"),
    (lambda: MODEL.evaluate(None), "sample count must be >= 1, got None"),
    (lambda: MODEL.evaluate(math.nan), "sample count must be >= 1, got nan"),
    (lambda: MODEL.evaluate("5"), "sample count must be >= 1, got '5'"),
    (lambda: MODEL.evaluate(2**2000), f"sample count must be >= 1, got {2**2000}"),
    (lambda: MODEL.evaluate(np.float64(0.5)), "sample count must be >= 1, got np.float64(0.5)"),
    (lambda: MODEL.evaluate(np.int64(4)), 0.5),
    (lambda: MODEL.evaluate(math.inf), 0.1),
    (lambda: synth_curve(MODEL, [10], 2, None, seed=1), "noise_sigma must be a finite float >= 0, got None"),
    (lambda: synth_curve(MODEL, [10], 2, "0.1", seed=1), "noise_sigma must be a finite float >= 0, got '0.1'"),
    (lambda: synth_curve(MODEL, [10], 2, 2**2000, seed=1), f"noise_sigma must be a finite float >= 0, got {2**2000}"),
    (lambda: synth_curve(MODEL, [10], 2, math.inf, seed=1), "noise_sigma must be a finite float >= 0, got inf"),
    (lambda: synth_curve(MODEL, [16], 2, np.int64(0), seed=1).value.tolist(), [0.25, 0.25]),
    (lambda: random_guess_plateau(TOP1_ERROR, None), "n_classes must be a non-negative integer, got None"),
    (lambda: random_guess_plateau(TOP1_ERROR, 2.5), "n_classes must be a non-negative integer, got 2.5"),
    (lambda: random_guess_plateau(TOP1_ERROR, 1.5), "n_classes must be a non-negative integer, got 1.5"),
    (lambda: random_guess_plateau(TOP1_ERROR, True), "n_classes must be a non-negative integer, got True"),
    (lambda: random_guess_plateau(TOP1_ERROR, 1), "n_classes must be >= 2, got 1"),
    (lambda: random_guess_plateau(TOP1_ERROR, 2**2000), f"n_classes must be <= {sys.float_info.max}, got {2**2000}"),
    (lambda: random_guess_plateau(TOP1_ERROR, np.int64(4)), 0.75),
    (lambda: required_sample_size(FIT, None), "target loss must be positive, got None"),
    (lambda: required_sample_size(FIT, "0.1"), "target loss must be positive, got '0.1'"),
    (lambda: required_sample_size(FIT, 2**2000), f"target loss must be positive, got {2**2000}"),
    (lambda: required_sample_size(FIT, 2**1000), 1),
    (lambda: required_sample_size(FIT, 0), "target loss must be positive, got 0"),
    (lambda: required_sample_size(FIT, math.inf), 1),
    (lambda: required_sample_size(FIT, np.int64(1)), 1),
    (lambda: noise_impact(FIT, FIT, ["x"]), "target loss must be positive, got 'x'"),
    (lambda: noise_impact(FIT, FIT, [0.5, 2**2000]), f"target loss must be positive, got {2**2000}"),
], ids=lambda v: str(v)[:48] if not callable(v) else "")
def test_scalar_arguments_go_through_the_rule_homes(call, expected):
    """A scalar argument of the model and planning functions meets its rule home (``errors.is_real``,
    ``errors.check_integer``) before use: a refused value (``expected`` a
    message) raises ParameterError, and an accepted number keeps its answer."""
    if not isinstance(expected, str):
        assert call() == expected
        return
    with pytest.raises(ParameterError, match=f"^{re.escape(expected)}$"):
        call()

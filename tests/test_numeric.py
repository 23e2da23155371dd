"""Numeric failures are library errors: extreme but legal inputs raise only ToolkitError."""

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from learncurve import (
    MeasurementSet,
    NumericError,
    ParameterError,
    PowerLawFit,
    ThreePhaseModel,
    ToolkitError,
    bootstrap_ci,
    detect_power_law_region,
    extrapolate,
    fit_loglog,
    fit_nonlinear,
    noise_impact,
    predict_intersection,
    required_sample_size,
)

FLOAT_MAX = sys.float_info.max
finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=5e-324, max_value=FLOAT_MAX)
negative = st.floats(min_value=-FLOAT_MAX, max_value=-5e-324)
values = st.floats(min_value=0.0, max_value=FLOAT_MAX)
# Sample counts up to the largest float, and beyond it where a count is not data.
counts = st.one_of(st.integers(1, 2**63), st.integers(1, int(FLOAT_MAX)))
huge_counts = st.one_of(counts, st.integers(1, 2**1100))


def make_fit(alpha, c):
    return PowerLawFit(alpha=alpha, c=c, method="loglog", n_range=(1, 2), rss=0.0, r_squared=None)


def survives(fn, *args, **kwargs):
    """Call ``fn``; a ToolkitError is an accepted outcome, anything else propagates."""
    try:
        fn(*args, **kwargs)
    except ToolkitError:
        pass


class TestReproductions:
    def test_fitted_c_underflow_is_numeric(self):
        ms = MeasurementSet.from_rows([("m", 43277, 0, 1.6475), ("m", 43285, 0, 1.6825)])
        with pytest.raises(NumericError, match="^floating-point underflow: "):
            fit_loglog(ms)

    def test_fitted_c_overflow_is_numeric(self):
        ms = MeasurementSet.from_rows([("m", 43277, 0, 1.6825), ("m", 43285, 0, 1.6475)])
        for fit in (fit_loglog, fit_nonlinear):
            with pytest.raises(NumericError, match="^floating-point overflow: "):
                fit(ms)

    def test_required_sample_size_overflow_is_numeric(self):
        with pytest.raises(NumericError, match="^floating-point overflow: "):
            required_sample_size(make_fit(-1e-5, 1.0), 0.5)

    def test_extrapolate_and_noise_impact_overflow_are_numeric(self):
        with pytest.raises(NumericError):
            extrapolate(make_fit(200.0, 1.0), 10**6)
        with pytest.raises(NumericError):
            extrapolate(make_fit(-0.5, 1.0), 2**1100)
        with pytest.raises(NumericError):
            noise_impact(make_fit(-1e-5, 1.0), make_fit(-0.5, 1.0), [0.5])

    def test_sample_count_beyond_the_float_range_is_rejected(self):
        with pytest.raises(ParameterError, match="exceeds the float range") as info:
            MeasurementSet.from_rows([("m", 10, 0, 1.0), ("m", 2**1100, 0, 1.0)])
        assert info.value.index == 1
        with pytest.raises(NumericError):
            ThreePhaseModel(alpha=-0.5, c=1.0, plateau=2.0).evaluate(2**1100)

    def test_nonlinear_fit_near_the_float_range_is_numeric(self, recwarn):
        ms = MeasurementSet.from_rows([("m", 10, 0, 1e300), ("m", 100, 0, 1e-300), ("m", 1000, 0, 1e300)])
        with pytest.raises(NumericError, match="^floating-point overflow: the nonlinear fit "):
            fit_nonlinear(ms)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_nonlinear_fit_whose_total_sum_of_squares_overflows_is_numeric(self):
        # An exact power law: the fit is finite, but 1 - rss / ss_tot used to read 1.0.
        ms = MeasurementSet.from_rows([("m", 10, 0, 1e160), ("m", 100, 0, 1e80), ("m", 1000, 0, 1.0)])
        with pytest.raises(NumericError, match="^floating-point overflow: the nonlinear fit "):
            fit_nonlinear(ms)

    def test_numbers_are_unchanged(self):
        assert extrapolate(make_fit(-0.5, 2.0), 100).value == 2.0 * 100.0**-0.5
        assert required_sample_size(make_fit(-0.5, 2.0), 0.2) == 100
        report = noise_impact(make_fit(-0.5, 2.0), make_fit(-0.25, 2.0), [0.2])
        assert report.multipliers == ((0.2, (0.2 / 2.0) ** (1 / -0.25) / (0.2 / 2.0) ** (1 / -0.5)),)


class TestNonFiniteParameters:
    @pytest.mark.parametrize("field", ["alpha", "c", "rss"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_fit_fields_must_be_finite(self, field, value):
        kwargs = {"alpha": -0.5, "c": 1.0, "rss": 0.0, **{field: value}}
        with pytest.raises(ParameterError, match=f"^{field} must be finite, got "):
            PowerLawFit(method="loglog", n_range=(1, 2), r_squared=None, **kwargs)

    def test_nan_sample_count_is_refused(self):
        with pytest.raises(ParameterError, match="sample count must be >= 1, got nan"):
            extrapolate(make_fit(-0.5, 1.0), math.nan)
        with pytest.raises(ParameterError, match="sample count must be >= 1, got nan"):
            ThreePhaseModel(alpha=-0.5, c=1.0, plateau=2.0).evaluate(math.nan)

    def test_nan_target_is_refused(self):
        with pytest.raises(ParameterError, match="target loss must be positive, got nan"):
            required_sample_size(make_fit(-0.5, 1.0), math.nan)
        with pytest.raises(ParameterError, match="target loss must be positive, got nan"):
            noise_impact(make_fit(-0.5, 1.0), make_fit(-0.25, 1.0), [0.1, math.nan])

    @pytest.mark.parametrize("threshold", [math.nan, -0.1, 1.5])
    def test_r2_threshold_outside_the_unit_interval_is_refused(self, threshold):
        ms = MeasurementSet.from_rows([("m", n, 0, n**-0.5) for n in (10, 20, 40, 80)])
        with pytest.raises(ParameterError, match="r2_threshold must lie in \\[0, 1\\]"):
            detect_power_law_region(ms, r2_threshold=threshold)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(alpha=finite, c=positive, n=huge_counts, target=positive, alpha_b=negative, c_b=positive)
def test_planning_raises_only_toolkit_errors(alpha, c, n, target, alpha_b, c_b):
    fit = make_fit(alpha, c)
    survives(extrapolate, fit, n)
    survives(required_sample_size, fit, target)
    survives(noise_impact, fit, make_fit(alpha_b, c_b), [target])
    survives(predict_intersection, fit, make_fit(alpha_b, c_b))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflowing iterates on the way to an error
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    rows=st.lists(st.tuples(counts, st.integers(0, 2), values), min_size=2, max_size=8,
                  unique_by=lambda row: row[:2]),
)
def test_fits_raise_only_toolkit_errors(rows):
    ms = MeasurementSet.from_rows([("m", n, r, v) for n, r, v in rows])
    survives(fit_loglog, ms)
    survives(fit_loglog, ms, on_means=False)
    survives(fit_nonlinear, ms)
    survives(detect_power_law_region, ms)
    survives(bootstrap_ci, ms, "loglog", draws=5, seed=1)

"""Numeric failures are library errors: extreme but legal inputs raise only ToolkitError."""

import dataclasses
import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from learncurve import (
    InsufficientDataError,
    MeasurementSet,
    NumericError,
    ParameterError,
    PowerLawFit,
    ThreePhaseModel,
    ToolkitError,
    aggregate,
    bootstrap_ci,
    detect_power_law_region,
    extrapolate,
    fit_loglog,
    fit_nonlinear,
    noise_impact,
    predict_intersection,
    required_sample_size,
)
from learncurve.svgplot import build_report

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
    """Call ``fn`` and return its result; a ToolkitError is an accepted
    outcome (the result is then None), anything else propagates."""
    try:
        return fn(*args, **kwargs)
    except ToolkitError:
        return None


def floats_in(result):
    """Every float in a planning result, through its dataclass fields and tuples."""
    if isinstance(result, float):
        yield result
    elif isinstance(result, tuple):
        for item in result:
            yield from floats_in(item)
    elif dataclasses.is_dataclass(result):
        for f in dataclasses.fields(result):
            yield from floats_in(getattr(result, f.name))


class TestReproductions:
    def test_fitted_c_underflow_is_numeric(self):
        ms = MeasurementSet([("m", 43277, 0, 1.6475), ("m", 43285, 0, 1.6825)])
        with pytest.raises(NumericError, match="^floating-point underflow: "):
            fit_loglog(ms)

    def test_fitted_c_overflow_is_numeric(self):
        ms = MeasurementSet([("m", 43277, 0, 1.6825), ("m", 43285, 0, 1.6475)])
        for fit in (fit_loglog, fit_nonlinear):
            with pytest.raises(NumericError, match="^floating-point overflow: "):
                fit(ms)

    @pytest.mark.parametrize("curve, kind", [(lambda k: 1.0 / (k + 1), "overflow"), (lambda k: 1.0 + k, "underflow")],
                             ids=["overflow", "underflow"])
    def test_both_fits_name_an_unrepresentable_c_alike(self, curve, kind):
        # Counts 2**63 + 10**k are nearly equal in log space, so the start's log c leaves the float range.
        ms = MeasurementSet([("m", 2**63 + 10**k, r, curve(k) * (1.0 + 0.01 * r)) for k in range(16) for r in range(5)])
        messages = []
        for fit in (fit_loglog, fit_nonlinear):
            with pytest.raises(NumericError, match=rf"^floating-point {kind}: c = exp\(-?[0-9.]+\) leaves") as info:
                fit(ms)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_negative_count_with_a_fractional_exponent_is_refused(self):
        with pytest.raises(ParameterError, match=r"^-4\.0 \*\* -0\.5 is not a real number: a negative base needs an integer exponent$"):
            make_fit(-0.5, 2.0).predict(-4.0)

    def test_required_sample_size_overflow_is_numeric(self):
        with pytest.raises(NumericError, match="^floating-point overflow: "):
            required_sample_size(make_fit(-1e-5, 1.0), 0.5)

    @pytest.mark.parametrize("c, kind", [(2.0, "overflow"), (0.5, "underflow")])
    def test_crossing_beyond_the_float_range_is_numeric(self, c, kind):
        # Exponents 3e-9 apart put the crossing at (c ratio) ** 3.3e8.
        with pytest.raises(NumericError, match=f"^floating-point {kind}: "):
            predict_intersection(make_fit(-0.5, 1.0), make_fit(-0.5 - 3e-9, c))

    def test_extrapolate_and_noise_impact_overflow_are_numeric(self):
        with pytest.raises(NumericError):
            extrapolate(make_fit(200.0, 1.0), 10**6)
        with pytest.raises(NumericError):
            extrapolate(make_fit(-0.5, 1.0), 2**1100)
        with pytest.raises(NumericError):
            noise_impact(make_fit(-1e-5, 1.0), make_fit(-0.5, 1.0), [0.5])

    def test_sample_count_beyond_the_float_range_is_rejected(self):
        with pytest.raises(ParameterError, match="exceeds the float range") as info:
            MeasurementSet([("m", 10, 0, 1.0), ("m", 2**1100, 0, 1.0)])
        assert info.value.index == 1
        with pytest.raises(ParameterError, match=f"^sample count must be >= 1, got {2**1100}$"):
            ThreePhaseModel(alpha=-0.5, c=1.0, plateau=2.0).evaluate(2**1100)

    def test_nonlinear_fit_near_the_float_range_is_numeric(self, recwarn):
        ms = MeasurementSet([("m", 10, 0, 1e300), ("m", 100, 0, 1e-300), ("m", 1000, 0, 1e300)])
        with pytest.raises(NumericError, match="^floating-point overflow: the nonlinear fit "):
            fit_nonlinear(ms)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_nonlinear_fit_whose_total_sum_of_squares_overflows_is_numeric(self):
        # An exact power law: the fit is finite, but 1 - rss / ss_tot used to read 1.0.
        ms = MeasurementSet([("m", 10, 0, 1e160), ("m", 100, 0, 1e80), ("m", 1000, 0, 1.0)])
        with pytest.raises(NumericError, match="^floating-point overflow: the nonlinear fit "):
            fit_nonlinear(ms)

    def test_per_n_mean_that_overflows_is_numeric(self):
        ms = MeasurementSet(
            [("m", 10, r, 1.6e308) for r in (0, 1)]
            + [("m", n, r, v) for n, v in ((100, 1.0), (1000, 0.5), (10000, 0.2)) for r in (0, 1)]
        )
        for run in (fit_loglog, fit_nonlinear, detect_power_law_region, aggregate):
            with pytest.raises(NumericError, match="^floating-point overflow: a per-N mean leaves the float range$"):
                run(ms)

    def test_resampled_mean_that_overflows_is_numeric(self):
        rows = [(1, 0, 1.6e308), (1, 1, 1e307), (2, 0, 1.0), (2, 1, 2.0), (3, 0, 0.5), (3, 1, 0.6)]
        ms = MeasurementSet([("m", n, r, v) for n, r, v in rows])
        fit_loglog(ms)  # the means of the data themselves stay finite
        with pytest.raises(NumericError, match="^floating-point overflow: a resampled per-N mean "):
            bootstrap_ci(ms, "loglog")

    def test_sample_counts_equal_as_floats_give_no_line(self):
        # Two counts that round to one float, or to two floats with one log,
        # are one sample count to the fits.
        pair = [("m", 9223372036854711808, 0, 0.5), ("m", 9223372036854711809, 0, 0.4)]
        same_log = [("m", 2**62, 0, 0.5), ("m", 2**62 + 1024, 0, 0.4)]
        for rows in (pair, same_log):
            for run in (fit_loglog, fit_nonlinear, bootstrap_ci):
                with pytest.raises(InsufficientDataError, match=r"^need at least 2 distinct sample counts in \[None, None\], found 1$"):
                    run(MeasurementSet(rows))
        ms = MeasurementSet([("m", 10, 0, 1.0), ("m", 100, 0, 0.5), ("m", 1000, 0, 0.25),
                                       *[(m, n, r, 0.1) for m, n, r, _ in pair]])
        region = detect_power_law_region(ms, r2_threshold=0.5)
        assert region.diagnostics[9223372036854711808] is None

    @pytest.mark.parametrize("ci", [(math.nan, math.nan), (math.nan, math.inf), (-math.inf, 0.0), (0.5, -0.5)])
    def test_interval_must_be_finite_and_ordered(self, ci):
        with pytest.raises(ParameterError, match="^ci_alpha must be a finite "):
            PowerLawFit(alpha=-0.5, c=1.0, method="loglog", n_range=(1, 2), rss=0.0, r_squared=None, ci_alpha=ci)
        assert make_fit(-0.5, 1.0).ci_alpha is None
        PowerLawFit(alpha=-0.5, c=1.0, method="loglog", n_range=(1, 2), rss=0.0, r_squared=None, ci_alpha=(-0.5, -0.5))

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
        with pytest.raises(ParameterError, match="sample count must be a non-negative integer, got nan"):
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
        ms = MeasurementSet([("m", n, 0, n**-0.5) for n in (10, 20, 40, 80)])
        with pytest.raises(ParameterError, match="r2_threshold must lie in \\[0, 1\\]"):
            detect_power_law_region(ms, r2_threshold=threshold)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(alpha=finite, c=positive, n=huge_counts, target=positive, alpha_b=negative, c_b=positive)
# c times N**alpha overflows in extrapolate; the sample-size ratio overflows in noise_impact.
@example(alpha=0.2, c=1e300, n=10**60, target=1.0, alpha_b=-1.0, c_b=1.0)
@example(alpha=-1.0, c=1e-300, n=2, target=1.0, alpha_b=-1.0, c_b=1e300)
def test_planning_raises_only_toolkit_errors(alpha, c, n, target, alpha_b, c_b):
    fit = make_fit(alpha, c)
    results = [
        survives(extrapolate, fit, n),
        survives(required_sample_size, fit, target),
        survives(noise_impact, fit, make_fit(alpha_b, c_b), [target]),
        survives(predict_intersection, fit, make_fit(alpha_b, c_b)),
    ]
    assert all(math.isfinite(x) for x in floats_in(tuple(results))), results


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    rows=st.lists(st.tuples(counts, st.integers(0, 2), values), min_size=2, max_size=8,
                  unique_by=lambda row: row[:2]),
)
def test_fits_raise_only_toolkit_errors(rows):
    ms = MeasurementSet([("m", n, r, v) for n, r, v in rows])
    survives(fit_loglog, ms)
    survives(fit_loglog, ms, on_means=False)
    survives(fit_nonlinear, ms)
    survives(detect_power_law_region, ms)
    survives(bootstrap_ci, ms, "loglog", draws=5, seed=1)
    survives(bootstrap_ci, ms, "nonlinear", draws=5, seed=1)
    survives(aggregate, ms)
    survives(build_report, ms, [])

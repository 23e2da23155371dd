"""Tests for the three-phase curve model and the measurement synthesizer."""

import itertools
import math
import re
import sys

import numpy as np
import pytest

from learncurve import (
    CROSS_ENTROPY,
    TOP1_ERROR,
    DataError,
    InsufficientDataError,
    Measurement,
    MeasurementSet,
    NumericError,
    ParameterError,
    ThreePhaseModel,
    aggregate,
    random_guess_plateau,
    synth_curve,
)
from learncurve.artifacts import measurements_to_csv
from learncurve.model import group_by_n, group_means, reduce_groups, window


def split(groups):
    """``(n, values)`` of each group, values in point order."""
    return [(n, vals.tolist()) for n, vals in zip(groups.n, np.split(groups.values, np.cumsum(groups.counts)[:-1]))]


def _random_model(rng):
    alpha = rng.uniform(-0.95, -0.05)
    c = rng.uniform(0.1, 10.0)
    floor = rng.uniform(0.0, 0.05)
    plateau = floor + rng.uniform(0.05, 2.0)
    return ThreePhaseModel(alpha=alpha, c=c, plateau=plateau, floor=floor)


class TestEvaluate:
    def test_power_law_value(self):
        model = ThreePhaseModel(alpha=-0.5, c=1.0, plateau=10.0, floor=0.0)
        assert model.evaluate(4) == 0.5

    def test_plateau_clamp(self):
        model = ThreePhaseModel(alpha=-0.5, c=1.0, plateau=0.1, floor=0.0)
        assert model.evaluate(4) == 0.1

    def test_unclamped_ratio_follows_exponent(self):
        # Over a factor-100 span of N the unclamped curve shrinks by 100**0.62.
        model = ThreePhaseModel(alpha=-0.62, c=0.5 * 900**0.62, plateau=1.0, floor=0.0)
        ratio = model.evaluate(900) / model.evaluate(90000)
        assert ratio == pytest.approx(100**0.62, rel=1e-12)
        assert ratio == pytest.approx(17.38, abs=0.01)

    def test_floor_clamp(self):
        model = ThreePhaseModel(alpha=-0.5, c=1.0, plateau=10.0, floor=0.2)
        assert model.evaluate(10**8) == 0.2

    def test_rejects_sample_count_below_one(self):
        model = ThreePhaseModel(alpha=-0.5, c=1.0, plateau=10.0, floor=0.0)
        with pytest.raises(ParameterError):
            model.evaluate(0)

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            model = _random_model(rng)
            n1, n2 = sorted(rng.integers(1, 10**7, size=2).tolist())
            v1, v2 = model.evaluate(n1), model.evaluate(n2)
            assert v1 >= v2
            assert model.floor <= v1 <= model.plateau
            assert model.floor <= v2 <= model.plateau

    def test_log_linear_inside_power_law_region(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            model = _random_model(rng)
            n1, n2 = 10, 1000
            v1, v2 = model.evaluate(n1), model.evaluate(n2)
            if model.floor < v2 and v1 < model.plateau:  # both strictly inside
                lhs = math.log(v1) - math.log(v2)
                rhs = model.alpha * (math.log(n1) - math.log(n2))
                assert lhs == pytest.approx(rhs, rel=1e-12)


class TestModelValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=0.0, c=1.0, plateau=1.0, floor=0.0),
            dict(alpha=-1.0, c=1.0, plateau=1.0, floor=0.0),
            dict(alpha=-1.5, c=1.0, plateau=1.0, floor=0.0),
            dict(alpha=-0.5, c=0.0, plateau=1.0, floor=0.0),
            dict(alpha=-0.5, c=-1.0, plateau=1.0, floor=0.0),
            dict(alpha=-0.5, c=1.0, plateau=0.0, floor=0.0),
            dict(alpha=-0.5, c=1.0, plateau=0.1, floor=0.2),
            dict(alpha=-0.5, c=1.0, plateau=1.0, floor=-0.1),
            dict(alpha=math.nan, c=1.0, plateau=1.0, floor=0.0),
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            ThreePhaseModel(**kwargs)


class TestRandomGuessPlateau:
    def test_top1_error(self):
        assert random_guess_plateau(TOP1_ERROR, 9) == pytest.approx(1 - 1 / 9)

    def test_cross_entropy(self):
        assert random_guess_plateau(CROSS_ENTROPY, 9) == pytest.approx(math.log(9))

    def test_unknown_metric(self):
        with pytest.raises(ParameterError):
            random_guess_plateau("f1", 9)

    def test_single_class(self):
        with pytest.raises(ParameterError):
            random_guess_plateau(TOP1_ERROR, 1)


class TestMeasurementSet:
    def test_duplicate_key_rejected(self):
        with pytest.raises(DataError):
            MeasurementSet([("m", 10, 0, 1.0), ("m", 10, 0, 2.0)])

    def test_same_key_different_metric_allowed(self):
        ms = MeasurementSet([("a", 10, 0, 1.0), ("b", 10, 0, 2.0)])
        assert ms.metrics() == ["a", "b"]
        assert len(ms.only("a")) == 1

    @pytest.mark.parametrize(
        "row",
        [("m", 0, 0, 1.0), ("m", 10, -1, 1.0), ("m", 10, 0, -0.5), ("", 10, 0, 1.0)],
    )
    def test_invalid_rows_rejected(self, row):
        with pytest.raises(ParameterError):
            MeasurementSet([row])

    @pytest.mark.parametrize(
        "bad, error",
        [(("m", 10, 0, math.nan), ParameterError), (("m", 10, 1, math.inf), ParameterError),
         (("m", 20, 0, 0.5), DataError), (("m", 0, 0, 0.5), ParameterError), (("", 40, 0, 0.5), ParameterError),
         (("m", 40, -1, 0.5), ParameterError), (("m", 2**1100, 0, 0.5), ParameterError)],
    )
    def test_violation_carries_the_index_of_its_point(self, bad, error):
        good = [("m", 10, 0, 1.0), ("m", 20, 0, 0.5), ("m", 30, 0, 0.25)]
        # Sorted and unsorted sets; a duplicate placed after the broken point does not come first.
        for head in itertools.permutations(good):
            for rows in ([*head, bad], [*head, bad, head[0]]):
                with pytest.raises(error) as info:
                    MeasurementSet(rows)
                assert info.value.index == 3

    @pytest.mark.parametrize(
        "point, message",
        [(Measurement("m", True, 0, 0.5), "sample count must be a positive int, got True"),
         (Measurement("m", 2, False, 0.4), "replicate id must be a non-negative int, got False")],
    )
    def test_bool_count_or_replicate_rejected(self, point, message):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            MeasurementSet((Measurement("m", 1, 0, 1.0), point))

    @pytest.mark.parametrize(
        "rows, index, message",
        [([("a", 10, 0, 0.5), ("", 20, 0, 0.5)], 1, "metric name must be non-empty"),
         ([("a", 10, 0, 0.5), (None, 20, 0, 0.5)], 1, "metric name must be non-empty"),
         ([(["m"], 10, 0, 0.5)], 0, "metric name must be a string, got ['m']"),  # unhashable
         ([(5, 10, 0, 0.5), ("a", 10, 0, 0.5)], 0, "metric name must be a string, got 5"),
         ([("a", 10, 0, 0.5), (b"a", 20, -1, 0.5)], 1, "replicate id must be a non-negative int, got -1"),
         ([("a", 10, 0, 0.5), (b"a", 20, 0, 0.5)], 1, "metric name must be a string, got b'a'")],
    )
    def test_metric_must_be_a_non_empty_string(self, rows, index, message):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$") as info:
            MeasurementSet(rows)
        assert info.value.index == index

    @pytest.mark.parametrize(
        "rows, index",
        [([("m", 10, 0, 1.0), ("m", 20, 0, 0.5, "extra")], 1),  # mixed widths
         ([("m", 10, 0, 1.0, "x"), ("m", 20, 0, 0.5, "y")], 0),  # every row 5 wide
         ([("m", 10, 0, 1.0), ("m", 20, 0)], 1),
         ([("m", 10, 0, math.nan), ("m", 20, 0), ("m", 30, 0, 0.5)], 1),  # before any other rule
         ([("m", 10, 0, 1.0), None], 1),  # not a sequence
         ([5, ("m", 20, 0, 0.5)], 0)],
    )
    def test_row_without_four_fields_rejected_with_its_index(self, rows, index):
        with pytest.raises(DataError, match=r"^a measurement has 4 fields \(metric, n, replicate, value\), got ") as info:
            MeasurementSet(rows)
        assert info.value.index == index

    def test_only_does_not_check_the_rules_again(self, monkeypatch):
        rows = [("a", 10, 0, 1.0), ("b", 10, 0, 2.0), ("a", 20, 1, 0.5), ("b", 30, 0, 0.25)]
        mixed = MeasurementSet(rows)
        single = MeasurementSet(rows[::2])

        def no_rules(self, points):
            raise AssertionError("rules checked again")

        monkeypatch.setattr(MeasurementSet, "__init__", no_rules)
        assert mixed.only("a") == single
        assert mixed.only("a").points == single.points
        assert single.only("a") is single
        assert mixed.only("c").points == ()

    @pytest.mark.parametrize("seed", range(5))
    def test_listing_order_changes_nothing(self, seed):
        rng = np.random.default_rng(seed)
        rows = [(m, n, r, float(rng.lognormal())) for m in ("b", "a") for n in (7, 2**64, 90) for r in (3, 0, 1)]
        canonical = sorted(rows)
        shuffled = MeasurementSet([rows[i] for i in rng.permutation(len(rows))])
        assert shuffled == MeasurementSet(canonical) and shuffled.points == tuple(canonical)
        assert measurements_to_csv(shuffled) == measurements_to_csv(MeasurementSet(canonical))

    @pytest.mark.parametrize("sizes", [[1000, 5000, 300], [1000, 2**70, 300]])
    def test_points_of_one_n_share_one_int(self, sizes):
        rows = [("a", int(str(n)), r, 0.5) for r in range(4) for n in sizes] + [("b", 1000, 0, 0.5)]
        ms = MeasurementSet(rows)
        assert len({id(p.n) for p in ms.points}) == len(sizes)
        assert [p.n for p in ms.points] == [row[1] for row in sorted(rows)]  # (metric, n, replicate) order


class TestGroupByN:
    def test_ascending_n_values_in_point_order(self):
        ms = MeasurementSet([("m", 900, 1, 0.2), ("m", 90, 3, 0.8), ("m", 900, 0, 0.3), ("m", 90, 1, 0.7)])
        groups = group_by_n(ms.n, ms.value)
        assert groups.n == [90, 900] and all(type(n) is int for n in groups.n)
        assert split(groups) == [(90, [0.7, 0.8]), (900, [0.3, 0.2])]  # replicate order within a group


class TestReduceGroups:
    """The one per-N reduction: bit-identical to one call per group."""

    COUNTS = [1, 2, 3, 5, 8, 9, 17, 100]

    @staticmethod
    def draw(rng, rows=()):
        counts = rng.choice(TestReduceGroups.COUNTS, size=int(rng.integers(1, 30)))
        size = (*rows, int(counts.sum()))
        return counts, rng.lognormal(size=size) * 10.0 ** rng.integers(-100, 100, size=size)

    @pytest.mark.parametrize("seed", range(25))
    def test_mean_and_std_match_per_group_calls(self, seed):
        rng = np.random.default_rng(seed)
        counts, values = self.draw(rng)
        drawn = iter(values.tolist())
        rows = [("m", n, r, next(drawn)) for n, k in enumerate(counts.tolist(), start=1) for r in range(k)]
        rows = [rows[i] for i in rng.permutation(len(rows))]  # a group's values lie apart in the listing
        by_n = {}
        for _, n, _, v in sorted(rows, key=lambda row: row[1:3]):  # the set holds them in replicate order
            by_n.setdefault(n, []).append(v)
        groups = [np.asarray(by_n[n]) for n in sorted(by_n)]
        ms = MeasurementSet(rows)
        got = aggregate(ms)
        assert [r.n for r in got] == sorted(by_n) and [r.count for r in got] == [g.size for g in groups]
        assert [r.mean.hex() for r in got] == [float(np.mean(g)).hex() for g in groups]
        assert [r.std.hex() for r in got] == [(float(np.std(g, ddof=1)) if g.size > 1 else 0.0).hex() for g in groups]
        assert group_means(window(ms)[1]).tolist() == [r.mean for r in got]

    @pytest.mark.parametrize("seed", range(25))
    def test_rows_of_draws_match_per_group_calls(self, seed):
        rng = np.random.default_rng(seed)
        counts, values = self.draw(rng, rows=(int(rng.integers(1, 9)),))
        starts = np.cumsum(counts) - counts
        expected = [[float(np.mean(row[lo:lo + k])).hex() for lo, k in zip(starts, counts)] for row in values]
        assert [[x.hex() for x in row] for row in reduce_groups(values, counts, np.mean).tolist()] == expected

    def test_one_call_per_distinct_count(self):
        counts = np.array([3, 5, 3, 3, 5] * 40)
        calls = []
        reduce_groups(np.ones(counts.sum()), counts, lambda a, axis: calls.append(a.shape) or a.sum(axis=axis))
        assert sorted(calls) == [(80, 5), (120, 3)]


class TestAggregate:
    def test_single_point(self):
        ms = MeasurementSet([("m", 90, 0, 0.8)])
        assert aggregate(ms) == [(90, 0.8, 0.0, 1)]

    def test_two_point_std(self):
        ms = MeasurementSet([("m", 90, 0, 0.8), ("m", 90, 1, 1.0)])
        rows = aggregate(ms)
        assert rows[0].n == 90
        assert rows[0].mean == pytest.approx(0.9)
        assert rows[0].std == pytest.approx(math.sqrt(0.02))  # ~0.1414
        assert rows[0].count == 2

    def test_rows_sorted_by_n(self):
        ms = MeasurementSet([("m", 900, 0, 0.2), ("m", 90, 0, 0.8), ("m", 300, 0, 0.4)])
        assert [r.n for r in aggregate(ms)] == [90, 300, 900]

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            aggregate(MeasurementSet(()))

    def test_mixed_metrics_rejected(self):
        ms = MeasurementSet([("a", 10, 0, 1.0), ("b", 10, 0, 2.0)])
        with pytest.raises(ParameterError):
            aggregate(ms)


class TestWindow:
    MS = MeasurementSet(
        [("m", 900, 1, 0.2), ("m", 90, 3, 0.8), ("m", 300, 0, 0.4), ("m", 900, 0, 0.3), ("m", 90, 1, 0.7)]
    )

    def test_points_in_range_keep_the_set_order(self):
        sub, groups = window(self.MS, 300, 900)
        assert sub.points == (("m", 300, 0, 0.4), ("m", 900, 0, 0.3), ("m", 900, 1, 0.2)) == self.MS.points[2:]
        assert split(groups) == [(300, [0.4]), (900, [0.3, 0.2])]

    def test_open_bounds_take_every_point(self):
        sub, groups = window(self.MS)
        assert sub.points == self.MS.points
        assert groups.n == [90, 300, 900]
        assert window(self.MS, n_min=300)[1].n == [300, 900]
        assert window(self.MS, n_max=300)[1].n == [90, 300]

    def test_a_range_without_points_is_an_empty_window(self):
        sub, groups = window(self.MS, 1000, 2000)
        assert sub.points == () and split(groups) == []

    def test_empty_set_rejected(self):
        with pytest.raises(InsufficientDataError, match="^measurement set is empty$"):
            window(MeasurementSet(()))

    def test_mixed_metrics_rejected_with_one_message(self):
        ms = MeasurementSet([("a", 10, 0, 1.0), ("b", 10, 0, 2.0)])
        message = r"^expected a single metric, got \['a', 'b'\]; use only\(\)$"
        with pytest.raises(ParameterError, match=message):
            window(ms)
        with pytest.raises(ParameterError, match=message):
            aggregate(ms)


class TestAggregateOverflow:
    def test_per_n_mean_that_overflows_is_numeric(self):
        ms = MeasurementSet([("m", 10, 0, 1.6e308), ("m", 10, 1, 1.6e308), ("m", 100, 0, 1.0)])
        with pytest.raises(NumericError, match="^floating-point overflow: a per-N mean leaves the float range$"):
            aggregate(ms)

    def test_per_n_std_that_overflows_is_numeric(self):
        ms = MeasurementSet([("m", 10, 0, 1e200), ("m", 10, 1, 3e200), ("m", 100, 0, 1.0)])
        with pytest.raises(NumericError, match="^floating-point overflow: a per-N standard deviation "):
            aggregate(ms)

    def test_values_near_the_float_range_still_aggregate(self):
        ms = MeasurementSet([("m", 10, 0, 8e307), ("m", 10, 1, 8e307), ("m", 100, 0, 1e154)])
        assert aggregate(ms) == [(10, 8e307, 0.0, 2), (100, 1e154, 0.0, 1)]


class TestSynthCurve:
    MODEL = ThreePhaseModel(alpha=-0.58, c=900**0.58, plateau=10.0, floor=0.0)
    SIZES = [900, 1800, 3600, 9000, 22500, 45000, 90000]

    def test_zero_noise_is_exact(self):
        ms = synth_curve(self.MODEL, self.SIZES, 5, 0.0, seed=42)
        for p in ms:
            assert p.value == self.MODEL.evaluate(p.n)

    def test_zero_noise_zero_std(self):
        rows = aggregate(synth_curve(self.MODEL, self.SIZES, 5, 0.0, seed=42))
        assert all(r.std == 0.0 for r in rows)

    def test_same_seed_identical(self):
        a = synth_curve(self.MODEL, self.SIZES, 5, 0.05, seed=3)
        b = synth_curve(self.MODEL, self.SIZES, 5, 0.05, seed=3)
        assert a == b

    def test_different_seed_differs(self):
        a = synth_curve(self.MODEL, self.SIZES, 5, 0.05, seed=3)
        b = synth_curve(self.MODEL, self.SIZES, 5, 0.05, seed=4)
        assert a != b

    def test_sample_means_track_model(self):
        # L(900) = 1.0 by construction; per-N mean of 5 replicates should sit
        # within 3 * sigma / sqrt(5) of the model (relative), a 3-sigma check.
        ms = synth_curve(self.MODEL, self.SIZES, 5, 0.05, seed=0)
        for row in aggregate(ms):
            expected = self.MODEL.evaluate(row.n)
            assert abs(row.mean - expected) <= 3 * 0.05 * expected / math.sqrt(5)

    def test_values_stay_positive(self):
        # Truncation keeps log-transforms defined even with huge noise.
        ms = synth_curve(self.MODEL, self.SIZES, 50, 2.0, seed=5)
        assert all(p.value > 0 for p in ms)

    def test_replicate_count_and_ids(self):
        ms = synth_curve(self.MODEL, [10, 20], 3, 0.0, seed=1)
        assert sorted(p.replicate for p in ms if p.n == 10) == [0, 1, 2]

    def test_empty_sizes_rejected(self):
        with pytest.raises(ParameterError):
            synth_curve(self.MODEL, [], 5, 0.0, seed=1)

    def test_size_below_one_rejected(self):
        with pytest.raises(ParameterError, match="^sizes must be >= 1, got 0$"):
            synth_curve(self.MODEL, [0, 10], 5, 0.0, seed=1)

    def test_unsorted_sizes_rejected(self):
        with pytest.raises(ParameterError):
            synth_curve(self.MODEL, [100, 50], 5, 0.0, seed=1)

    @pytest.mark.parametrize(
        "sizes, replicates, message",
        [([100.7, 200, 400], 2, "sizes must be a non-negative integer, got 100.7"),
         (["100", "200"], 2, "sizes must be a non-negative integer, got '100'"),
         ([True, 2, 3], 2, "sizes must be a non-negative integer, got True"),
         ([None], 2, "sizes must be a non-negative integer, got None"),
         ([10, 20], 2.5, "replicates must be a non-negative integer, got 2.5"),
         ([10, 20], True, "replicates must be a non-negative integer, got True"),
         ([-1, 20], 2, "sizes must be >= 1, got -1"),
         ([20, 10], 2, r"sizes must be strictly increasing, got \[20, 10\]"),
         ([10, 20], -1, "replicates must be >= 1, got -1"),
         ([10, 20], 2**64, f"replicates must be <= {sys.maxsize // 2}, got {2**64}"),
         ([10, 20, 40], np.int64(sys.maxsize // 3 + 1), f"replicates must be <= {sys.maxsize // 3}, got {sys.maxsize // 3 + 1}")],
    )
    def test_sizes_and_replicates_must_be_integers(self, sizes, replicates, message):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            synth_curve(self.MODEL, sizes, replicates, 0.0, seed=1)

    def test_numpy_integer_sizes_and_replicates_match_int(self):
        assert synth_curve(self.MODEL, np.array([10, 20]), np.int64(3), 0.05, seed=1) == synth_curve(
            self.MODEL, [10, 20], 3, 0.05, seed=1
        )

    def test_counts_beyond_int64_keep_python_ints(self):
        ms = synth_curve(self.MODEL, [2**62, 2**64, 2**70], 2, 0.05, seed=1)
        assert ms.n.dtype == object and ms.distinct_n() == [2**62, 2**64, 2**70]
        assert [type(p.n) for p in ms] == [int] * 6
        assert [r.n for r in aggregate(ms)] == [2**62, 2**64, 2**70]

    @pytest.mark.parametrize("kwargs", [dict(replicates=0), dict(noise_sigma=-0.1)])
    def test_bad_counts_rejected(self, kwargs):
        args = dict(sizes=[10, 20], replicates=2, noise_sigma=0.0, seed=1)
        args.update(kwargs)
        with pytest.raises(ParameterError):
            synth_curve(self.MODEL, **args)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_noise_sigma_rejected(self, sigma):
        with pytest.raises(ParameterError, match=f"^noise_sigma must be a finite float >= 0, got {sigma}$"):
            synth_curve(self.MODEL, [10, 20], 2, sigma, seed=1)

    def test_numpy_integer_seed_matches_int(self):
        assert synth_curve(self.MODEL, self.SIZES, 5, 0.05, seed=np.int64(3)) == synth_curve(
            self.MODEL, self.SIZES, 5, 0.05, seed=3
        )

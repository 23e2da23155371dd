"""Tests for the three-phase curve model and the measurement synthesizer."""

import math

import numpy as np
import pytest

from learncurve import (
    CROSS_ENTROPY,
    TOP1_ERROR,
    DataError,
    Measurement,
    MeasurementSet,
    ParameterError,
    ThreePhaseModel,
    aggregate,
    random_guess_plateau,
    synth_curve,
)
from learncurve.model import group_by_n


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
            MeasurementSet.from_rows([("m", 10, 0, 1.0), ("m", 10, 0, 2.0)])

    def test_same_key_different_metric_allowed(self):
        ms = MeasurementSet.from_rows([("a", 10, 0, 1.0), ("b", 10, 0, 2.0)])
        assert ms.metrics() == ["a", "b"]
        assert len(ms.only("a")) == 1

    @pytest.mark.parametrize(
        "row",
        [("m", 0, 0, 1.0), ("m", 10, -1, 1.0), ("m", 10, 0, -0.5), ("", 10, 0, 1.0)],
    )
    def test_invalid_rows_rejected(self, row):
        with pytest.raises(ParameterError):
            MeasurementSet.from_rows([row])

    @pytest.mark.parametrize(
        "bad, error",
        [(("m", 10, 0, math.nan), ParameterError), (("m", 10, 1, math.inf), ParameterError),
         (("m", 20, 0, 0.5), DataError)],
    )
    def test_violation_carries_the_index_of_its_point(self, bad, error):
        rows = [("m", 10, 0, 1.0), ("m", 20, 0, 0.5), ("m", 30, 0, 0.25), bad]
        with pytest.raises(error) as info:
            MeasurementSet.from_rows(rows)
        assert info.value.index == 3

    def test_only_does_not_check_the_rules_again(self, monkeypatch):
        rows = [("a", 10, 0, 1.0), ("b", 10, 0, 2.0), ("a", 20, 1, 0.5), ("b", 30, 0, 0.25)]
        mixed = MeasurementSet.from_rows(rows)
        single = MeasurementSet.from_rows(rows[::2])

        def no_rules(self):
            raise AssertionError("rules checked again")

        monkeypatch.setattr(MeasurementSet, "__post_init__", no_rules)
        assert mixed.only("a") == single
        assert mixed.only("a").points == single.points
        assert single.only("a") is single
        assert mixed.only("c").points == ()


class TestGroupByN:
    def test_ascending_n_values_in_point_order(self):
        ms = MeasurementSet.from_rows([("m", 900, 1, 0.2), ("m", 90, 3, 0.8), ("m", 900, 0, 0.3), ("m", 90, 1, 0.7)])
        groups = group_by_n(ms)
        assert [n for n, _ in groups] == [90, 900]
        assert [vals.tolist() for _, vals in groups] == [[0.8, 0.7], [0.2, 0.3]]


class TestAggregate:
    def test_single_point(self):
        ms = MeasurementSet.from_rows([("m", 90, 0, 0.8)])
        assert aggregate(ms) == [(90, 0.8, 0.0, 1)]

    def test_two_point_std(self):
        ms = MeasurementSet.from_rows([("m", 90, 0, 0.8), ("m", 90, 1, 1.0)])
        rows = aggregate(ms)
        assert rows[0].n == 90
        assert rows[0].mean == pytest.approx(0.9)
        assert rows[0].std == pytest.approx(math.sqrt(0.02))  # ~0.1414
        assert rows[0].count == 2

    def test_rows_sorted_by_n(self):
        ms = MeasurementSet.from_rows([("m", 900, 0, 0.2), ("m", 90, 0, 0.8), ("m", 300, 0, 0.4)])
        assert [r.n for r in aggregate(ms)] == [90, 300, 900]

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            aggregate(MeasurementSet(()))

    def test_mixed_metrics_rejected(self):
        ms = MeasurementSet.from_rows([("a", 10, 0, 1.0), ("b", 10, 0, 2.0)])
        with pytest.raises(ParameterError):
            aggregate(ms)


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

    def test_unsorted_sizes_rejected(self):
        with pytest.raises(ParameterError):
            synth_curve(self.MODEL, [100, 50], 5, 0.0, seed=1)

    @pytest.mark.parametrize("kwargs", [dict(replicates=0), dict(noise_sigma=-0.1)])
    def test_bad_counts_rejected(self, kwargs):
        args = dict(sizes=[10, 20], replicates=2, noise_sigma=0.0, seed=1)
        args.update(kwargs)
        with pytest.raises(ParameterError):
            synth_curve(self.MODEL, **args)

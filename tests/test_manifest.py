"""Tests for nested-subset manifests, label noise, and holdout splits."""

import dataclasses
import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from learncurve import (
    DataError,
    ImageRecord,
    ParameterError,
    SubsetManifest,
    build_nested_subsets,
    holdout_split,
    inject_label_noise,
    restrict_to_size,
)
from learncurve import artifacts
from learncurve.artifacts import dumps_canonical, manifest_from_dict, manifest_to_dict, read_manifest, write_manifest
from learncurve.cli import main as cli_main
from learncurve.manifest import _interleave


def make_pool(classes=3, per_class=40, groups_per_class=0):
    """Synthetic image pool; optional capture groups cycle within classes."""
    images = []
    for ci in range(classes):
        cls = f"class{ci}"
        for i in range(per_class):
            group = f"g{ci}_{i % groups_per_class}" if groups_per_class else None
            images.append((f"img_{ci:02d}_{i:04d}", cls, group))
    return images


class TestBuild:
    def test_shape_and_balance(self):
        m = build_nested_subsets(make_pool(3, 40), [6, 12, 30], seed=1)
        assert m.classes == ("class0", "class1", "class2")
        assert m.per_class_pool == 40
        for size in m.sizes:
            recs = m.subset_records(size)
            assert len(recs) == size
            for cls in m.classes:
                assert sum(1 for r in recs if r.true_label == cls) == size // 3

    def test_prefix_containment_brute_force(self):
        for seed in range(5):
            m = build_nested_subsets(make_pool(3, 40), [6, 12, 24, 30], seed=seed)
            ids = {s: m.subset_ids(s) for s in m.sizes}
            for small, large in itertools.combinations(m.sizes, 2):
                assert ids[small] < ids[large]

    def test_single_size_is_a_permutation(self):
        pool = make_pool(2, 10)
        m = build_nested_subsets(pool, [20], seed=3)
        assert m.subset_ids(20) == {img_id for img_id, _, _ in pool}

    def test_full_experiment_shape(self):
        # 9 classes of 10100 images; the smallest subset takes 10 per class,
        # the largest the full 10000 per class, leaving 100 spare per class.
        m = build_nested_subsets(
            make_pool(9, 10100), [90, 900, 9000, 45000, 90000], seed=13
        )
        assert len(m.subset_records(90)) == 90
        assert all(r.class_rank < 10 for r in m.subset_records(90))
        per_class = {}
        for rec in m.subset_records(90000):
            per_class[rec.true_label] = per_class.get(rec.true_label, 0) + 1
        assert set(per_class.values()) == {10000}
        assert len(m.records) == 9 * 10100

    def test_deterministic_and_seed_sensitive(self):
        a = build_nested_subsets(make_pool(3, 40), [6, 30], seed=5)
        b = build_nested_subsets(make_pool(3, 40), [6, 30], seed=5)
        c = build_nested_subsets(make_pool(3, 40), [6, 30], seed=6)
        assert a == b
        assert a != c

    def test_independent_of_listing_order(self):
        pool = make_pool(3, 40)
        rng = np.random.default_rng(9)
        shuffled = [pool[i] for i in rng.permutation(len(pool))]
        assert build_nested_subsets(pool, [6, 30], seed=5) == build_nested_subsets(
            shuffled, [6, 30], seed=5
        )

    def test_ranks_look_shuffled(self):
        m = build_nested_subsets(make_pool(1, 200), [100], seed=0)
        by_rank = sorted(m.records, key=lambda r: r.class_rank)
        assert [r.image_id for r in by_rank] != sorted(r.image_id for r in m.records)

    def test_capacity_error_names_the_class(self):
        pool = make_pool(3, 40)
        pool = [row for row in pool if not (row[1] == "class1" and row[0].endswith("39"))]
        with pytest.raises(DataError, match="class1"):
            build_nested_subsets(pool, [120], seed=1)

    def test_indivisible_size_rejected(self):
        with pytest.raises(ParameterError, match="divisible"):
            build_nested_subsets(make_pool(3, 40), [10], seed=1)

    def test_duplicate_ids_rejected(self):
        pool = make_pool(2, 10) + [("img_00_0000", "class0", None)]
        with pytest.raises(DataError, match="duplicate"):
            build_nested_subsets(pool, [4], seed=1)

    def test_unsorted_sizes_rejected(self):
        with pytest.raises(ParameterError):
            build_nested_subsets(make_pool(3, 40), [30, 6], seed=1)

    # SubsetManifest holds the size rules, so an image error comes first.
    @pytest.mark.parametrize("pool, sizes, error, message", [
        (make_pool(2, 10) + [("img_00_0000", "class0", None)], [30, 6], DataError,
         "duplicate image id 'img_00_0000'"),
        ([], [30, 6], DataError, "no images supplied"),
        (make_pool(3, 5), [30, 6], DataError,
         "class 'class0' has only 5 images; the largest subset needs 10 per class"),
        (make_pool(2, 5), [13], DataError,
         "class 'class0' has only 5 images; the largest subset needs 6 per class"),
        (make_pool(3, 40), [30, 6], ParameterError, "sizes must be strictly increasing, got (30, 6)"),
        (make_pool(2, 5), [-3], ParameterError, "subset sizes must be positive"),
    ], ids=["duplicate-id", "no-images", "small-class-unsorted", "small-class-indivisible",
            "sizes-as-tuple", "negative-indivisible"])
    def test_size_rules_come_after_the_image_rules(self, pool, sizes, error, message):
        with pytest.raises(error) as info:
            build_nested_subsets(pool, sizes, seed=1)
        assert str(info.value) == message


class TestInterleave:
    def test_no_adjacent_groups_when_feasible(self):
        m = build_nested_subsets(make_pool(2, 60, groups_per_class=6), [80], seed=2)
        depth = 40
        for cls in m.classes:
            ranked = sorted(
                (r for r in m.records if r.true_label == cls), key=lambda r: r.class_rank
            )
            # make_pool assigns image i of a class to group i % 6
            groups = [int(r.image_id.rsplit("_", 1)[1]) % 6 for r in ranked[:depth]]
            assert all(a != b for a, b in zip(groups, groups[1:]))
            assert m.diagnostics[cls] == 0

    def test_too_few_groups_reports_collisions(self):
        # One group per class: every adjacent pair collides and none is fixable.
        m = build_nested_subsets(make_pool(2, 20, groups_per_class=1), [20], seed=2)
        for cls in m.classes:
            assert m.diagnostics[cls] == 9  # depth 10 -> 9 adjacent pairs

    def test_groupless_pool_has_no_diagnostics(self):
        m = build_nested_subsets(make_pool(2, 20), [20], seed=2)
        assert m.diagnostics == {}


class TestInjectNoise:
    POOL_SIZES = [6, 12, 30]

    def build(self, seed=1):
        return build_nested_subsets(make_pool(3, 40), self.POOL_SIZES, seed=seed)

    def test_zero_probability_is_identity(self):
        m = self.build()
        noisy = inject_label_noise(m, 0.0, seed=9)
        assert noisy == m
        assert noisy.flipped_ids() == frozenset()

    def test_full_probability_flips_everything(self):
        m = self.build()
        noisy = inject_label_noise(m, 1.0, seed=9)
        assert all(r.noise_flag for r in noisy.records)
        assert all(r.assigned_label != r.true_label for r in noisy.records)

    def test_true_labels_never_touched(self):
        m = self.build()
        noisy = inject_label_noise(m, 0.5, seed=9)
        assert [r.true_label for r in noisy.records] == [r.true_label for r in m.records]

    def test_deterministic(self):
        m = self.build()
        assert inject_label_noise(m, 0.3, seed=9) == inject_label_noise(m, 0.3, seed=9)
        assert inject_label_noise(m, 0.3, seed=9) != inject_label_noise(m, 0.3, seed=10)

    def test_subset_flips_equal_full_flips_intersected(self):
        m = self.build()
        noisy_full = inject_label_noise(m, 0.3, seed=9)
        for size in self.POOL_SIZES:
            sub = restrict_to_size(m, size)
            noisy_sub = inject_label_noise(sub, 0.3, seed=9)
            expected = noisy_full.flipped_ids() & m.subset_ids(size)
            assert noisy_sub.flipped_ids() == expected

    def test_flip_rate_converges_to_p(self):
        # Marginal over seeds for one fixed image.
        m = build_nested_subsets(make_pool(2, 2), [4], seed=0)
        p = 0.3
        flips = sum(
            1
            for seed in range(2000)
            if "img_00_0000" in inject_label_noise(m, p, seed=seed).flipped_ids()
        )
        rate = flips / 2000
        assert abs(rate - p) <= 3 * np.sqrt(p * (1 - p) / 2000)

    def test_reinjection_replaces_previous_noise(self):
        m = self.build()
        once = inject_label_noise(m, 0.5, seed=9)
        again = inject_label_noise(once, 0.5, seed=10)
        assert again == inject_label_noise(m, 0.5, seed=10)

    def test_single_class_rejected(self):
        m = build_nested_subsets(make_pool(1, 10), [5], seed=0)
        with pytest.raises(ParameterError, match="wrong label"):
            inject_label_noise(m, 0.1, seed=1)

    def test_probability_domain(self):
        with pytest.raises(ParameterError):
            inject_label_noise(self.build(), 1.5, seed=1)


class TestHoldout:
    def build(self, classes=9, per_class=110, sizes=(90, 900)):
        return build_nested_subsets(make_pool(classes, per_class), list(sizes), seed=4)

    def test_paper_shaped_split(self):
        m = self.build()
        train, validation = holdout_split(m, 900, fraction=0.2, seed=1)
        assert len(validation) == 180
        assert len(train) == 720
        labels = {r.image_id: r.true_label for r in m.records}
        for cls in m.classes:
            assert sum(1 for i in validation if labels[i] == cls) == 20

    def test_partition_properties(self):
        m = self.build()
        train, validation = holdout_split(m, 900, seed=1)
        assert set(train) & set(validation) == set()
        assert set(train) | set(validation) == m.subset_ids(900)

    def test_deterministic(self):
        m = self.build()
        assert holdout_split(m, 900, seed=1) == holdout_split(m, 900, seed=1)
        assert holdout_split(m, 900, seed=1) != holdout_split(m, 900, seed=2)

    def test_tiny_size_rounding(self):
        m = build_nested_subsets(make_pool(9, 10), [9], seed=0)
        train, validation = holdout_split(m, 9, fraction=0.2, seed=1)
        assert len(validation) == round(0.2 * 9)  # = 2, some classes get none
        assert len(train) == 7

    def test_unknown_size_rejected(self):
        with pytest.raises(DataError, match="not one of"):
            holdout_split(self.build(), 450, seed=1)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2])
    def test_fraction_domain(self, fraction):
        with pytest.raises(ParameterError):
            holdout_split(self.build(), 900, fraction=fraction, seed=1)


class TestRestrict:
    def test_restriction_keeps_subset_structure(self):
        m = build_nested_subsets(make_pool(3, 40), [6, 12, 30], seed=1)
        sub = restrict_to_size(m, 12)
        assert sub.sizes == (6, 12)
        assert sub.per_class_pool == 4
        assert {r.image_id for r in sub.records} == m.subset_ids(12)
        assert sub.subset_ids(6) == m.subset_ids(6)


class TestRecordAndManifestValidation:
    def test_noise_flag_must_mirror_label_change(self):
        with pytest.raises(ParameterError):
            ImageRecord("a", "x", "x", True, 0)
        with pytest.raises(ParameterError):
            ImageRecord("a", "x", "y", False, 0)

    def test_manifest_rejects_gapped_ranks(self):
        records = (
            ImageRecord("a", "x", "x", False, 0),
            ImageRecord("b", "x", "x", False, 2),
        )
        with pytest.raises(DataError, match="contiguous"):
            SubsetManifest(("x",), 2, (2,), 0, records)

    def test_manifest_rejects_oversized_subsets(self):
        records = (
            ImageRecord("a", "x", "x", False, 0),
            ImageRecord("b", "x", "x", False, 1),
        )
        with pytest.raises(ParameterError, match="pool depth"):
            SubsetManifest(("x",), 2, (4,), 0, records)


# ---------------------------------------------------------------------------
# Columnar engine: equivalence with the per-record reference code
# ---------------------------------------------------------------------------


def reference_interleave(ordered, depth):
    """The quadratic greedy repair that ``_interleave`` must reproduce."""
    items = list(ordered)
    limit = min(depth, len(items))
    for i in range(1, limit):
        prev_group = items[i - 1][1]
        if prev_group is None or items[i][1] != prev_group:
            continue
        for j in range(i + 1, len(items)):
            if items[j][1] != prev_group:
                items[i], items[j] = items[j], items[i]
                break
    collisions = sum(
        1
        for i in range(1, limit)
        if items[i][1] is not None and items[i][1] == items[i - 1][1]
    )
    return items, collisions


def reference_image_rules(classes, per_class_pool, records):
    """The manifest's image rules checked record by record, then class by class."""
    class_set = set(classes)
    ranks = {c: set() for c in classes}
    ids = set()
    for rec in records:
        if rec.image_id in ids:
            raise DataError(f"duplicate image id {rec.image_id!r}")
        ids.add(rec.image_id)
        if rec.true_label not in class_set or rec.assigned_label not in class_set:
            raise DataError(f"image {rec.image_id!r} has a label outside the class list")
        if rec.class_rank in ranks[rec.true_label]:
            raise DataError(f"duplicate rank {rec.class_rank} in class {rec.true_label!r}")
        ranks[rec.true_label].add(rec.class_rank)
    counts = {c: len(r) for c, r in ranks.items()}
    for c, r in ranks.items():
        if r != set(range(counts[c])):
            raise DataError(f"ranks of class {c!r} are not contiguous from 0")
    if min(counts.values(), default=0) != per_class_pool:
        raise ParameterError(
            f"per_class_pool={per_class_pool} does not match the smallest "
            f"class count {min(counts.values(), default=0)}"
        )


def outcome(fn, *args):
    try:
        fn(*args)
    except (DataError, ParameterError) as exc:
        return type(exc), str(exc)
    return None


group_lists = st.lists(st.one_of(st.none(), st.integers(0, 4).map(lambda g: f"g{g}")), max_size=60)


class TestLinearInterleave:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(groups=group_lists, n_groups=st.integers(1, 5), depth_shift=st.integers(-5, 5), data=st.data())
    def test_matches_the_reference(self, groups, n_groups, depth_shift, data):
        groups = [g if g is None or int(g[1:]) < n_groups else "g0" for g in groups]
        ordered = [(f"id{i}", g) for i, g in enumerate(groups)]
        depth = max(len(ordered) + depth_shift, 0)
        if data.draw(st.booleans()):
            depth = data.draw(st.integers(0, len(ordered) + 2))
        assert _interleave(ordered, depth) == reference_interleave(ordered, depth)

    @pytest.mark.parametrize("share", [0.55, 0.95])
    def test_matches_the_reference_on_a_crowded_class(self, share):
        rng = np.random.default_rng(3)
        n = 3000
        groups = np.where(rng.random(n) < share, "big", rng.integers(0, 600, n).astype(str))
        ordered = [(f"id{i}", str(g)) for i, g in enumerate(groups)]
        assert _interleave(ordered, n) == reference_interleave(ordered, n)

    def test_crowded_class_builds_in_linear_time(self):
        # One class of 50 000 images, 95 % in one capture group: the quadratic
        # repair needed about 27 s for this.
        rng = np.random.default_rng(5)
        crowded = rng.random(50_000) < 0.95
        images = [(f"img{i:05d}", "c", "big" if crowded[i] else f"g{i % 997}") for i in range(50_000)]
        start = time.perf_counter()
        m = build_nested_subsets(images, [50_000], seed=1)
        assert time.perf_counter() - start < 2.0
        assert m.diagnostics["c"] > 0


image_ids = st.text(alphabet=st.sampled_from(['a', 'Z', '"', '\\', '\n', '\t', '\x00', '\x1f', '\x7f', 'é', '植', '😀', ' ', '/']), max_size=4)


@st.composite
def built_manifests(draw):
    """Small built manifests with awkward ids and labels; one class may have no spare image."""
    k = draw(st.integers(2, 4))
    classes = [f"c{i}" + draw(st.sampled_from(["", '"', "\\", "ü", "\x01"])) for i in range(k)]
    depth = draw(st.integers(1, 4))
    counts = [depth + draw(st.integers(0, 3)) for _ in classes]
    counts[draw(st.integers(0, k - 1))] = depth  # a class with 0 spare images
    images = []
    for ci, cls in enumerate(classes):
        for j in range(counts[ci]):
            image_id = draw(image_ids) + f"#{ci}.{j}"
            images.append((image_id, cls, draw(st.sampled_from([None, "", "g0", "g1"]))))
    sizes = sorted({k * d for d in draw(st.lists(st.integers(1, depth), min_size=1, max_size=3))})
    return build_nested_subsets(images, sizes, seed=draw(st.integers(0, 50)))


@st.composite
def manifests(draw):
    """Small built manifests with label noise at p in {0, 0.4, 1}."""
    m = draw(built_manifests())
    return inject_label_noise(m, draw(st.sampled_from([0.0, 0.4, 1.0])), seed=draw(st.integers(0, 50)))


@st.composite
def loaded_records(draw):
    """Records as a manifest file holds them, in any order, some breaking one rule."""
    classes = ("a", "b", "c")
    records = []
    for cls in classes:
        for rank in range(draw(st.integers(0, 4))):
            assigned = draw(st.sampled_from(classes))
            records.append({"image_id": f"{cls}{rank}", "true_label": cls, "assigned_label": assigned,
                            "noise_flag": assigned != cls, "class_rank": rank})
    for _ in range(draw(st.integers(0, 3)) if records else 0):
        i = draw(st.integers(0, len(records) - 1))
        field, value = draw(st.one_of(
            st.tuples(st.just("image_id"), st.sampled_from([r["image_id"] for r in records])),
            st.tuples(st.just("true_label"), st.sampled_from(classes + ("z",))),
            st.tuples(st.just("assigned_label"), st.sampled_from(classes + ("z",))),
            st.tuples(st.just("class_rank"), st.sampled_from([-1, 0, 1, 2, 5, 2**63, 2**70])),
            st.tuples(st.just("noise_flag"), st.booleans()),
        ))
        rec = records[i] = {**records[i], field: value}
        if field.endswith("_label") and draw(st.booleans()):  # half the time, keep the flag in step
            rec["noise_flag"] = rec["assigned_label"] != rec["true_label"]
    return classes, [records[i] for i in draw(st.permutations(range(len(records))))]


class TestColumns:
    def test_records_view_behaves_like_a_tuple(self):
        m = inject_label_noise(build_nested_subsets(make_pool(3, 7), [6, 12], seed=2), 0.5, seed=3)
        as_tuple = tuple(m.records)
        assert len(m.records) == len(as_tuple) == 21
        assert m.records == as_tuple and as_tuple == m.records
        assert m.records == list(as_tuple)
        assert [m.records[i] for i in range(-21, 21)] == list(as_tuple) * 2
        with pytest.raises(IndexError):
            m.records[21]
        assert m.records != as_tuple[:-1]
        assert [(r.true_label, r.class_rank) for r in as_tuple] == sorted(
            (r.true_label, r.class_rank) for r in as_tuple
        )

    def test_records_in_any_order_make_the_same_manifest(self):
        m = inject_label_noise(build_nested_subsets(make_pool(3, 7), [6, 12], seed=2), 0.5, seed=3)
        shuffled = list(m.records)
        np.random.default_rng(1).shuffle(shuffled)
        again = SubsetManifest(m.classes, m.per_class_pool, m.sizes, m.seed, tuple(shuffled), m.diagnostics)
        assert again == m
        assert tuple(again.records) == tuple(m.records)
        assert SubsetManifest(m.classes, m.per_class_pool, m.sizes, m.seed, iter(shuffled), m.diagnostics) == m

    def test_replacing_classes_reorders_the_columns(self):
        m = inject_label_noise(build_nested_subsets(make_pool(3, 7), [6, 12], seed=2), 0.5, seed=3)
        flipped = dataclasses.replace(m, classes=tuple(reversed(m.classes)))
        assert [r.true_label for r in flipped.records][:7] == ["class2"] * 7
        assert set(flipped.records) == set(m.records)
        assert flipped.flipped_ids() == m.flipped_ids()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_image_rules_name_the_same_offender(self, data):
        classes = ("a", "b", "c")
        n = data.draw(st.integers(0, 12))
        records = []
        for i in range(n):
            true = data.draw(st.sampled_from(classes + ("z",)))
            assigned = data.draw(st.sampled_from((true, "a", "b", "z")))
            image_id = data.draw(st.sampled_from([f"i{i}", "dup", "dup2"]))
            records.append(ImageRecord(image_id, true, assigned, assigned != true, data.draw(st.integers(0, 4))))
        pool = data.draw(st.integers(1, 4))
        expected = outcome(reference_image_rules, classes, pool, records)
        assert outcome(SubsetManifest, classes, pool, (3,), 0, tuple(records)) == expected

    def test_rank_beyond_int64_breaks_contiguity(self):
        for last in (2**70, 2**71):
            records = (ImageRecord("x", "a", "a", False, 2**71), ImageRecord("y", "a", "a", False, last))
            expected = outcome(reference_image_rules, ("a",), 2, records)
            assert outcome(SubsetManifest, ("a",), 2, (1,), 0, records) == expected

    def test_loaded_records_keep_image_record_rules(self):
        m = build_nested_subsets(make_pool(2, 3), [4], seed=1)
        d = manifest_to_dict(m)
        d["records"][4]["noise_flag"] = True
        d["records"][2]["class_rank"] = -1
        with pytest.raises(ParameterError, match=r"class_rank must be >= 0, got -1"):
            manifest_from_dict(d)
        d["records"][1]["noise_flag"] = True
        with pytest.raises(ParameterError, match=f"noise_flag must mirror a label change \\(image '{d['records'][1]['image_id']}'\\)"):
            manifest_from_dict(d)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(loaded=loaded_records(), pool=st.integers(1, 4))
    def test_loaded_records_raise_what_the_reference_raises(self, loaded, pool):
        classes, records = loaded

        def reference():
            fields = ("image_id", "true_label", "assigned_label", "noise_flag", "class_rank")
            recs = [ImageRecord(*(r[f] for f in fields)) for r in records]
            reference_image_rules(classes, pool, recs)

        d = {"classes": list(classes), "per_class_pool": pool, "sizes": [3], "seed": 0, "records": records}
        assert outcome(manifest_from_dict, d) == outcome(reference)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(m=built_manifests(), p=st.sampled_from([0.0, 0.4, 1.0]), seed=st.integers(0, 50))
    def test_derived_manifests_meet_the_image_rules(self, m, p, seed):
        # Derived manifests are not re-checked: this is what makes that safe.
        noisy = inject_label_noise(m, p, seed)
        derived = [m, noisy, *(restrict_to_size(x, s) for x in (m, noisy) for s in m.sizes)]
        for x in derived:
            reference_image_rules(x.classes, x.per_class_pool, tuple(x.records))

    def test_loaded_records_in_any_order(self):
        m = inject_label_noise(build_nested_subsets(make_pool(3, 7), [6, 12], seed=2), 0.5, seed=3)
        d = manifest_to_dict(m)
        d["records"].reverse()
        assert manifest_from_dict(d) == m

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(m=manifests())
    def test_direct_writer_matches_the_json_encoder(self, m, tmp_path_factory):
        path = tmp_path_factory.mktemp("w") / "m.json"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(artifacts, "utc_now", lambda: "2026-01-01T00:00:00+00:00")
            write_manifest(m, path, input_digest="d" * 64, params={"p": 0.4})
            expected = dumps_canonical(manifest_to_dict(m, "d" * 64, {"p": 0.4}))
        assert path.read_text(encoding="utf-8") == expected
        assert read_manifest(path) == m

    def test_non_string_ids_fall_back_to_the_json_encoder(self, tmp_path, monkeypatch):
        monkeypatch.setattr(artifacts, "utc_now", lambda: "2026-01-01T00:00:00+00:00")
        m = build_nested_subsets([(i, "a" if i % 2 else "b", None) for i in range(6)], [6], seed=1)
        write_manifest(m, tmp_path / "m.json")
        assert (tmp_path / "m.json").read_text() == dumps_canonical(manifest_to_dict(m))

    def test_pipeline_builds_no_image_record(self, tmp_path, monkeypatch):
        built = []
        original = ImageRecord.__post_init__
        monkeypatch.setattr(ImageRecord, "__post_init__", lambda self: built.append(self) or original(self))
        m = build_nested_subsets(make_pool(9, 120, groups_per_class=7), [90, 450, 900], seed=3)
        noisy = inject_label_noise(m, 0.1, seed=4)
        assert noisy.subset_ids(450) < noisy.subset_ids(900)
        assert len(restrict_to_size(noisy, 450).records) == 450
        holdout_split(noisy, 900, 0.2, seed=5)
        noisy.flipped_ids(90)
        write_manifest(noisy, tmp_path / "m.json")
        assert read_manifest(tmp_path / "m.json") == noisy
        pool = tmp_path / "images.csv"
        pool.write_text("image_id,class,capture_group\n" + "".join(f"{i},{c},{g or ''}\n" for i, c, g in make_pool(3, 30, 4)))
        assert cli_main(["manifest", "build", "--images", str(pool), "--sizes", "9,90", "--seed", "1", "--out", str(tmp_path / "c.json")]) == 0
        assert cli_main(["manifest", "noise", "--in", str(tmp_path / "c.json"), "--p", "0.3", "--seed", "2", "--out", str(tmp_path / "n.json")]) == 0
        assert built == []
        assert len(list(noisy.records)) == len(built) == 1080

    def test_cli_counts_flips_from_the_columns(self, tmp_path, capsys):
        pool = tmp_path / "images.csv"
        pool.write_text("image_id,class,capture_group\n" + "".join(f"{i},{c},\n" for i, c, _ in make_pool(3, 30)))
        assert cli_main(["manifest", "build", "--images", str(pool), "--sizes", "90", "--seed", "1", "--out", str(tmp_path / "c.json")]) == 0
        assert cli_main(["manifest", "noise", "--in", str(tmp_path / "c.json"), "--p", "0.3", "--seed", "2", "--out", str(tmp_path / "n.json")]) == 0
        noisy = read_manifest(tmp_path / "n.json")
        out = capsys.readouterr().out.splitlines()
        assert out[0].endswith("(90 records, 3 classes)")
        assert out[1].endswith(f"({sum(r.noise_flag for r in noisy.records)} of 90 labels flipped)")

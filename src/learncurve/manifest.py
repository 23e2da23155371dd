"""Reproducible experiment manifests for nested-subset training protocols.

Nesting is encoded by per-class ranks: every image gets a position in its
class's shuffled order, and the training subset of total size s consists
of the first ``s / n_classes`` ranks of every class.  Smaller subsets are
therefore contained in larger ones by construction, and every subset is
exactly class-balanced.

All randomness is keyed hashing of ``(seed, identity)`` rather than
positional draws.  Label-noise decisions depend only on the seed and the
image id, so the flipped images inside any subset are exactly the flips of
the full pool intersected with that subset, and results are independent of
listing order.  Pixel data is never touched; the manifest holds ids only.
Images are stored as columns in class-then-rank order, so a subset is a
prefix of every class; :class:`ImageRecord` objects are made only on reading.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from itertools import accumulate, chain
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import DataError, ParameterError

_HASH_PERSON = b"lc.manifest"


def _keyed(*parts: object) -> "hashlib.blake2b":
    """Hash state of the key ``parts``; copies extend it by one more part."""
    h = hashlib.blake2b(digest_size=16, person=_HASH_PERSON)
    for part in parts:
        h.update(str(part).encode("utf-8"))
        h.update(b"\x1f")  # separator: ("ab", "c") must differ from ("a", "bc")
    return h


def _index(k: int, *parts: object) -> int:
    return int.from_bytes(_keyed(*parts).digest()[:8], "big") % k


def _rng(*parts: object) -> np.random.Generator:
    return np.random.default_rng(int.from_bytes(_keyed(*parts).digest(), "big"))


@dataclass(frozen=True)
class ImageRecord:
    """One image in the pool: identity, labels, noise state, shuffle rank."""

    image_id: str
    true_label: str
    assigned_label: str
    noise_flag: bool
    class_rank: int

    def __post_init__(self):
        if self.noise_flag != (self.assigned_label != self.true_label):
            raise ParameterError(
                f"noise_flag must mirror a label change (image {self.image_id!r})"
            )
        if self.class_rank < 0:
            raise ParameterError(f"class_rank must be >= 0, got {self.class_rank}")


class RecordColumns(NamedTuple):
    """The ImageRecord fields of images in any order, one list per field."""

    image_id: list
    true_label: list
    assigned_label: list
    noise_flag: list
    class_rank: list


class ManifestRecords(Sequence):
    """A manifest's images as columns in class-then-rank order: ``ids``, the
    image ``counts`` per class and the ``assigned`` label index of each image.
    True labels and ranks follow from positions; reading an item builds its
    ImageRecord, and a tuple or list compares record by record.  Only this
    module builds one, from checked columns, so a manifest trusts its images."""

    __slots__ = ("classes", "ids", "counts", "assigned", "starts")

    def __init__(self, classes: Sequence[str], ids: Iterable[str], counts: Iterable[int], assigned: np.ndarray):
        self.classes, self.ids, self.counts = tuple(classes), tuple(ids), tuple(counts)
        self.assigned = np.asarray(assigned, dtype=np.intp)
        self.assigned.flags.writeable = False
        self.starts = tuple(accumulate(self.counts, initial=0))

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index: int) -> ImageRecord:
        i = range(len(self))[index]
        c, a = bisect_right(self.starts, i) - 1, int(self.assigned[i])
        return ImageRecord(self.ids[i], self.classes[c], self.classes[a], a != c, i - self.starts[c])

    def __iter__(self):
        assigned, classes = self.assigned.tolist(), self.classes
        for c, (lo, hi) in enumerate(zip(self.starts, self.starts[1:])):
            for i in range(lo, hi):
                yield ImageRecord(self.ids[i], classes[c], classes[assigned[i]], assigned[i] != c, i - lo)

    def __eq__(self, other):
        if isinstance(other, ManifestRecords):
            same = (self.classes, self.counts, self.ids) == (other.classes, other.counts, other.ids)
            return same and bool(np.array_equal(self.assigned, other.assigned))
        if isinstance(other, (tuple, list)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def labels(self) -> np.ndarray:
        return np.repeat(np.arange(len(self.counts)), self.counts)

    def ranks(self) -> np.ndarray:
        return np.arange(len(self.ids)) - np.repeat(self.starts[:-1], self.counts)

    def prefix(self, depth: int) -> "ManifestRecords":
        """The first ``depth`` ranks of every class."""
        ids = chain.from_iterable(self.ids[lo:lo + depth] for lo in self.starts[:-1])
        assigned = np.concatenate([self.assigned[lo:lo + depth] for lo in self.starts[:-1]])
        return ManifestRecords(self.classes, ids, [depth] * len(self.counts), assigned)


@dataclass(frozen=True)
class SubsetManifest:
    """Deterministic nested training subsets with per-image label state.

    ``per_class_pool`` is the usable pool depth per class (the smallest
    class count).  ``diagnostics`` records, for classes that carry capture
    groups, how many adjacent same-group pairs remain inside the deepest
    subset after best-effort interleaving.  ``records`` (ImageRecords in
    any order, or a loaded file's :class:`RecordColumns`) is checked and kept
    as :class:`ManifestRecords`; one with the same classes is trusted, since
    only this module builds one.
    """

    classes: tuple[str, ...]
    per_class_pool: int
    sizes: tuple[int, ...]
    seed: int
    records: Sequence[ImageRecord]
    diagnostics: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        records = self.records
        trusted = isinstance(records, ManifestRecords) and records.classes == tuple(self.classes)
        if not trusted:
            if not isinstance(records, RecordColumns):
                recs = tuple(records)
                records = RecordColumns(*([getattr(r, f) for r in recs] for f in RecordColumns._fields))
            for fields in zip(*records):  # loaded columns have not met ImageRecord's rules yet
                if fields[3] != (fields[2] != fields[1]) or fields[4] < 0:
                    ImageRecord(*fields)
        k = len(self.classes)
        if k < 1:
            raise ParameterError("manifest needs at least one class")
        if len(set(self.classes)) != k:
            raise ParameterError("class names must be unique")
        if not self.sizes:
            raise ParameterError("sizes must be non-empty")
        if any(s < 1 for s in self.sizes):
            raise ParameterError("subset sizes must be positive")
        if any(b <= a for a, b in zip(self.sizes, self.sizes[1:])):
            raise ParameterError(f"sizes must be strictly increasing, got {self.sizes}")
        for s in self.sizes:
            if s % k != 0:
                raise ParameterError(f"subset size {s} is not divisible by {k} classes")
        if max(self.sizes) // k > self.per_class_pool:
            raise ParameterError(
                f"largest subset needs {max(self.sizes) // k} images per class, "
                f"pool depth is {self.per_class_pool}"
            )
        if not trusted:
            records = self._checked(records)
        if min(records.counts) != self.per_class_pool:
            raise ParameterError(
                f"per_class_pool={self.per_class_pool} does not match the smallest "
                f"class count {min(records.counts)}"
            )
        object.__setattr__(self, "records", records)

    def _checked(self, cols: RecordColumns) -> ManifestRecords:
        """Images from outside this module, checked record by record (unique ids, labels in
        the class list, distinct ranks within a class) and then class by class (ranks
        contiguous from 0), as columns in class-then-rank order."""
        code = {c: i for i, c in enumerate(self.classes)}
        ids, ranks = set(), [set() for _ in self.classes]
        for image_id, true, assigned, rank in zip(cols.image_id, cols.true_label, cols.assigned_label, cols.class_rank):
            if image_id in ids:
                raise DataError(f"duplicate image id {image_id!r}")
            ids.add(image_id)
            if true not in code or assigned not in code:
                raise DataError(f"image {image_id!r} has a label outside the class list")
            taken = ranks[code[true]]
            if rank in taken:
                raise DataError(f"duplicate rank {rank} in class {true!r}")
            taken.add(rank)
        counts = [len(taken) for taken in ranks]
        for cls, taken in zip(self.classes, ranks):
            if taken != set(range(len(taken))):
                raise DataError(f"ranks of class {cls!r} are not contiguous from 0")
        true, assigned = (np.array([code[x] for x in col], dtype=np.intp) for col in cols[1:3])
        order = np.empty(len(true), dtype=np.intp)  # every rank is now below its class count
        order[(np.cumsum(counts) - counts)[true] + np.array(cols.class_rank, dtype=np.intp)] = np.arange(len(true))
        return ManifestRecords(self.classes, [cols.image_id[i] for i in order.tolist()], counts, assigned[order])

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def _depth(self, size: int) -> int:
        """Images per class in the subset of the given total size."""
        if size not in self.sizes:
            raise DataError(f"size {size} is not one of the manifest subsets {self.sizes}")
        return size // self.n_classes

    def subset_records(self, size: int) -> list[ImageRecord]:
        """Records of the nested subset of the given total size, class then rank order."""
        return list(self.records.prefix(self._depth(size)))

    def subset_ids(self, size: int) -> frozenset[str]:
        return frozenset(self.records.prefix(self._depth(size)).ids)

    def flipped_ids(self, size: int | None = None) -> frozenset[str]:
        """Ids with noisy labels, over the whole pool or one subset."""
        recs = self.records
        flipped = recs.assigned != recs.labels()
        if size is not None:
            flipped &= recs.ranks() < self._depth(size)
        return frozenset(recs.ids[i] for i in np.flatnonzero(flipped).tolist())


def _interleave(
    ordered: list[tuple[str, str | None]], depth: int
) -> tuple[list[tuple[str, str | None]], int]:
    """Greedy repair so no two consecutive entries within ``depth`` share a group.

    Swaps a conflicting entry with the nearest later entry (anywhere in the
    pool) of a different group; when the whole tail shares the previous
    group there is nothing to swap and the collision stays.  Returns the
    repaired order and the number of remaining collisions inside ``depth``.
    Linear time: positions ``(i, run_end]`` are known to hold ``run_group``,
    so a search for another group resumes past them.
    """
    items = list(ordered)
    groups = [group for _, group in items]
    n = len(items)
    limit = min(depth, n)
    run_group, run_end = None, 0
    for i in range(1, limit):
        prev_group = groups[i - 1]
        if prev_group is None or groups[i] != prev_group:
            continue
        j = max(i, run_end) + 1 if run_group == prev_group else i + 1
        while j < n and groups[j] == prev_group:
            j += 1
        if j < n:
            items[i], items[j] = items[j], items[i]
            groups[i], groups[j] = groups[j], prev_group
        run_group, run_end = prev_group, min(j, n - 1)
    collisions = sum(
        1
        for i in range(1, limit)
        if groups[i] is not None and groups[i] == groups[i - 1]
    )
    return items, collisions


def build_nested_subsets(
    images: Iterable[tuple[str, str, str | None]],
    sizes: Iterable[int],
    seed: int,
) -> SubsetManifest:
    """Shuffle each class and assign the ranks that define the nested subsets.

    ``images`` yields (image_id, class_name, capture_group) triples; the
    capture group may be ``None`` or empty.  The per-class shuffle is keyed
    by (seed, class) over ids sorted beforehand, so the result does not
    depend on listing order.  When capture groups are present, consecutive
    ranks within the deepest subset are kept from sharing a group on a
    best-effort basis (same-plant-same-day images should not line up).
    """
    if seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed}")
    sizes = tuple(int(s) for s in sizes)
    by_class: dict[str, list[tuple[str, str | None]]] = {}
    seen_ids = set()
    for image_id, class_name, group in images:
        if image_id in seen_ids:
            raise DataError(f"duplicate image id {image_id!r}")
        seen_ids.add(image_id)
        by_class.setdefault(class_name, []).append((image_id, group or None))
    if not by_class:
        raise DataError("no images supplied")

    classes = tuple(sorted(by_class))
    k = len(classes)
    depth = max(sizes, default=0) // k  # SubsetManifest holds the size rules
    for cls in classes:
        if len(by_class[cls]) < depth:
            raise DataError(
                f"class {cls!r} has only {len(by_class[cls])} images; "
                f"the largest subset needs {depth} per class"
            )

    ids: list[str] = []
    diagnostics: dict[str, int] = {}
    for cls in classes:
        members = sorted(by_class[cls])
        perm = _rng(seed, "shuffle", cls).permutation(len(members))
        ordered = [members[i] for i in perm.tolist()]
        if any(group is not None for _, group in ordered):
            ordered, diagnostics[cls] = _interleave(ordered, depth)
        ids.extend(image_id for image_id, _ in ordered)
    counts = [len(by_class[cls]) for cls in classes]
    return SubsetManifest(
        classes=classes,
        per_class_pool=min(counts),
        sizes=sizes,
        seed=seed,
        records=ManifestRecords(classes, ids, counts, np.repeat(np.arange(k), counts)),
        diagnostics=diagnostics,
    )


def inject_label_noise(m: SubsetManifest, p: float, seed: int) -> SubsetManifest:
    """Flip each image's label to a uniformly random wrong class with probability p.

    The flip decision and the replacement label are pure functions of
    ``(seed, image_id)``, so an image flipped in the full pool is flipped
    identically in every subset containing it.  Labels are re-derived from
    the true labels, replacing any noise injected earlier.
    """
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"noise probability must lie in [0, 1], got {p}")
    if seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed}")
    if m.n_classes < 2:
        raise ParameterError("need at least 2 classes to pick a wrong label")

    recs = m.records
    true = recs.labels()
    assigned = true.copy()
    if p > 0.0:
        flip, label = _keyed(seed, "flip"), _keyed(seed, "label")
        at, picks = [], []
        for i, image_id in enumerate(recs.ids):
            key, h = f"{image_id}\x1f".encode("utf-8"), flip.copy()
            h.update(key)
            if int.from_bytes(h.digest()[:8], "big") / 2.0**64 < p:
                h = label.copy()
                h.update(key)
                at.append(i)
                picks.append(int.from_bytes(h.digest()[:8], "big") % (m.n_classes - 1))
        at, pick = np.array(at, dtype=np.intp), np.array(picks, dtype=np.intp)
        assigned[at] = pick + (pick >= true[at])  # pick indexes the other classes, in order
    return replace(m, records=ManifestRecords(m.classes, recs.ids, recs.counts, assigned))


def holdout_split(
    m: SubsetManifest, size: int, fraction: float = 0.20, seed: int = 0
) -> tuple[list[str], list[str]]:
    """Partition the subset of the given size into (train, validation) ids.

    The validation part holds ``round(fraction * size)`` images, spread
    over the classes as evenly as possible (remainders rotate through the
    classes at a keyed offset).  Selection is a pure function of
    ``(m.seed, seed, size, fraction)``: repeated calls agree, and models
    trained on the same volume hold out the same data.  Both id lists are
    sorted lexicographically.
    """
    depth = m._depth(size)
    if not 0.0 < fraction < 1.0:
        raise ParameterError(f"holdout fraction must lie in (0, 1), got {fraction}")
    if seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed}")

    k = m.n_classes
    val_total = round(fraction * size)
    base, extra = divmod(val_total, k)
    start = _index(k, m.seed, seed, size, fraction, "rotation")

    train: list[str] = []
    validation: list[str] = []
    ids = m.records.prefix(depth).ids
    for i, cls in enumerate(m.classes):
        quota = base + (1 if (i - start) % k < extra else 0)
        rng = _rng(m.seed, seed, size, fraction, "holdout", cls)
        chosen = set(rng.choice(depth, size=quota, replace=False).tolist()) if quota else set()
        for rank, image_id in enumerate(ids[i * depth:(i + 1) * depth]):
            (validation if rank in chosen else train).append(image_id)
    return sorted(train), sorted(validation)


def restrict_to_size(m: SubsetManifest, size: int) -> SubsetManifest:
    """Stand-alone manifest holding exactly the subset of the given size."""
    depth = m._depth(size)
    return SubsetManifest(
        classes=m.classes,
        per_class_pool=depth,
        sizes=tuple(s for s in m.sizes if s <= size),
        seed=m.seed,
        records=m.records.prefix(depth),
        diagnostics=dict(m.diagnostics),
    )

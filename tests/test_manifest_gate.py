"""Manifest error gate: how every broken manifest document is refused, pinned by one digest.

Each seeded document is a valid manifest of two to four classes, written
by hand as a manifest file holds it (one record dict per image, listed in
shuffled order), that then takes one to three faults: a missing record
key; a float, bool, str, negative or beyond-int64 rank; a numpy-typed flag
or rank (some of which break no rule); a duplicate id; a label outside the
class list; a repeated or gapped rank; a flag that disagrees with its
labels; and, more rarely, sizes, a pool depth or a seed that break a
document rule, so the gate also pins which rule wins.  For each document
the test records what ``manifest_from_dict`` raises (type and message), or,
when it loads, the loaded columns.  The sha256 of all of it must equal
``DIGEST``: a change that refuses bad manifests otherwise records the new
digest here, in the open.  ``python tests/test_manifest_gate.py OUT`` writes
the outcomes one per line, so two checkouts can be compared with ``diff``.
"""

import hashlib

import numpy as np

from learncurve.artifacts import manifest_from_dict

DOCS = 4000
DIGEST = "dd1e6d69165e5c4abb352ee59e7372e91241398fd274e881d0c8940bfdfdd532"
FIELDS = ("image_id", "true_label", "assigned_label", "noise_flag", "class_rank")
CLASS_NAMES = ["a", "b", "c", "d"]


def _valid_doc(rng) -> dict:
    k = int(rng.integers(2, 5))
    classes = CLASS_NAMES[:k]
    counts = [int(rng.integers(1, 6)) for _ in classes]
    depth = int(rng.integers(1, min(counts) + 1))
    records = []
    for c, cls in enumerate(classes):
        for rank in rng.permutation(counts[c]).tolist():
            assigned = classes[int(rng.integers(k))] if rng.random() < 0.3 else cls
            records.append({"image_id": f"{cls}{rank}", "true_label": cls, "assigned_label": assigned,
                            "noise_flag": assigned != cls, "class_rank": rank})
    records = [records[i] for i in rng.permutation(len(records)).tolist()]
    return {"classes": list(classes), "per_class_pool": min(counts), "sizes": [k * depth], "seed": 3,
            "diagnostics": {}, "records": records}


def _break_record(rng, doc) -> None:
    records = doc["records"]
    at = int(rng.integers(len(records)))
    rec = records[at] = dict(records[at])
    other = records[int(rng.integers(len(records)))]
    kind = int(rng.integers(12)) if len(rec) == len(FIELDS) else 0  # a record missing a key only loses more
    if kind == 0:
        rec.pop(FIELDS[int(rng.integers(len(FIELDS)))], None)
    elif kind == 1:  # a rank of the wrong type
        rec["class_rank"] = [1.0, 0.5, True, False, "0", None][int(rng.integers(6))]
    elif kind == 2:  # a numpy-typed flag, in or out of step with the labels
        flag = rec["noise_flag"] if rng.random() < 0.5 else not rec["noise_flag"]
        rec["noise_flag"] = [np.bool_(flag), np.int64(flag)][int(rng.integers(2))]
    elif kind == 3 and type(rec["class_rank"]) is int and abs(rec["class_rank"]) < 2**62:  # a numpy-typed rank
        rec["class_rank"] = np.int64(rec["class_rank"])
    elif kind == 4:
        rec["class_rank"] = [-1, -(2**70), 2**70, 2**63][int(rng.integers(4))]
    elif kind == 5:
        rec["image_id"] = other.get("image_id", "a0")
    elif kind == 6:
        field = ["true_label", "assigned_label"][int(rng.integers(2))]
        rec[field] = "zz"
        if rng.random() < 0.5:  # keep the flag in step
            rec["noise_flag"] = rec["assigned_label"] != rec["true_label"]
    elif kind == 7:  # a rank repeated from another image (of any class)
        rec["class_rank"] = other.get("class_rank", 0)
    elif kind == 8 and type(rec["class_rank"]) is int:  # a gap
        rec["class_rank"] += int(rng.integers(1, 4))
    elif kind == 9:
        rec["noise_flag"] = not rec["noise_flag"]
    elif kind == 10:  # a relabelled image, flag in step: its class loses a rank, another gains one
        rec["true_label"] = other.get("true_label", "a")
        rec["noise_flag"] = rec["assigned_label"] != rec["true_label"]
    elif kind == 11:  # an unhashable id or label
        rec[["image_id", "true_label"][int(rng.integers(2))]] = [rec["image_id"]]


def _break_doc(rng, doc) -> None:
    kind = int(rng.integers(3))
    if kind == 0:
        doc["sizes"] = [doc["sizes"][0] + 1]
    elif kind == 1:
        doc["per_class_pool"] += 1
    else:
        doc["seed"] = -1


def broken_doc(seed: int) -> dict:
    rng = np.random.default_rng([20261019, 18, seed])
    doc = _valid_doc(rng)
    faults = int(rng.integers(1, 4))
    for _ in range(faults):
        if rng.random() < 0.12:
            _break_doc(rng, doc)
        else:
            _break_record(rng, doc)
    return doc


def outcome(seed: int) -> str:
    doc = broken_doc(seed)
    try:
        m = manifest_from_dict(doc)
    except Exception as exc:  # noqa: BLE001 - the gate records whatever the loader raises
        return f"{type(exc).__name__}|{exc}"
    recs = m.records
    return f"ok|{recs.classes}|{recs.counts}|{recs.ids}|{recs.assigned.tolist()}"


def digest() -> str:
    h = hashlib.sha256()
    for seed in range(DOCS):
        h.update(outcome(seed).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_every_manifest_refusal_is_unchanged():
    assert digest() == DIGEST


if __name__ == "__main__":
    import sys

    with open(sys.argv[1], "w") as out:
        out.writelines(outcome(seed) + "\n" for seed in range(DOCS))

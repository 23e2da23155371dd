"""Error gate: how every broken measurement set and CSV file is refused, pinned by one digest.

Each seeded broken set starts from valid points (some with sample counts
of 1, beyond int64 or near the end of the float range, some with values of
0.0 or numpy floats), breaks one or two fields of
several of them with wrong-typed, bool, negative, beyond-float, non-finite
and empty-metric entries, adds duplicate points, and lists its points in
shuffled order.  Each broken CSV
file has a header, width, parse or rule fault, with blank lines between its
rows.  For a set the test records the error's type, message and ``index``;
for a file its type and its message, which names the line.  The sha256 of
all of it must equal ``DIGEST``: a change that refuses bad input otherwise
records the new digest here, in the open.
"""

import hashlib
import math
import sys

import numpy as np

from learncurve import MeasurementSet, ToolkitError
from learncurve.artifacts import MEASUREMENT_HEADER, read_measurements

SETS = 1500
FILES = 400
DIGEST = "83005936226aaa9f53afd74bb2c5ffca414dc6b8a8fa67ee9048561fa14278b2"
TOP = int(sys.float_info.max)  # the largest sample count within the float range

# Entries that break a rule, by the field they replace (metric, n, replicate, value).
FAULTS = {
    0: ["", None],
    1: ["10", 10.0, None, True, False, np.int64(10), 0, -5, TOP + 1, 2**1100, -(2**70)],
    2: ["0", 1.5, None, True, False, np.int64(0), -1, -(2**70)],
    3: ["0.5", 1, None, True, False, -0.5, -1e-300, math.nan, math.inf, -math.inf, np.float64(math.nan)],
}


# The sample counts of the valid points start at one of these and step up (1) or down (-1).
BASES = [(1, 1), (10, 1), (10, 1), (2**70, 1), (TOP, -1)]


def _valid_rows(rng) -> list[tuple]:
    metrics = ["a", "b", "top1_error"][: int(rng.integers(1, 4))]
    base, step = BASES[int(rng.integers(len(BASES)))]
    sizes = sorted({base + step * int(x) for x in [0, *rng.integers(0, 10**6, size=int(rng.integers(0, 12)))]})
    rows = []
    for metric in metrics:
        for n in sizes:
            for r in range(int(rng.integers(1, 6))):
                value = [0.0, -0.0][int(rng.integers(2))] if rng.random() < 0.05 else float(rng.lognormal())
                rows.append((metric, n, r, np.float64(value) if rng.random() < 0.1 else value))
    return rows


def _broken_set(seed: int) -> list[tuple]:
    rng = np.random.default_rng([20261019, 14, seed])
    rows = _valid_rows(rng)
    for _ in range(int(rng.integers(1, 5))):
        at = int(rng.integers(len(rows)))
        if rng.random() < 0.25:  # a duplicate of another point's key
            metric, n, r, _ = rows[int(rng.integers(len(rows)))]
            rows.insert(at, (metric, n, r, float(rng.random())))
            continue
        row = list(rows[at])
        for field in rng.choice(4, size=int(rng.integers(1, 3)), replace=False).tolist():  # one or two rules
            row[field] = FAULTS[field][int(rng.integers(len(FAULTS[field])))]
        rows[at] = tuple(row)
    return [rows[i] for i in rng.permutation(len(rows)).tolist()]


def set_outcome(seed: int) -> str:
    try:
        ms = MeasurementSet(_broken_set(seed))
    except ToolkitError as exc:
        return f"{type(exc).__name__}|{exc}|{exc.index}"
    return f"ok|{len(ms)}"


# Text lines that break a CSV file, by kind of fault.
BAD_LINES = {
    "header": ["metric,n,replicate", "metric,n,replicate,value,extra", "Metric,n,replicate,value", ""],
    "width": ["m,10,0", "m,10,0,0.5,1", "m", "m,,,,"],
    "parse": ["m,1.5,0,0.5", "m,10,x,0.5", "m,10,0,abc", "m,,0,0.5", "m,10,0,"],
    "rule": ["m,0,0,0.5", "m,-3,0,0.5", "m,10,-1,0.5", "m,10,0,-0.5", "m,10,0,nan", "m,10,0,inf",
             ",10,0,0.5", "m," + str(2**1100) + ",0,0.5", "m,10,0,0.25"],
}


def _broken_file(seed: int) -> str:
    rng = np.random.default_rng([20261019, 15, seed])
    lines = [f"m,{n},{r},{float(rng.lognormal())!r}" for n in (10, 20, 40) for r in range(int(rng.integers(1, 4)))]
    lines = [lines[i] for i in rng.permutation(len(lines)).tolist()]
    for _ in range(int(rng.integers(0, 4))):
        lines.insert(int(rng.integers(len(lines) + 1)), "")
    kind = sorted(BAD_LINES)[seed % len(BAD_LINES)]
    bad = BAD_LINES[kind][int(rng.integers(len(BAD_LINES[kind])))]
    if kind == "header":
        return "\n".join([bad, *lines]) + "\n"
    lines.insert(int(rng.integers(len(lines) + 1)), bad)
    return "\n".join([MEASUREMENT_HEADER, *lines]) + "\n"


def file_outcome(seed: int, path) -> str:
    path.write_text(_broken_file(seed))
    try:
        ms = read_measurements(path)
    except ToolkitError as exc:
        return f"{type(exc).__name__}|{str(exc).replace(str(path), '<csv>')}"
    return f"ok|{len(ms)}"


def digest(tmp_path) -> str:
    h = hashlib.sha256()
    lines = [set_outcome(seed) for seed in range(SETS)]
    lines += [file_outcome(seed, tmp_path / "m.csv") for seed in range(FILES)]
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def test_every_refusal_is_unchanged(tmp_path):
    assert digest(tmp_path) == DIGEST

"""Number gate: every recorded number of the measurement pipeline, pinned by one digest.

Each of 400 seeded measurement sets mixes replicate counts per N, drops
points, may carry a second metric and sample counts above 2**63, and lists
its points in shuffled order; the set holds them in (metric, n, replicate)
order, so listing them in that order gives the same lines.  For every set
the test takes the CSV bytes and, per metric, ``aggregate``,
``group_means``, region detection (start, end and every diagnostic), both
fits and both bootstrap methods on and off the per-N means, each as
``float.hex`` or as its error (the costly nonlinear route runs one of its
four windows per set).  The sha256 of all of it must equal ``DIGEST``.
A change that moves a number on purpose bumps the artifact schema and
records the new digest here, in the open.

``PYTHONPATH=src python tests/test_number_gate.py OUT`` writes the lines
behind the digest to ``OUT``, one per line (its sha256 is the digest), so
the lines of two checkouts can be compared with ``diff``.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from learncurve import (
    MeasurementSet,
    ToolkitError,
    aggregate,
    bootstrap_ci,
    detect_power_law_region,
    fit_loglog,
    fit_nonlinear,
)
from learncurve.artifacts import measurements_to_csv
from learncurve.model import group_means, window

SETS = 400
DIGEST = "13fc5a4a1d74180dc14ea04e70dba6606b1f70d6b1d92e12f5f8de331796b318"


def _hex(x) -> str:
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(map(_hex, x)) + ")"
    if isinstance(x, dict):
        return "{" + ",".join(f"{_hex(k)}:{_hex(v)}" for k, v in x.items()) + "}"
    if dataclasses.is_dataclass(x):  # a fit or a region, field by field
        return _hex([getattr(x, f.name) for f in dataclasses.fields(x)])
    return repr(x)


def _outcome(fn, *args, **kwargs) -> str:
    try:
        result = fn(*args, **kwargs)
    except ToolkitError as exc:
        return f"{type(exc).__name__}: {exc}"
    return _hex(result)


def _grid(rng) -> list[int]:
    size = int(rng.integers(3, 11))
    kind = int(rng.integers(0, 4))
    if kind == 0:  # small counts
        return sorted(set(rng.integers(1, 200, size=size).tolist()))
    if kind == 1:  # a geometric grid
        return sorted({round(10.0 ** e) for e in np.linspace(1.5, rng.uniform(3, 6), size)})
    if kind == 2:  # counts above 2**63
        return sorted({2**63 + int(10.0 ** e) for e in np.linspace(12, rng.uniform(18.5, 20), size)})
    return sorted({int(10.0 ** e) * 7 for e in np.linspace(18, rng.uniform(19, 30), size)})  # far beyond int64


def _rows(rng, metric: str, grid: list[int]) -> list[tuple]:
    alpha = rng.uniform(-0.9, -0.1)
    plateau = rng.uniform(0.5, 2.0)
    spread = rng.choice([0.0, 0.02, 0.2])
    counts = rng.choice([1, 2, 3, 5, 8] if rng.random() < 0.3 else [3, 4, 5, 8, 9], size=len(grid))
    ids = rng.permutation(20)
    rows = []
    for k, (n, reps) in enumerate(zip(grid, counts.tolist())):
        mean = min(plateau * float(np.exp(alpha * (np.log(float(n)) - np.log(float(grid[0]))))), plateau * 0.9 if k else plateau)
        for r in ids[:reps].tolist():
            if rng.random() < 0.15:  # a dropped point, which leaves 2 or more of 3 and up
                continue
            value = max(mean * (1.0 + spread * rng.standard_normal()), 0.0 if rng.random() < 0.02 else 1e-9)
            rows.append((metric, n, r, value))
    return rows


def _set(seed: int, canonical: bool = False) -> MeasurementSet:
    """The set of ``seed``, its points listed shuffled, or in (metric, n, replicate) order."""
    rng = np.random.default_rng([20261019, seed])
    grid = _grid(rng)
    rows = _rows(rng, "a", grid)
    if rng.random() < 0.3:
        rows += _rows(rng, "b", grid if rng.random() < 0.5 else _grid(rng))
    rows = [rows[i] for i in rng.permutation(len(rows)).tolist()]
    return MeasurementSet(sorted(rows, key=lambda row: row[:3]) if canonical else rows)


def outcomes(seed: int, canonical: bool = False):
    """The lines one set contributes to the digest."""
    ms = _set(seed, canonical)
    yield hashlib.sha256(measurements_to_csv(ms).encode()).hexdigest()
    for metric in ms.metrics():
        sub = ms.only(metric)
        grid = sub.distinct_n()
        n_min = grid[1] if len(grid) > 2 else None
        yield _outcome(aggregate, sub)
        yield _outcome(lambda: group_means(window(sub)[1]).tolist())
        for plateau in (None, 0.95):
            yield _outcome(detect_power_law_region, sub, plateau, 0.9)
        for on_means in (True, False):
            for lo in (None, n_min):
                yield _outcome(fit_loglog, sub, lo, on_means=on_means)
            yield _outcome(bootstrap_ci, sub, "loglog", n_min, draws=6, seed=seed, on_means=on_means)
        # Gauss-Newton costs most, so each set runs it one way; the sets cover all four.
        on_means, lo = seed % 2 == 0, n_min if seed % 4 < 2 else None
        yield _outcome(fit_nonlinear, sub, lo, on_means=on_means)
        yield _outcome(bootstrap_ci, sub, "nonlinear", lo, draws=6, seed=seed, on_means=on_means)


def lines():
    """Every line of the digest, set by set."""
    for seed in range(SETS):
        yield from outcomes(seed)


def digest() -> str:
    h = hashlib.sha256()
    for line in lines():
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def test_every_recorded_number_is_unchanged():
    assert digest() == DIGEST


@pytest.mark.parametrize("seed", range(0, SETS, SETS // 50))
def test_listing_order_changes_no_number(seed):
    assert list(outcomes(seed)) == list(outcomes(seed, canonical=True))


if __name__ == "__main__":
    import sys

    with open(sys.argv[1], "w") as out:
        out.writelines(line + "\n" for line in lines())

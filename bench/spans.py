"""In-memory span recorder for the benchmark's traced runs.

A span wraps one call the benchmark makes into a public function of a
``learncurve`` module; nothing inside ``src/`` is instrumented.  Each span
keeps its name, start, end, parent span and operation id.  Spans and counts
stay in memory until the run ends, when :meth:`Recorder.dump` writes them
out as JSON lines and :func:`summarize` turns them into per-layer metrics.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable, NamedTuple

# Spans the workloads open.  Each yields ``<name>.ms`` (median self time per
# call) and ``<name>.calls`` (calls per operation).  ``cli.interpreter`` is
# reported as ``cli.interpreter_ms`` only: it is timed beside an operation,
# not inside one.
SPAN_LAYERS = (
    "model.synth_curve",
    "model.MeasurementSet",
    "model.aggregate",
    "fitting.fit_loglog",
    "fitting.fit_nonlinear",
    "fitting.fit_discrepancy",
    "fitting.bootstrap_loglog",
    "fitting.bootstrap_nonlinear",
    "fitting.detect_power_law_region",
    "planning",
    "manifest.build_nested_subsets",
    "manifest.inject_label_noise",
    "manifest.subset_ids",
    "manifest.restrict_to_size",
    "manifest.holdout_split",
    "artifacts.write_measurements",
    "artifacts.read_measurements",
    "artifacts.write_json",
    "artifacts.write_manifest",
    "artifacts.read_manifest",
    "svgplot.build_report",
    "cli.synth",
    "cli.fit",
    "cli.region",
    "cli.report",
    "cli.extrapolate",
    "cli.needed",
    "cli.intersect",
    "cli.noise-impact",
    "cli.manifest-build",
    "cli.manifest-noise",
    "cli.manifest-holdout",
)

# Work counted at the same boundaries, per operation, with its unit.
COUNTS = {
    "model.points": "count",
    "fitting.bootstrap_draws": "count",
    "fitting.gn_iterations": "count",
    "fitting.region_candidates": "count",
    "artifacts.csv_bytes": "bytes",
    "artifacts.manifest_bytes": "bytes",
    "manifest.records": "count",
    "manifest.flips": "count",
    "manifest.collisions_left": "count",
    "svgplot.svg_bytes": "bytes",
    "cli.numpy_imports": "count",
}

OP_SPAN = "op"
INTERPRETER_SPAN = "cli.interpreter"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run prints, mapped to its unit."""
    units: dict[str, str] = {}
    for name in SPAN_LAYERS:
        units[f"{name}.ms"] = "ms"
        units[f"{name}.calls"] = "count"
    units.update(COUNTS)
    units["cli.interpreter_ms"] = "ms"
    units["trace.overhead_pct"] = "%"
    return units


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None


class NullRecorder:
    """Stand-in used while tracing is off: records nothing, costs one call."""

    on = False

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, value: Callable[[], float]) -> None:
        pass


class Recorder:
    """Collects spans and counts in memory; ``op`` tags everything recorded."""

    on = True

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: list[tuple[int | None, str, float]] = []
        self.op: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.op)

    def count(self, name: str, value: Callable[[], float]) -> None:
        """Add ``value()`` to the named count of the current operation."""
        if name not in COUNTS:
            raise KeyError(f"undeclared count {name!r}")
        self.counts.append((self.op, name, float(value())))

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **s._asdict()}) + "\n")
            for op, name, value in self.counts:
                fh.write(json.dumps({"count": name, "op": op, "value": value}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def summarize(rec: Recorder, traced_ops: list[int], overhead_pct: float) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    Times are medians over every traced call.  Calls and counts are taken
    per operation from the first traced operation, whose inputs depend on
    the seed alone, so they repeat exactly from run to run.
    """
    spans = [s for s in rec.spans if s is not None]
    selfs = self_times(spans)
    first = traced_ops[0] if traced_ops else None
    by_name: dict[str, list[float]] = {}
    calls: dict[str, int] = {}
    for s, t in zip(spans, selfs):
        by_name.setdefault(s.name, []).append(t * 1e3)
        if s.op == first:
            calls[s.name] = calls.get(s.name, 0) + 1
    metrics: dict[str, float] = {}
    for name in SPAN_LAYERS:
        times = by_name.get(name)
        metrics[f"{name}.ms"] = statistics.median(times) if times else 0.0
        metrics[f"{name}.calls"] = float(calls.get(name, 0))
    totals = {name: 0.0 for name in COUNTS}
    for op, name, value in rec.counts:
        if op == first:
            totals[name] += value
    metrics.update(totals)
    interp = by_name.get(INTERPRETER_SPAN)
    metrics["cli.interpreter_ms"] = statistics.median(interp) if interp else 0.0
    metrics["trace.overhead_pct"] = overhead_pct
    return metrics

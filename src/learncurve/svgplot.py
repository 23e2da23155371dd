"""Self-contained SVG learning-curve reports.

Log-log axes, per-N mean markers, a +/- one-standard-deviation band,
dotted fitted lines over each fit's sample range, a color change of the
data curve at the detected region boundary, and a ring marker where two
fitted curves cross.  A sidecar CSV carries every plotted number.  The
output is a pure function of its inputs, so identical calls produce
identical bytes.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

from .artifacts import FitArtifact, format_float, write_files
from .curves import RegionSegmentation
from .errors import DataError, NumericError, ParallelCurvesError
from .model import MeasurementSet, aggregate
from .planning import predict_intersection

WIDTH, HEIGHT = 720, 480
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 72, 24, 28, 56

# (strong, muted) stroke pairs, cycled per metric.
PALETTE = [
    ("#1f77b4", "#aec7e8"),
    ("#d62728", "#ff9896"),
    ("#2ca02c", "#98df8a"),
    ("#9467bd", "#c5b0d5"),
    ("#8c564b", "#c49c94"),
]


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _log10_range(lo, hi) -> tuple[float, float]:
    """log10 of the axis range [lo, hi], widened to [lo / 2, hi * 2] where the logs coincide."""
    if not 0 < lo <= hi < math.inf:
        raise NumericError(f"floating-point {'overflow' if lo else 'underflow'}: "
                           f"the plot range [{lo!r}, {hi!r}] leaves the float range")
    log_lo, log_hi = math.log10(lo), math.log10(hi)
    return (log_lo, log_hi) if log_lo < log_hi else _log10_range(lo / 2, hi * 2)


class _LogLogFrame:
    """Maps (n, value) through log10 into pixel coordinates."""

    def __init__(self, x_lo, x_hi, y_lo, y_hi):
        self.x_lo, self.x_hi = _log10_range(x_lo, x_hi)
        self.y_lo, self.y_hi = _log10_range(y_lo, y_hi)
        self.plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
        self.plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def x(self, n: float) -> float:
        return MARGIN_LEFT + (math.log10(n) - self.x_lo) / (self.x_hi - self.x_lo) * self.plot_w

    def y(self, v: float) -> float:
        return MARGIN_TOP + (self.y_hi - math.log10(v)) / (self.y_hi - self.y_lo) * self.plot_h

    def x_decades(self) -> list[int]:
        return list(range(math.ceil(self.x_lo - 1e-9), math.floor(self.x_hi + 1e-9) + 1))

    def y_decades(self) -> list[int]:
        return list(range(math.ceil(self.y_lo - 1e-9), math.floor(self.y_hi + 1e-9) + 1))


def _polyline(points, cls, color, width=1.8, dash=None) -> str:
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<polyline class="{cls}" points="{coords}" fill="none" '
        f'stroke="{color}" stroke-width="{width}"{dash_attr}/>'
    )


def build_report(
    ms: MeasurementSet,
    fits: list[FitArtifact],
    region: RegionSegmentation | None = None,
) -> tuple[str, str]:
    """Render the SVG document and its sidecar CSV as strings."""
    if len(ms) == 0:
        raise DataError("nothing to plot: the measurement set is empty")
    metrics = ms.metrics()
    for art in fits:
        if art.metric not in metrics:
            raise DataError(
                f"fit references metric {art.metric!r} absent from the measurements {metrics}"
            )

    agg = {metric: aggregate(ms.only(metric)) for metric in metrics}

    # Axis ranges over everything drawn; band lower edges are clamped to a
    # tenth of the smallest positive value so log coordinates stay defined.
    xs = [row.n for rows in agg.values() for row in rows]
    ys = [row.mean for rows in agg.values() for row in rows if row.mean > 0]
    for art in fits:
        xs.extend(art.n_range)
        ys.extend(art.predict(n) for n in art.n_range)
    for rows in agg.values():
        ys.extend(row.mean + row.std for row in rows if row.mean + row.std > 0)
    if not ys:
        raise DataError("nothing to plot: no positive values")
    clamp = min(ys) / 10.0
    for rows in agg.values():
        ys.extend(max(row.mean - row.std, clamp) for row in rows)
    frame = _LogLogFrame(min(xs), max(xs), min(ys), max(ys))

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
    ]
    table = ["series,metric,n,value,std,count"]

    # Grid and tick labels on decade lines.
    x0, x1 = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    y0, y1 = MARGIN_TOP, HEIGHT - MARGIN_BOTTOM
    for e in frame.x_decades():
        px = frame.x(10.0**e)
        parts.append(
            f'<line class="grid" x1="{_fmt(px)}" y1="{y0}" x2="{_fmt(px)}" y2="{y1}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text class="tick" x="{_fmt(px)}" y="{y1 + 18}" font-size="12" '
            f'text-anchor="middle" fill="#333333">{10.0 ** e:g}</text>'
        )
    for e in frame.y_decades():
        py = frame.y(10.0**e)
        parts.append(
            f'<line class="grid" x1="{x0}" y1="{_fmt(py)}" x2="{x1}" y2="{_fmt(py)}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text class="tick" x="{x0 - 6}" y="{_fmt(py + 4)}" font-size="12" '
            f'text-anchor="end" fill="#333333">{10.0 ** e:g}</text>'
        )
    parts.append(
        f'<rect class="frame" x="{x0}" y="{y0}" width="{x1 - x0}" height="{y1 - y0}" '
        'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    parts.append(
        f'<text class="axis-label" x="{(x0 + x1) / 2}" y="{HEIGHT - 14}" font-size="13" '
        'text-anchor="middle" fill="#333333">training samples</text>'
    )
    parts.append(
        f'<text class="axis-label" x="16" y="{(y0 + y1) / 2}" font-size="13" '
        f'text-anchor="middle" fill="#333333" transform="rotate(-90 16 {(y0 + y1) / 2})">loss</text>'
    )

    for mi, metric in enumerate(metrics):
        strong, muted = PALETTE[mi % len(PALETTE)]
        rows = agg[metric]

        upper = [(frame.x(r.n), frame.y(max(r.mean + r.std, clamp))) for r in rows]
        lower = [(frame.x(r.n), frame.y(max(r.mean - r.std, clamp))) for r in rows]
        band = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in upper + lower[::-1])
        parts.append(
            f'<polygon class="band" points="{band}" fill="{muted}" fill-opacity="0.4" stroke="none"/>'
        )

        pts = [(frame.x(r.n), frame.y(max(r.mean, clamp))) for r in rows]
        if region is not None:
            boundary = region.n_start_power_law
            pre = [(p, r) for p, r in zip(pts, rows) if r.n <= boundary]
            post = [(p, r) for p, r in zip(pts, rows) if r.n >= boundary]
            if len(pre) >= 2:
                parts.append(_polyline([p for p, _ in pre], "series series-pre", muted))
            if len(post) >= 2:
                parts.append(_polyline([p for p, _ in post], "series series-power", strong))
        else:
            parts.append(_polyline(pts, "series", strong))

        for r, (px, py) in zip(rows, pts):
            parts.append(
                f'<circle class="marker" cx="{_fmt(px)}" cy="{_fmt(py)}" r="3" fill="{strong}"/>'
            )
            table.append(
                f"data,{metric},{r.n},{format_float(r.mean)},{format_float(r.std)},{r.count}"
            )

    for fi, art in enumerate(fits):
        strong, _ = PALETTE[metrics.index(art.metric) % len(PALETTE)]
        n_lo, n_hi = art.n_range
        pts = [(frame.x(n_lo), frame.y(art.predict(n_lo))), (frame.x(n_hi), frame.y(art.predict(n_hi)))]
        coords = f"M {_fmt(pts[0][0])} {_fmt(pts[0][1])} L {_fmt(pts[1][0])} {_fmt(pts[1][1])}"
        parts.append(
            f'<path class="fit" d="{coords}" fill="none" stroke="{strong}" '
            'stroke-width="1.6" stroke-dasharray="5 4"/>'
        )
        table.append(f"fit_{art.method}_{fi},{art.metric},{n_lo},{format_float(art.predict(n_lo))},,")
        table.append(f"fit_{art.method}_{fi},{art.metric},{n_hi},{format_float(art.predict(n_hi))},,")

    if region is not None:
        table.append(f"region_start,,{region.n_start_power_law},,,")
        if region.n_end_power_law is not None:
            table.append(f"region_end,,{region.n_end_power_law},,,")

    for mi, metric in enumerate(metrics):
        arts = [a for a in fits if a.metric == metric]
        for i in range(len(arts)):
            for j in range(i + 1, len(arts)):
                try:
                    crossing = predict_intersection(arts[i], arts[j])
                except (ParallelCurvesError, NumericError):  # no crossing, or one far beyond any plot
                    continue
                n_star = crossing.n_star
                if not min(xs) <= n_star <= max(xs):
                    continue
                v_star = arts[i].predict(n_star)
                parts.append(
                    f'<circle class="intersection" cx="{_fmt(frame.x(n_star))}" '
                    f'cy="{_fmt(frame.y(v_star))}" r="6" fill="none" '
                    'stroke="#000000" stroke-width="1.5"/>'
                )
                table.append(
                    f"intersection,{metric},{format_float(n_star)},{format_float(v_star)},,"
                )

    parts.append("</svg>")
    return "\n".join(parts) + "\n", "\n".join(table) + "\n"


def write_report(
    ms: MeasurementSet,
    fits: list[FitArtifact],
    region: RegionSegmentation | None,
    path: str | Path,
    inputs: tuple[str | Path, ...] = (),
) -> tuple[Path, Path]:
    """Write the SVG report and its sidecar table (``path`` with a ``.csv``
    suffix); neither may replace one of the ``inputs`` files.  Both contents
    are written in full before either target is replaced, so neither is ever
    truncated or half-written; but the two renames are separate, and a
    failure on the second leaves the new SVG next to the old sidecar."""
    svg, table = build_report(ms, fits, region)
    out = Path(path)
    sidecar = out.with_suffix(".csv")
    if sidecar == out:
        raise DataError(f"{out}: the report and its sidecar table would share this path")
    if any(target.exists() and os.path.samefile(target, p) for target in (out, sidecar) for p in inputs):
        raise DataError(f"{out}: the report or its sidecar {sidecar.name} would replace one of its inputs")
    write_files((out, svg), (sidecar, table))
    return out, sidecar

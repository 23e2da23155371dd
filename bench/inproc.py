"""The in-process workloads: ``paper``, ``grid`` and ``pool``.

Each workload object is built once per process.  Its constructor imports
the library and generates every operation's inputs from (seed, operation
index), so nothing is generated while the clock runs.  ``run`` performs one
operation and returns its outputs; ``check`` returns the problems found in
them (an empty list means the operation was correct).  Checks test
invariants and tolerances, never golden digests, so a declared numeric
change in the library does not read as a failure.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import learncurve as lc
from learncurve import artifacts, svgplot

from common import (
    ALPHA_TOL,
    METRIC,
    N_CLASSES,
    PAPER_SIZES,
    SIGMA,
    TRUE_ALPHA,
    close,
    derive,
    planning_problems,
    svg_problems,
)

# The nonlinear route weights the largest losses most and scatters about
# twice as widely as log-log (sd about 0.014 at paper scale), so its sanity
# band is wider; its optimality is checked through its rss instead.
NL_ALPHA_TOL = 0.15
R2_THRESHOLD = 0.98
PLATEAU_GUARD = 0.95  # detect_power_law_region's documented plateau rule


class CurveShape(NamedTuple):
    sizes: tuple[int, ...]
    replicates: int
    draws: int
    on_means: bool
    alpha: float
    n_knee: int  # where the power law equals 0.8 * plateau (paper: 0.5 at N=900)


def _geometric_grid(points: int, lo: int, hi: int) -> tuple[int, ...]:
    grid = sorted({round(lo * (hi / lo) ** (k / (points - 1))) for k in range(points)})
    if len(grid) != points:
        raise ValueError(f"{points} points do not fit between {lo} and {hi}")
    return tuple(grid)


# paper: the release-criteria scale, 7 sizes x 5 replicates, 1000 draws on means.
# grid: a dense grid where region detection and per-point work dominate.
CURVES = {
    "paper": {
        "full": CurveShape(PAPER_SIZES, 5, 1000, True, TRUE_ALPHA, 900),
        "tiny": CurveShape(PAPER_SIZES[:4], 5, 50, True, TRUE_ALPHA, 900),
    },
    "grid": {
        "full": CurveShape(_geometric_grid(200, 100, 100_000), 20, 50, False, -0.5, 300),
        "tiny": CurveShape(_geometric_grid(16, 100, 100_000), 6, 50, False, -0.5, 300),
    },
}


class CurvePipeline:
    """synth -> CSV -> region -> fits -> bootstrap -> planning -> JSON -> SVG."""

    def __init__(self, name: str, seed: int, scale: str, workdir: Path, n_ops: int):
        self.shape = shape = CURVES[name][scale]
        self.plateau = lc.random_guess_plateau(METRIC, N_CLASSES)
        if name == "paper":
            # The model of the release criteria: 0.5 at N=900, plateau 1.0.
            self.model = lc.ThreePhaseModel(
                alpha=shape.alpha, c=0.5 * shape.n_knee ** -shape.alpha, plateau=1.0
            )
        else:
            # Clamped at the random-guess level below roughly N=240, so region
            # detection has a plateau to find.
            self.model = lc.ThreePhaseModel(
                alpha=shape.alpha,
                c=0.8 * shape.n_knee ** -shape.alpha,
                plateau=self.plateau,
            )
        n_lo, n_hi = shape.sizes[0], shape.sizes[-1]
        # A shallower, "noisy-label" curve that meets the truth at the knee,
        # for predict_intersection and noise_impact.
        ref_alpha = 0.6 * shape.alpha
        ref_c = self.model.c * shape.n_knee ** (shape.alpha - ref_alpha)
        self.reference = lc.PowerLawFit(
            alpha=ref_alpha, c=ref_c, method="loglog", n_range=(n_lo, n_hi), rss=0.0, r_squared=1.0
        )
        self.at_n = 10 * n_hi
        self.targets = [self.model.c * float(n) ** shape.alpha for n in (n_hi, 2 * n_hi, 10 * n_hi)]
        self.workdir = workdir
        self.inputs = [(derive(seed, i, "synth"), derive(seed, i, "bootstrap")) for i in range(n_ops)]

    def run(self, i: int, rec) -> dict:
        shape = self.shape
        synth_seed, boot_seed = self.inputs[i]
        csv = self.workdir / "curve.csv"
        with rec.span("model.synth_curve"):
            ms = lc.synth_curve(self.model, shape.sizes, shape.replicates, SIGMA, synth_seed, metric=METRIC)
        rec.count("model.points", lambda: len(ms))
        with rec.span("artifacts.write_measurements"):
            artifacts.write_measurements(ms, csv)
        rec.count("artifacts.csv_bytes", lambda: csv.stat().st_size)
        with rec.span("artifacts.read_measurements"):
            loaded = artifacts.read_measurements(csv)
        with rec.span("model.MeasurementSet"):
            sub = loaded.only(METRIC)
        with rec.span("model.aggregate"):
            rows = lc.aggregate(sub)
        with rec.span("fitting.detect_power_law_region"):
            region = lc.detect_power_law_region(sub, plateau=self.plateau, r2_threshold=R2_THRESHOLD)
        rec.count("fitting.region_candidates", lambda: len(region.diagnostics))

        n_min, on_means = region.n_start_power_law, shape.on_means
        with rec.span("fitting.fit_loglog"):
            ll = lc.fit_loglog(sub, n_min, on_means=on_means)
        with rec.span("fitting.fit_nonlinear"):
            nl = lc.fit_nonlinear(sub, n_min, on_means=on_means)
        rec.count("fitting.gn_iterations", lambda: nl.iterations)
        with rec.span("fitting.fit_discrepancy"):
            disc = lc.fit_discrepancy(ll, nl)
        with rec.span("fitting.bootstrap_loglog"):
            bll = lc.bootstrap_ci(sub, "loglog", n_min, draws=shape.draws, seed=boot_seed, on_means=on_means)
        with rec.span("fitting.bootstrap_nonlinear"):
            bnl = lc.bootstrap_ci(sub, "nonlinear", n_min, draws=shape.draws, seed=boot_seed, on_means=on_means)
        rec.count("fitting.bootstrap_draws", lambda: 2 * shape.draws)

        with rec.span("planning"):
            pred = lc.extrapolate(bll, self.at_n)
        with rec.span("planning"):
            needed = lc.required_sample_size(bll, self.targets[-1])
        with rec.span("planning"):
            crossing = lc.predict_intersection(bll, self.reference)
        with rec.span("planning"):
            impact = lc.noise_impact(bll, self.reference, self.targets)

        digest = artifacts.sha256_path(csv)
        params = {"n_min": n_min, "on_means": on_means, "draws": shape.draws, "seed": boot_seed}
        paths = {k: self.workdir / f"{k}.json" for k in ("bll", "bnl", "region", "impact")}
        with rec.span("artifacts.write_json"):
            art = artifacts.FitArtifact.from_fit(bll, METRIC, digest, params)
            artifacts.write_json(art.to_dict(), paths["bll"])
        with rec.span("artifacts.write_json"):
            artifacts.write_json(
                artifacts.FitArtifact.from_fit(bnl, METRIC, digest, params).to_dict(), paths["bnl"]
            )
        with rec.span("artifacts.write_json"):
            artifacts.write_json(
                artifacts.region_to_dict(region, METRIC, digest, {"plateau": self.plateau}), paths["region"]
            )
        with rec.span("artifacts.write_json"):
            artifacts.write_json(
                artifacts.noise_impact_to_dict(impact, digest, "reference", {"targets": self.targets}),
                paths["impact"],
            )
        with rec.span("svgplot.build_report"):
            svg, _table = svgplot.build_report(sub, [art], region)
        rec.count("svgplot.svg_bytes", lambda: len(svg.encode("utf-8")))
        return {
            "ms": ms, "loaded": loaded, "rows": rows, "region": region, "ll": ll, "nl": nl,
            "disc": disc, "bll": bll, "bnl": bnl, "pred": pred, "needed": needed,
            "crossing": crossing, "impact": impact, "paths": paths, "svg": svg,
        }

    def check(self, i: int, out: dict) -> list[str]:
        shape, p = self.shape, []
        if out["loaded"].points != out["ms"].points:
            p.append("CSV round trip changed the measurements")
        rows = out["rows"]
        if [r.n for r in rows] != list(shape.sizes) or any(r.count != shape.replicates for r in rows):
            p.append("aggregate rows do not match the grid and replicate count")

        region, grid = out["region"], list(shape.sizes)
        mean_at = {r.n: r.mean for r in rows}
        start, diag = region.n_start_power_law, region.diagnostics

        def passes(n):
            r2 = diag.get(n)
            return r2 is not None and r2 >= R2_THRESHOLD and mean_at[n] < PLATEAU_GUARD * self.plateau

        if sorted(diag) != grid[:-1]:
            p.append("region diagnostics do not cover every candidate start")
        elif start not in diag or not passes(start) or any(passes(n) for n in grid if n < start):
            p.append(f"region start {start} is not the first candidate meeting the rule")

        for key, tol in (("ll", ALPHA_TOL), ("nl", NL_ALPHA_TOL)):
            if not abs(out[key].alpha - shape.alpha) <= tol:
                p.append(f"{key} alpha {out[key].alpha} is more than {tol} from {shape.alpha}")
        for key, base in (("bll", "ll"), ("bnl", "nl")):
            fit = out[key]
            if fit.alpha != out[base].alpha:
                p.append(f"{key} point estimate differs from {base}")
            if fit.ci_alpha is None or not fit.ci_alpha[0] <= fit.alpha <= fit.ci_alpha[1]:
                p.append(f"{key} CI {fit.ci_alpha} is unordered or misses the estimate {fit.alpha}")
        ll, nl = out["ll"], out["nl"]
        # Gauss-Newton starts at the log-log fit and accepts only descending
        # steps, so on the original scale it can never fit worse.
        if shape.on_means:
            xy = [(r.n, r.mean) for r in rows if r.n >= start]
        else:
            xy = [(pt.n, pt.value) for pt in out["loaded"] if pt.n >= start]
        rss = lambda fit: math.fsum((y - fit.predict(n)) ** 2 for n, y in xy)
        if not close(nl.rss, rss(nl), 1e-6) or nl.rss > rss(ll) * (1 + 1e-9):
            p.append(f"nonlinear rss {nl.rss} is wrong or above the log-log start {rss(ll)}")
        if not close(out["disc"].alpha, abs(ll.alpha - nl.alpha) / abs(ll.alpha)):
            p.append("fit_discrepancy disagrees with the two fits")

        bll, ref = out["bll"], self.reference
        pred = out["pred"]
        p += planning_problems(bll.alpha, bll.c, bll.n_range[1], self.at_n, pred.value,
                               pred.extrapolated, self.targets[-1], out["needed"])
        n_star = out["crossing"].n_star
        if not close(bll.predict(n_star), ref.predict(n_star), 1e-6):
            p.append(f"the curves do not meet at the predicted crossing {n_star}")
        if out["crossing"].superior.alpha != min(bll.alpha, ref.alpha):
            p.append("predict_intersection named the shallower curve superior")
        impact = out["impact"]
        if not close(impact.delta_alpha, ref.alpha - bll.alpha, 1e-12):
            p.append("noise_impact delta_alpha is not the exponent difference")
        for target, mult in impact.multipliers:
            want = (target / ref.c) ** (1 / ref.alpha) / (target / bll.c) ** (1 / bll.alpha)
            if not close(mult, want):
                p.append(f"noise_impact multiplier at {target} is {mult}, closed form {want}")

        paths = out["paths"]
        for key in ("bll", "bnl"):
            if artifacts.load_fit_artifact(paths[key]).fit() != out[key]:
                p.append(f"{key} fit artifact does not load back to the same fit")
        if artifacts.region_from_dict(artifacts.load_json(paths["region"])) != region:
            p.append("region artifact does not load back to the same region")
        p += svg_problems(out["svg"], len(shape.sizes))
        return p


class PoolShape(NamedTuple):
    per_class: int
    sizes: tuple[int, ...]
    holdout_size: int


# 9 classes x 10 000 images, the paper's pool and the release-criteria sizes.
POOLS = {
    "full": PoolShape(10_000, (90, 900, 9000, 45_000, 90_000), 9000),
    "tiny": PoolShape(100, (9, 90, 450, 900), 90),
}
NOISE_P = 0.05
HOLDOUT_FRACTION = 0.2
# One class puts this share of its images in a single capture group, so the
# interleaving repair has real conflicts to resolve.
DOMINANT_SHARE = 0.55
# Flip counts are binomial.  A 3-sigma band would flag about 0.27% of
# correct operations at random; 5 sigma flags about 6e-7 while a
# systematically wrong flip rate (off by 1 in 20) still lands far outside.
FLIP_SIGMAS = 5.0


class Pool:
    """build -> noise -> subset ids -> restrict -> holdout -> JSON dump and load."""

    def __init__(self, name: str, seed: int, scale: str, workdir: Path, n_ops: int):
        self.shape = shape = POOLS[scale]
        rnd = random.Random(derive(seed, 0, "pool"))
        dominant = rnd.randrange(N_CLASSES)
        group_count = max(shape.per_class // 5, 1)
        images = []
        for c in range(N_CLASSES):
            crowded = set()
            if c == dominant:
                crowded = set(rnd.sample(range(shape.per_class), int(DOMINANT_SHARE * shape.per_class)))
            for j in range(shape.per_class):
                group = "big" if j in crowded else str(rnd.randrange(group_count))
                images.append((f"img_{c}_{j:05d}", f"class{c}", f"g{c}_{group}"))
        self.images = images
        self.path = workdir / "manifest.json"
        self.inputs = [
            (derive(seed, i, "build"), derive(seed, i, "noise"), derive(seed, i, "holdout"))
            for i in range(n_ops)
        ]

    def run(self, i: int, rec) -> dict:
        shape = self.shape
        build_seed, noise_seed, holdout_seed = self.inputs[i]
        with rec.span("manifest.build_nested_subsets"):
            m = lc.build_nested_subsets(self.images, shape.sizes, build_seed)
        rec.count("manifest.collisions_left", lambda: sum(m.diagnostics.values()))
        with rec.span("manifest.inject_label_noise"):
            noisy = lc.inject_label_noise(m, NOISE_P, noise_seed)
        rec.count("manifest.records", lambda: len(noisy.records))
        rec.count("manifest.flips", lambda: sum(r.noise_flag for r in noisy.records))
        ids, subs = {}, {}
        for s in shape.sizes:
            with rec.span("manifest.subset_ids"):
                ids[s] = noisy.subset_ids(s)
        for s in shape.sizes:
            with rec.span("manifest.restrict_to_size"):
                subs[s] = lc.restrict_to_size(noisy, s)
        with rec.span("manifest.holdout_split"):
            split = lc.holdout_split(noisy, shape.holdout_size, HOLDOUT_FRACTION, holdout_seed)
        with rec.span("artifacts.write_manifest"):
            artifacts.write_manifest(noisy, self.path)
        rec.count("artifacts.manifest_bytes", lambda: self.path.stat().st_size)
        with rec.span("artifacts.read_manifest"):
            loaded = artifacts.read_manifest(self.path)
        return {"m": m, "noisy": noisy, "ids": ids, "subs": subs, "split": split, "loaded": loaded}

    def check(self, i: int, out: dict) -> list[str]:
        shape, p = self.shape, []
        m, noisy, ids, subs = out["m"], out["noisy"], out["ids"], out["subs"]
        total = N_CLASSES * shape.per_class
        if len(m.records) != total or len(noisy.records) != total:
            p.append(f"manifest holds {len(noisy.records)} records, expected {total}")
        for small, large in zip(shape.sizes, shape.sizes[1:]):
            if not ids[small] < ids[large]:
                p.append(f"subset {small} is not strictly contained in subset {large}")
        for s in shape.sizes:
            recs = subs[s].records
            per_class = Counter(r.true_label for r in recs)
            if len(recs) != s or len(per_class) != N_CLASSES or set(per_class.values()) != {s // N_CLASSES}:
                p.append(f"subset {s} is not class-balanced")
            if {r.image_id for r in recs} != ids[s]:
                p.append(f"restrict_to_size({s}) and subset_ids({s}) disagree")

        key = lambda r: (r.image_id, r.true_label, r.class_rank)
        if sorted(map(key, m.records)) != sorted(map(key, noisy.records)):
            p.append("label noise changed identities, true labels or ranks")
        flips = sum(r.noise_flag for r in noisy.records)
        expected, sd = total * NOISE_P, math.sqrt(total * NOISE_P * (1 - NOISE_P))
        if abs(flips - expected) > FLIP_SIGMAS * sd:
            p.append(f"{flips} flips, expected {expected:.0f} +/- {FLIP_SIGMAS:g} x {sd:.1f}")

        train, val = out["split"]
        size = shape.holdout_size
        if set(train) & set(val):
            p.append("holdout train and validation overlap")
        if len(val) != round(HOLDOUT_FRACTION * size) or set(train) | set(val) != ids[size]:
            p.append("holdout split does not partition its subset at the requested size")
        label = {r.image_id: r.true_label for r in subs[size].records}
        per_class = Counter(label[v] for v in val if v in label)
        if len(per_class) == N_CLASSES and max(per_class.values()) - min(per_class.values()) > 1:
            p.append("holdout validation part is not spread evenly over the classes")
        if out["loaded"] != noisy:
            p.append("manifest read back differs from the manifest written")
        return p


WORKLOADS = {"paper": CurvePipeline, "grid": CurvePipeline, "pool": Pool}

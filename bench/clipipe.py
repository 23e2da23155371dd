"""The ``cli`` workload: one operation is one subprocess pipeline.

synth (twice) -> fit (twice) -> region -> report -> extrapolate -> needed
-> intersect -> noise-impact -> manifest build -> noise -> holdout, then
``fit`` once more to confirm that a repeated command gives the same bytes.
Every command is a fresh ``python -m learncurve.cli`` against the
checkout's ``src/``, so interpreter start and imports are part of each
operation, as they are for a user.  This module uses the standard library
only: the workload process itself never imports numpy.
"""

from __future__ import annotations

import json
import random
import re
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

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
    scrub_created_at,
    svg_problems,
)

NOISY_ALPHA = -0.45
KNEE = 900  # both synthetic curves pass through 0.5 here
EXTRAPOLATE_N = 900_000
TARGET = 0.05
IMPACT_TARGETS = "0.2,0.1,0.05"
POOL_PER_CLASS = 60
POOL_GROUPS = 4
POOL_SIZES = (90, 270, 540)
HOLDOUT_SIZE = 270
HOLDOUT_FRACTION = 0.2
STEP_TIMEOUT_S = 60
# `-X importtime` prints one line per module; this one marks numpy itself.
NUMPY_LINE = re.compile(r"\|\s*numpy\s*$", re.MULTILINE)


class Step(NamedTuple):
    name: str
    argv: list[str]


class Result(NamedTuple):
    name: str
    code: int
    stdout: str
    stderr_tail: str


def _steps(seeds: dict[str, int]) -> list[Step]:
    sizes = ",".join(map(str, PAPER_SIZES))

    def synth(alpha: float, seed: int, out: str) -> Step:
        return Step("synth", [
            "synth", "--alpha", repr(alpha), "--c", repr(0.5 * KNEE ** -alpha), "--plateau", "1.0",
            "--sizes", sizes, "--replicates", "5", "--sigma", repr(SIGMA), "--seed", str(seed),
            "--metric", METRIC, "--out", out,
        ])

    def fit(inp: str, out: str) -> Step:
        return Step("fit", ["fit", "--input", inp, "--metric", METRIC, "--method", "loglog", "--out", out])

    return [
        synth(TRUE_ALPHA, seeds["clean"], "clean.csv"),
        synth(NOISY_ALPHA, seeds["noisy"], "noisy.csv"),
        fit("clean.csv", "clean.json"),
        fit("noisy.csv", "noisy.json"),
        Step("region", ["region", "--input", "clean.csv", "--metric", METRIC,
                        "--classes", str(N_CLASSES), "--out", "region.json"]),
        Step("report", ["report", "--input", "clean.csv", "--fits", "clean.json",
                        "--region", "region.json", "--out", "plot.svg"]),
        Step("extrapolate", ["extrapolate", "--fit", "clean.json", "--n", str(EXTRAPOLATE_N)]),
        Step("needed", ["needed", "--fit", "clean.json", "--target", repr(TARGET)]),
        Step("intersect", ["intersect", "--fit-a", "clean.json", "--fit-b", "noisy.json"]),
        Step("noise-impact", ["noise-impact", "--clean", "clean.json", "--noisy", "noisy.json",
                              "--targets", IMPACT_TARGETS]),
        Step("manifest-build", ["manifest", "build", "--images", "images.csv",
                                "--sizes", ",".join(map(str, POOL_SIZES)),
                                "--seed", str(seeds["build"]), "--out", "m.json"]),
        Step("manifest-noise", ["manifest", "noise", "--in", "m.json", "--p", "0.1",
                                "--seed", str(seeds["noise"]), "--out", "m_noisy.json"]),
        Step("manifest-holdout", ["manifest", "holdout", "--in", "m.json", "--size", str(HOLDOUT_SIZE),
                                  "--fraction", repr(HOLDOUT_FRACTION),
                                  "--seed", str(seeds["holdout"]), "--out", "split.json"]),
        fit("clean.csv", "clean_again.json"),
    ]


class Cli:
    """The pipeline has one size; ``scale`` is accepted for a uniform interface.

    The image pool comes from the seed alone, like the ``pool`` workload's;
    each operation's seeds come from (seed, operation index).  Operations
    share one directory: each one's outputs are checked before the next
    operation overwrites them.
    """

    def __init__(self, name: str, seed: int, scale: str, workdir: Path, n_ops: int, env: dict):
        self.env = env
        self.dir = workdir
        rnd = random.Random(derive(seed, 0, "images"))
        rows = ["image_id,class,capture_group"]
        rows += [f"i{c}_{j:03d},c{c},g{rnd.randrange(POOL_GROUPS)}"
                 for c in range(N_CLASSES) for j in range(POOL_PER_CLASS)]
        (workdir / "images.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        labels = ("clean", "noisy", "build", "noise", "holdout")
        self.inputs = [_steps({k: derive(seed, i, k) for k in labels}) for i in range(n_ops)]

    def _call(self, argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *argv], cwd=cwd, env=self.env, capture_output=True,
                              text=True, timeout=STEP_TIMEOUT_S)

    def warm_up(self) -> None:
        """Byte-compile the package once, as an installed package would be."""
        self._call(["-m", "learncurve.cli", "--version"], self.dir).check_returncode()

    def probe(self, rec) -> None:
        """Time a bare interpreter start, beside the traced operation."""
        with rec.span("cli.interpreter"):
            self._call(["-c", "pass"], Path.cwd()).check_returncode()

    def run(self, i: int, rec) -> list[Result]:
        flags = ["-X", "importtime"] if rec.on else []
        results, numpy_steps = [], set()
        for step in self.inputs[i]:
            with rec.span("cli." + step.name):
                proc = self._call([*flags, "-m", "learncurve.cli", *step.argv], self.dir)
            if rec.on and NUMPY_LINE.search(proc.stderr):
                numpy_steps.add(step.name)
            tail = proc.stderr.strip().splitlines()[-1:] if proc.returncode else []
            results.append(Result(step.name, proc.returncode, proc.stdout, "".join(tail)))
            if proc.returncode:
                break  # later steps read this one's output
        rec.count("cli.numpy_imports", lambda: len(numpy_steps))
        return results

    def check(self, i: int, out: list[Result]) -> list[str]:
        failed = [f"{r.name} exited {r.code}: {r.stderr_tail}" for r in out if r.code]
        if failed or len(out) != len(self.inputs[i]):
            return failed or ["pipeline stopped early"]
        p = []
        stdout = {r.name: r.stdout for r in out}
        read = lambda name: (self.dir / name).read_text(encoding="utf-8")
        p += svg_problems(read("plot.svg"), len(PAPER_SIZES))
        if scrub_created_at(read("clean.json")) != scrub_created_at(read("clean_again.json")):
            p.append("repeating fit gave different bytes outside created_at")

        clean, noisy = json.loads(read("clean.json")), json.loads(read("noisy.json"))
        a, c = clean["alpha"], clean["c"]
        if not abs(a - TRUE_ALPHA) <= ALPHA_TOL:
            p.append(f"fit alpha {a} is more than {ALPHA_TOL} from {TRUE_ALPHA}")
        if json.loads(read("region.json"))["n_start_power_law"] not in PAPER_SIZES:
            p.append("region start is not a grid point")

        pred = re.search(r"N=(\d+): (\S+) \((\w+)\)", stdout["extrapolate"])
        need = re.search(r": (\d+)$", stdout["needed"].strip())
        if not pred or not need:
            p.append("extrapolate or needed printed an unexpected line")
        else:
            p += planning_problems(a, c, clean["n_range"][1], int(pred[1]), float(pred[2]),
                                   pred[3] == "extrapolation", TARGET, int(need[1]))
        cross = re.search(r"N\* = (\S+)\nlower loss beyond N\*: (\S+)", stdout["intersect"])
        if not cross:
            p.append("intersect printed an unexpected answer")
        else:
            n_star = float(cross[1])
            if not close(c * n_star ** a, noisy["c"] * n_star ** noisy["alpha"], 1e-6):
                p.append(f"the fitted curves do not meet at N* = {n_star}")
            steeper = "clean.json" if a < noisy["alpha"] else "noisy.json"
            if cross[2] != steeper:
                p.append(f"intersect named {cross[2]}, the steeper curve is {steeper}")
        impact = json.loads(stdout["noise-impact"])
        if not close(impact["delta_alpha"], noisy["alpha"] - a, 1e-12):
            p.append("noise-impact delta_alpha is not the exponent difference")

        manifest = json.loads(read("m.json"))
        noised = json.loads(read("m_noisy.json"))["records"]
        if len(manifest["records"]) != N_CLASSES * POOL_PER_CLASS or len(noised) != len(manifest["records"]):
            p.append("manifest build or noise lost records")
        if any(r["noise_flag"] != (r["assigned_label"] != r["true_label"]) for r in noised):
            p.append("manifest noise flags disagree with the labels")
        split = json.loads(read("split.json"))
        depth = HOLDOUT_SIZE // N_CLASSES
        subset = {r["image_id"] for r in manifest["records"] if r["class_rank"] < depth}
        train, val = set(split["train"]), set(split["validation"])
        if train & val or train | val != subset or len(val) != round(HOLDOUT_FRACTION * HOLDOUT_SIZE):
            p.append("holdout split does not partition its subset at the requested size")
        return p

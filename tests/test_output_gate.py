"""Output gate: every byte the command line writes, pinned by one digest.

A fixed, seeded battery runs every command in process, at tiny scale:
``synth``; ``fit`` with each ``--method``, on and off the per-N means;
``region`` with and without ``--classes``; ``extrapolate``, ``needed``,
``intersect`` and ``noise-impact``; ``manifest build``, ``noise`` and
``holdout``; ``report``; and one ``fit`` at paper scale (7 sizes x 5
replicates).  A few refusals close it.  Each step runs in one working
directory with relative paths, and contributes its exit code, its stdout
and its stderr.  Then every file written contributes its name and the
sha256 of its bytes.  ``created_at`` is blanked through
``artifacts.CREATED_AT`` in files and stdout alike.  The sha256 of all of it must equal ``DIGEST``.
A change that moves an output byte on purpose records the new digest here,
in the open, and names the files whose bytes moved:
``python tests/test_output_gate.py OUT`` writes the lines one per line, so
two checkouts can be compared with ``diff``.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from learncurve import artifacts
from learncurve.cli import main

DIGEST = "ae368c1841de92204800dbcbaaca05a1b0cc8c8bb606ce9e2b4243996b460dc6"

SYNTH = ["synth", "--replicates", "3", "--sigma", "0.05", "--metric", "top1_error"]
TINY = "100,200,400,800,1600,3200,6400"
STEPS = [
    # Two noisy curves that leave a 0.5 plateau (two classes) at N = 300 and 400.
    SYNTH + ["--alpha", "-0.5", "--c", str(0.5 * 300**0.5), "--plateau", "0.5", "--sizes", TINY,
             "--seed", "7", "--out", "a.csv"],
    SYNTH + ["--alpha", "-0.3", "--c", str(0.5 * 400**0.3), "--plateau", "0.5", "--floor", "0.01",
             "--sizes", TINY, "--seed", "8", "--out", "b.csv"],
    *(
        ["fit", "--input", csv, "--metric", "top1_error", "--n-min", "400", "--method", method,
         "--on-means", on_means, "--out", f"{csv[0]}_{method}_{on_means}.json"]
        for csv in ("a.csv", "b.csv")
        for method in ("loglog", "nonlinear", "both")
        for on_means in ("true", "false")
    ),
    ["region", "--input", "a.csv", "--metric", "top1_error", "--r2", "0.9", "--out", "region.json"],
    ["region", "--input", "a.csv", "--metric", "top1_error", "--classes", "2", "--out", "region_2.json"],
    ["extrapolate", "--fit", "a_loglog_false.json", "--n", "100000"],
    ["extrapolate", "--fit", "a_nonlinear_true.json", "--n", "1000"],
    ["needed", "--fit", "a_nonlinear_false.json", "--target", "0.05"],
    ["intersect", "--fit-a", "a_nonlinear_false.json", "--fit-b", "b_nonlinear_false.json"],
    ["intersect", "--fit-a", "a_loglog_true.json", "--fit-b", "b_loglog_true.json"],
    ["noise-impact", "--clean", "a_nonlinear_false.json", "--noisy", "b_nonlinear_false.json",
     "--targets", "0.1,0.05", "--out", "impact.json"],
    ["noise-impact", "--clean", "a_loglog_true.json", "--noisy", "b_loglog_false.json", "--targets", "0.08"],
    ["manifest", "build", "--images", "images.csv", "--sizes", "6,12,30", "--seed", "11", "--out", "m.json"],
    ["manifest", "noise", "--in", "m.json", "--p", "0.3", "--seed", "3", "--out", "m_noisy.json"],
    ["manifest", "holdout", "--in", "m_noisy.json", "--size", "30", "--seed", "5", "--out", "holdout.json"],
    ["manifest", "holdout", "--in", "m.json", "--size", "12", "--fraction", "0.5", "--seed", "5"],
    ["report", "--input", "a.csv", "--fits", "a_loglog_false.json,a_nonlinear_false.json",
     "--region", "region_2.json", "--out", "report.svg"],
    ["report", "--input", "b.csv", "--out", "report_b.svg"],
    # Paper scale: 7 sizes x 5 replicates.
    ["synth", "--alpha", "-0.62", "--c", str(0.5 * 900**0.62), "--plateau", "1.0", "--sizes",
     "900,1800,3600,9000,22500,45000,90000", "--replicates", "5", "--sigma", "0.05", "--seed", "11",
     "--metric", "top1_error", "--out", "paper.csv"],
    ["fit", "--input", "paper.csv", "--metric", "top1_error", "--out", "paper_fit.json"],
    # Refusals.
    ["fit", "--input", "missing.csv", "--metric", "top1_error", "--out", "x.json"],
    ["fit", "--input", "a.csv", "--metric", "cross_entropy", "--out", "x.json"],
    ["fit", "--input", "a.csv", "--metric", "top1_error", "--method", "huber", "--out", "x.json"],
    ["region", "--input", "flat.csv", "--metric", "m", "--out", "x.json"],
    ["region", "--input", "a.csv", "--metric", "top1_error", "--r2", "1.5", "--out", "x.json"],
    ["needed", "--fit", "a_loglog_true.json", "--target", "-1"],
    ["manifest", "build", "--images", "images.csv", "--sizes", "6,12,3000", "--seed", "1", "--out", "x.json"],
]


def lines(directory: Path) -> list[str]:
    """Run the battery in ``directory`` (the working directory): one line per step, then
    one per file written."""
    (directory / "images.csv").write_text(
        "image_id,class,capture_group\n"
        + "".join(f"img_{k}_{i:03d},class{k},g{i % 4}\n" for k in range(3) for i in range(40))
    )
    (directory / "flat.csv").write_text(
        "metric,n,replicate,value\n" + "".join(f"m,{n},0,0.5\n" for n in range(10, 60, 10))
    )
    out = []
    for argv in STEPS:
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(argv)
        shown = artifacts.CREATED_AT.sub(b"", stdout.getvalue().encode()).decode()
        out.append(f"{' '.join(argv)} -> {code} {shown!r} {stderr.getvalue()!r}")
    for path in sorted(directory.iterdir()):
        data = artifacts.CREATED_AT.sub(b"", path.read_bytes())
        out.append(f"{path.name} {hashlib.sha256(data).hexdigest()}")
    return out


def test_every_output_byte_is_unchanged(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage lines to the terminal width
    h = hashlib.sha256()
    for line in lines(tmp_path):
        h.update(line.encode())
        h.update(b"\n")
    assert h.hexdigest() == DIGEST


if __name__ == "__main__":
    import os
    import sys
    import tempfile

    target, home = Path(sys.argv[1]).resolve(), os.getcwd()
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        text = "".join(line + "\n" for line in lines(Path(directory)))
        os.chdir(home)
    target.write_text(text)

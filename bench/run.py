"""learncurve benchmark: one command, four workloads, checked outputs.

Run from the root of a learncurve checkout:

    python3 bench/run.py --workload {paper,grid,pool,cli} --seed N --seconds S --trace {0,1}

Each invocation runs one workload in fresh worker processes (see
``worker.py``) against the checkout's ``src/``.  The loop is closed, with
one client on one thread, and every operation's output is checked.

``--trace 0`` measures the end-to-end metrics with tracing off.  ``setup_s``
is the median over several fresh processes, each importing, generating its
inputs and warming up.  ``--trace 1`` traces every other operation from
outside the library and prints the per-layer metrics instead, plus the
tracing overhead against the untraced operations of the same run.

Human-readable lines come first, including ``failed_frac`` and the run's
metadata; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Raw results and
spans are kept under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import per_layer_units  # noqa: E402

WORKLOADS = ("paper", "grid", "pool", "cli")
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
SETUP_SAMPLES = 9
# The tail percentile wants at least this many operations beyond it.
TAIL_BEYOND = 10
# Every run must end well inside three minutes.
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    pass


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def call_worker(root: Path, env: dict, argv: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a worker could start")
    # Its own process group, so a timeout also stops the worker's children.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s budget") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tail(latencies_ms: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, samples beyond it) at the run's tail percentile.

    The percentile is the highest with at least TAIL_BEYOND samples beyond
    it, but never below p90: a run with fewer than 100 operations reports
    p90 and says how few samples lie beyond.  Linear interpolation between
    order statistics keeps the value continuous as the count changes.
    """
    ordered = sorted(latencies_ms)
    n = len(ordered)
    pct = max(90.0, 100.0 * (1.0 - TAIL_BEYOND / n))
    h = (n - 1) * pct / 100.0
    lo = int(h)
    hi = min(lo + 1, n - 1)
    value = ordered[lo] + (h - lo) * (ordered[hi] - ordered[lo])
    return value, pct, sum(1 for x in ordered if x > value)


def metadata(root: Path) -> dict:
    src = sorted((root / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src:
        data = path.read_bytes()
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "threads_pinned": {var: "1" for var in THREAD_VARS},
    }


def measure(args, root: Path) -> tuple[dict, dict, dict]:
    """Run the workers; return (metrics, details for the report, raw worker result)."""
    deadline = time.monotonic() + DEADLINE_S
    env = worker_env(root)
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--scale", args.scale]
    setups = []
    try:
        if not args.trace:
            for k in range(SETUP_SAMPLES - 1):
                argv = common + ["--workdir", str(work / f"setup{k}"), "--setup-only"]
                setups.append(call_worker(root, env, argv, deadline)["setup_s"])
        argv = common + ["--trace", str(args.trace), "--workdir", str(work / "run"),
                         "--spans", str(out_dir / f"{args.workload}-seed{args.seed}-spans.jsonl")]
        res = call_worker(root, env, argv, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(res["setup_s"])

    lat_ms = [s * 1e3 for s in res["latencies_s"]]
    if args.trace:
        units = per_layer_units()
        metrics = {name: {"value": res["layers"][name], "unit": unit} for name, unit in units.items()}
        return metrics, {"ops": len(lat_ms) + len(res["traced_latencies_s"])}, res
    tail_ms, tail_pct, beyond = tail(lat_ms)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat_ms) / sum(res["latencies_s"]),
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    details = {
        "ops": len(lat_ms),
        "busy_s": sum(res["latencies_s"]),
        "tail_pct": tail_pct,
        "tail_beyond": beyond,
        "setup_samples": setups,
    }
    return metrics, details, res


def report(args, metrics: dict, details: dict, res: dict, meta: dict) -> None:
    attempted, failed = res["attempted"], res["failed"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}"
          f"  scale {args.scale}  closed loop, 1 client")
    notes = {}
    if not args.trace:
        notes = {
            "setup_s": f"median of {len(details['setup_samples'])} fresh set-ups",
            "ops_per_s": f"{details['ops']} ops in {details['busy_s']:.2f} s",
            "op_p50_ms": f"of {details['ops']} ops",
            "op_tail_ms": f"p{details['tail_pct']:.1f} of {details['ops']} ops, "
                          f"{details['tail_beyond']} beyond it",
            "peak_rss_mb": "largest child process" if args.workload == "cli" else "workload process",
        }
    for name, m in metrics.items():
        if args.trace and m["value"] == 0:
            continue  # layers this workload leaves idle
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']:6s} {notes.get(name, '')}")
    if args.trace:
        print("  (per-layer metrics that read 0 are omitted above; the JSON line has them all)")
    print(f"  {'failed_frac':40s} {failed / attempted:14.6g} {'ratio':6s} {failed} of {attempted} ops failed")
    if res.get("inputs_exhausted"):
        print("  note: every pre-generated input was used before the time ran out")
    print("meta " + json.dumps(meta, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input shape; used by the self-check")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    root = Path.cwd()
    if not (root / "src" / "learncurve" / "__init__.py").is_file():
        print("error: run from the root of a learncurve checkout (src/learncurve is missing)",
              file=sys.stderr)
        return 2
    try:
        metrics, details, res = measure(args, root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    meta = metadata(root)
    report(args, metrics, details, res, meta)
    result = {
        "correct": res["failed"] == 0 and res["attempted"] >= 1,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (root / ".bench_out" / name).write_text(
        json.dumps({"result": result, "details": details, "meta": meta, "raw": res}, indent=1) + "\n",
        encoding="utf-8",
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload process: set up, run the closed loop, report as JSON.

Started by ``run.py``, never by hand.  The set-up clock starts at the first
statement below, before the library is imported.  The loop is closed: one
client on one thread sends the next operation only after the previous one
has completed and been checked.  Checks run outside the timed region.  The
last line of standard output is one JSON object.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

# Fastest operation each workload could plausibly reach; sizes the pool of
# pre-generated inputs so a much faster library never runs out of them.
MIN_OP_S = {"paper": 0.005, "grid": 0.01, "pool": 0.05, "cli": 0.5}
MAX_PROBLEMS_SHOWN = 5


def build(args, workdir: Path):
    n_ops = math.ceil(args.seconds / MIN_OP_S[args.workload]) + 2
    if args.workload == "cli":
        from clipipe import Cli

        return Cli(args.workload, args.seed, args.scale, workdir, n_ops, dict(os.environ))
    from inproc import WORKLOADS

    wl = WORKLOADS[args.workload](args.workload, args.seed, args.scale, workdir, n_ops)
    # Warm-up at tiny scale: loads what the first call loads lazily.
    warm_dir = workdir / "warm-up"
    warm_dir.mkdir()
    warm = WORKLOADS[args.workload](args.workload, args.seed, "tiny", warm_dir, 1)
    warm.check(0, warm.run(0, spans.NullRecorder()))
    return wl


def loop(wl, args) -> dict:
    """Run operations until ``--seconds`` have passed; trace every other one."""
    null = spans.NullRecorder()
    rec = spans.Recorder() if args.trace else None
    min_ops = 2 if args.trace else 1
    plain_s, traced_s, traced_ops = [], [], []
    failed = shown = 0
    start = time.perf_counter()
    i = 0
    while i < len(wl.inputs) and (i < min_ops or time.perf_counter() - start < args.seconds):
        traced = args.trace and i % 2 == 1
        out = None
        if traced:
            rec.op = i
            traced_ops.append(i)
            if hasattr(wl, "probe"):
                wl.probe(rec)
        t = time.perf_counter()
        try:
            if traced:
                with rec.span(spans.OP_SPAN):
                    out = wl.run(i, rec)
            else:
                out = wl.run(i, null)
            dt = time.perf_counter() - t
            problems = wl.check(i, out)
        except Exception as exc:  # a failed operation is counted, not fatal
            dt = time.perf_counter() - t
            problems = [f"{type(exc).__name__}: {exc}"]
        out = None
        if rec is not None:
            rec.op = None
        (traced_s if traced else plain_s).append(dt)
        if problems:
            failed += 1
            for problem in problems:
                if shown < MAX_PROBLEMS_SHOWN:
                    print(f"{args.workload} op {i}: {problem}", file=sys.stderr)
                    shown += 1
        i += 1

    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    result = {
        "attempted": i,
        "failed": failed,
        "latencies_s": plain_s,
        "traced_latencies_s": traced_s,
        "inputs_exhausted": i == len(wl.inputs),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    if rec is not None:
        overhead = 100.0 * (statistics.median(traced_s) / statistics.median(plain_s) - 1.0)
        result["layers"] = spans.summarize(rec, traced_ops, overhead)
        rec.dump(args.spans)
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(MIN_OP_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    args.workdir.mkdir(parents=True)
    wl = build(args, args.workdir)
    setup_s = time.perf_counter() - T0
    result = {"setup_s": setup_s}
    if not args.setup_only:
        if hasattr(wl, "warm_up"):
            wl.warm_up()
        result.update(loop(wl, args))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

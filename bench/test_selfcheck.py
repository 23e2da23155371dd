"""Fast self-check of the benchmark at tiny input sizes.

Run from the repository root:

    python3 -m pytest -q bench/test_selfcheck.py

It checks that every metric named in BENCHMARK.json is printed with its
unit, that the output checks accept correct results and reject wrong ones,
and that the command refuses to run outside a learncurve checkout.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spans  # noqa: E402
from run import tail  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, cwd=ROOT, seconds=1):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "5", "--seconds", str(seconds),
           "--trace", str(trace)]
    if cwd == ROOT:
        cmd += ["--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert "failed_frac" in proc.stdout and "op_tail_ms" in proc.stdout


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("paper", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_tail_percentile():
    value, pct, beyond = tail([float(i) for i in range(1, 201)])
    assert pct == 95.0 and beyond == 10 and 190.0 < value < 191.0
    assert tail([float(i) for i in range(1, 11)]) == (pytest.approx(9.1), 90.0, 1)


def test_self_time_subtracts_children():
    rec = spans.Recorder()
    rec.spans = [
        spans.Span("op", 0.0, 10.0, None, 1),
        spans.Span("a", 1.0, 4.0, 0, 1),
        spans.Span("b", 3.0, 6.0, 0, 1),
        spans.Span("c", 7.0, 8.0, 0, 1),
    ]
    assert spans.self_times(rec.spans) == [4.0, 3.0, 3.0, 1.0]
    metrics = spans.summarize(rec, [1], 0.0)
    assert metrics.keys() == spans.per_layer_units().keys()


def fresh(workload, tmp_path):
    import inproc

    wl = inproc.WORKLOADS[workload](workload, 7, "tiny", tmp_path, 1)
    out = wl.run(0, spans.NullRecorder())
    assert wl.check(0, out) == []
    return wl, out


def test_curve_checks_reject_wrong_results(tmp_path):
    wl, out = fresh("paper", tmp_path)
    wrong = [
        ("ll", dataclasses.replace(out["ll"], alpha=out["ll"].alpha + 0.1)),
        ("bll", dataclasses.replace(out["bll"], ci_alpha=(0.0, 0.1))),
        ("nl", dataclasses.replace(out["nl"], rss=out["nl"].rss * 2 + 1.0)),
        ("needed", out["needed"] + 1),
        ("svg", out["svg"].replace('class="marker"', 'class="dot"', 1)),
        ("loaded", type(out["loaded"])(out["loaded"].points[1:])),
    ]
    for key, value in wrong:
        assert wl.check(0, {**out, key: value}), key


def test_pool_checks_reject_wrong_results(tmp_path):
    wl, out = fresh("pool", tmp_path)
    noisy = out["noisy"]
    sizes = wl.shape.sizes
    train, val = out["split"]
    wrong = [
        ("ids", {**out["ids"], sizes[0]: out["ids"][sizes[1]]}),
        ("split", (train + val[:1], val)),
        ("loaded", out["m"]),
        ("noisy", dataclasses.replace(noisy, records=tuple(
            dataclasses.replace(r, assigned_label=r.true_label, noise_flag=False) for r in noisy.records))),
    ]
    for key, value in wrong:
        assert wl.check(0, {**out, key: value}), key


def test_cli_checks_reject_wrong_results(tmp_path):
    from clipipe import Cli, Result

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    wl = Cli("cli", 7, "tiny", tmp_path, 1, env)
    out = wl.run(0, spans.NullRecorder())
    assert wl.check(0, out) == []
    d = wl.dir

    failed = [out[0]._replace(code=3)] + out[1:]
    assert wl.check(0, failed)
    assert wl.check(0, [r._replace(stdout="") if r.name == "needed" else r for r in out])
    assert wl.check(0, [Result(r.name, r.code, r.stdout.replace("clean.json", "noisy.json"), "")
                        if r.name == "intersect" else r for r in out])
    again = json.loads((d / "clean_again.json").read_text())
    again["rss"] += 1.0
    (d / "clean_again.json").write_text(json.dumps(again))
    assert any("repeating fit" in p for p in wl.check(0, out))
    (d / "plot.svg").write_text("<svg")
    assert any("SVG" in p for p in wl.check(0, out))

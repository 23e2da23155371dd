"""End-to-end tests of the command-line interface."""

import collections
import contextlib
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from learncurve import artifacts, fit_loglog
from learncurve.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def synth_args(out, sigma="0", metric="top1_error", seed="7"):
    return [
        "synth",
        "--alpha", "-0.62",
        "--c", str(0.5 * 900**0.62),
        "--plateau", "1.0",
        "--floor", "0.0",
        "--sizes", "900,1800,3600,9000,22500,45000,90000",
        "--replicates", "5",
        "--sigma", sigma,
        "--seed", seed,
        "--metric", metric,
        "--out", str(out),
    ]


@pytest.fixture
def clean_csv(tmp_path, capsys):
    path = tmp_path / "data.csv"
    code = main(synth_args(path))
    capsys.readouterr()
    assert code == 0
    return path


class TestPipelines:
    def test_synth_then_fit_recovers_parameters(self, tmp_path, capsys, clean_csv):
        fit_path = tmp_path / "fit.json"
        code, _, _ = run(
            capsys, "fit", "--input", str(clean_csv), "--metric", "top1_error",
            "--method", "loglog", "--out", str(fit_path),
        )
        assert code == 0
        art = json.loads(fit_path.read_text())
        assert art["kind"] == "fit"
        assert abs(art["alpha"] - (-0.62)) < 1e-9
        assert art["input_digest"]
        assert art["params"]["method"] == "loglog"

    def test_method_both_reports_discrepancy(self, tmp_path, capsys):
        noisy = tmp_path / "noisy.csv"
        assert main(synth_args(noisy, sigma="0.05")) == 0
        out = tmp_path / "pair.json"
        code, _, _ = run(
            capsys, "fit", "--input", str(noisy), "--metric", "top1_error",
            "--method", "both", "--out", str(out),
        )
        assert code == 0
        pair = json.loads(out.read_text())
        assert pair["kind"] == "fit_pair"
        a, b = pair["loglog"]["alpha"], pair["nonlinear"]["alpha"]
        assert pair["discrepancy"]["alpha"] == pytest.approx(abs(a - b) / abs(a), rel=1e-12)
        # The pair carries the same envelope as the fits inside it.
        assert pair["schema_version"] == artifacts.SCHEMA_VERSION and pair["tool_version"] and pair["created_at"]
        assert pair["input_digest"] == pair["loglog"]["input_digest"] == artifacts.sha256_path(noisy)
        assert pair["params"] == pair["nonlinear"]["params"]
        assert pair["params"]["method"] == "both"

    @pytest.mark.parametrize("on_means", ["true", "false"])
    def test_fit_does_not_depend_on_the_row_order(self, tmp_path, capsys, on_means):
        sorted_csv, shuffled_csv = tmp_path / "sorted.csv", tmp_path / "shuffled.csv"
        assert main(synth_args(sorted_csv, sigma="0.2")) == 0
        header, *rows = sorted_csv.read_text().splitlines()
        random.Random(1).shuffle(rows)
        shuffled_csv.write_text("\n".join([header, *rows, ""]))
        arts = []
        for path in (sorted_csv, shuffled_csv):
            out = tmp_path / f"{path.stem}.json"
            code, _, _ = run(capsys, "fit", "--input", str(path), "--metric", "top1_error", "--method", "both",
                             "--on-means", on_means, "--out", str(out))
            assert code == 0
            arts.append(art := json.loads(out.read_text()))
            for doc in (art, art["loglog"], art["nonlinear"]):  # the digest names the file's bytes
                assert doc.pop("input_digest") == artifacts.sha256_path(path)
                del doc["created_at"]
        assert arts[0] == arts[1]

    def test_region_command(self, tmp_path, capsys, clean_csv):
        out = tmp_path / "region.json"
        code, _, _ = run(
            capsys, "region", "--input", str(clean_csv), "--metric", "top1_error",
            "--classes", "9", "--out", str(out),
        )
        assert code == 0
        region = json.loads(out.read_text())
        assert region["kind"] == "region"
        assert region["n_start_power_law"] == 900
        assert region["params"]["plateau"] == pytest.approx(1 - 1 / 9)

    def test_extrapolate_marks_extrapolation(self, tmp_path, capsys, clean_csv):
        fit_path = tmp_path / "fit.json"
        run(capsys, "fit", "--input", str(clean_csv), "--metric", "top1_error",
            "--method", "loglog", "--out", str(fit_path))
        code, out, _ = run(capsys, "extrapolate", "--fit", str(fit_path), "--n", "900000")
        assert code == 0
        assert "(extrapolation)" in out
        code, out, _ = run(capsys, "extrapolate", "--fit", str(fit_path), "--n", "9000")
        assert "(interpolation)" in out

    def test_needed_inverts_extrapolate(self, tmp_path, capsys, clean_csv):
        fit_path = tmp_path / "fit.json"
        run(capsys, "fit", "--input", str(clean_csv), "--metric", "top1_error",
            "--method", "loglog", "--out", str(fit_path))
        code, out, _ = run(capsys, "needed", "--fit", str(fit_path), "--target", "0.05")
        assert code == 0
        needed = int(out.strip().rsplit(" ", 1)[-1])
        art = json.loads(fit_path.read_text())
        assert art["c"] * needed ** art["alpha"] <= 0.05 * (1 + 1e-9)

    def test_intersect_names_the_better_file(self, tmp_path, capsys, clean_csv):
        fit_a = tmp_path / "a.json"
        run(capsys, "fit", "--input", str(clean_csv), "--metric", "top1_error",
            "--method", "loglog", "--out", str(fit_a))
        shallow = tmp_path / "shallow.csv"
        args = synth_args(shallow)
        args[2] = "-0.31"  # --alpha value: shallower curve, same L(900) anchor
        args[4] = str(0.5 * 900**0.31)
        assert main(args) == 0
        fit_b = tmp_path / "b.json"
        run(capsys, "fit", "--input", str(shallow), "--metric", "top1_error",
            "--method", "loglog", "--out", str(fit_b))
        code, out, _ = run(capsys, "intersect", "--fit-a", str(fit_a), "--fit-b", str(fit_b))
        assert code == 0
        assert "N* = " in out
        assert str(fit_a) in out.splitlines()[1]  # steeper curve wins beyond N*

    def test_noise_impact_json(self, tmp_path, capsys, clean_csv):
        fit_a = tmp_path / "a.json"
        run(capsys, "fit", "--input", str(clean_csv), "--metric", "top1_error",
            "--method", "loglog", "--out", str(fit_a))
        noisy_curve = tmp_path / "n.csv"
        args = synth_args(noisy_curve)
        args[2] = "-0.378"  # --alpha: shallower curve, re-anchored at L(900) = 0.5
        args[4] = str(0.5 * 900**0.378)
        assert main(args) == 0
        capsys.readouterr()
        fit_b = tmp_path / "b.json"
        run(capsys, "fit", "--input", str(noisy_curve), "--metric", "top1_error",
            "--method", "loglog", "--out", str(fit_b))
        code, out, _ = run(
            capsys, "noise-impact", "--clean", str(fit_a), "--noisy", str(fit_b),
            "--targets", "0.2,0.1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["delta_alpha"] == pytest.approx(0.242, abs=1e-9)
        assert len(payload["multipliers"]) == 2

    def test_report_pipeline(self, tmp_path, capsys, clean_csv):
        fit_path = tmp_path / "fit.json"
        region_path = tmp_path / "region.json"
        run(capsys, "fit", "--input", str(clean_csv), "--metric", "top1_error",
            "--method", "loglog", "--out", str(fit_path))
        run(capsys, "region", "--input", str(clean_csv), "--metric", "top1_error",
            "--classes", "9", "--out", str(region_path))
        svg_path = tmp_path / "plot.svg"
        code, _, _ = run(
            capsys, "report", "--input", str(clean_csv), "--fits", str(fit_path),
            "--region", str(region_path), "--out", str(svg_path),
        )
        assert code == 0
        root = ET.fromstring(svg_path.read_text())
        assert root.tag.endswith("svg")
        assert (tmp_path / "plot.csv").exists()

    def test_schema_1_fit_file_still_extrapolates_and_reports(self, tmp_path, capsys, clean_csv):
        # As schema 1 wrote a bootstrapped fit: no draws_failed key.
        fit_path = tmp_path / "fit.json"
        fit_path.write_text(json.dumps({
            "kind": "fit", "schema_version": 1, "tool_version": "0.1.0",
            "created_at": "2026-01-01T00:00:00+00:00", "params": {}, "input_digest": "0" * 64,
            "metric": "top1_error", "method": "loglog", "alpha": -0.62, "c": 0.5 * 900**0.62,
            "n_range": [900, 90000], "rss": 0.0, "r_squared": 1.0, "ci_alpha": [-0.64, -0.6],
            "iterations": None,
        }))
        code, out, err = run(capsys, "extrapolate", "--fit", str(fit_path), "--n", "900000")
        assert (code, err) == (0, "")
        assert "(extrapolation)" in out
        svg_path = tmp_path / "plot.svg"
        code, _, err = run(capsys, "report", "--input", str(clean_csv), "--fits", str(fit_path),
                           "--out", str(svg_path))
        assert (code, err) == (0, "")
        ET.fromstring(svg_path.read_text())


class TestManifestCommands:
    @pytest.fixture
    def images_csv(self, tmp_path):
        path = tmp_path / "images.csv"
        lines = ["image_id,class,capture_group"]
        for ci in range(3):
            for i in range(40):
                lines.append(f"img_{ci}_{i:03d},class{ci},g{i % 4}")
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_build_noise_holdout(self, tmp_path, capsys, images_csv):
        manifest_path = tmp_path / "m.json"
        code, _, _ = run(
            capsys, "manifest", "build", "--images", str(images_csv),
            "--sizes", "6,12,30", "--seed", "11", "--out", str(manifest_path),
        )
        assert code == 0
        doc = json.loads(manifest_path.read_text())
        assert doc["kind"] == "manifest"
        assert len(doc["records"]) == 120
        assert doc["input_digest"]  # provenance of the images file

        noisy_path = tmp_path / "noisy.json"
        code, out, _ = run(
            capsys, "manifest", "noise", "--in", str(manifest_path), "--p", "0.5",
            "--seed", "3", "--out", str(noisy_path),
        )
        assert code == 0
        assert "flipped" in out
        noisy = json.loads(noisy_path.read_text())
        flips = [r for r in noisy["records"] if r["noise_flag"]]
        assert flips and all(r["assigned_label"] != r["true_label"] for r in flips)

        code, out, _ = run(
            capsys, "manifest", "holdout", "--in", str(manifest_path), "--size", "30",
            "--fraction", "0.2", "--seed", "3",
        )
        assert code == 0
        split = json.loads(out)
        assert len(split["validation"]) == 6
        assert len(split["train"]) == 24
        assert not set(split["train"]) & set(split["validation"])

    def test_manifest_outputs_echo_their_parameters(self, tmp_path, capsys, images_csv):
        manifest_path, noisy_path = tmp_path / "m.json", tmp_path / "noisy.json"
        assert main(["manifest", "build", "--images", str(images_csv), "--sizes", "6,30",
                     "--seed", "11", "--out", str(manifest_path)]) == 0
        assert main(["manifest", "noise", "--in", str(manifest_path), "--p", "0.25",
                     "--seed", "3", "--out", str(noisy_path)]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "manifest", "holdout", "--in", str(noisy_path), "--size", "30",
                           "--fraction", "0.2", "--seed", "4")
        assert code == 0
        built, noisy, split = json.loads(manifest_path.read_text()), json.loads(noisy_path.read_text()), json.loads(out)
        assert built["params"] == {}
        assert (built["sizes"], built["seed"]) == ([6, 30], 11)
        assert noisy["params"] == {"p": 0.25, "seed": 3}
        assert split["params"] == {"size": 30, "fraction": 0.2, "seed": 4}
        for doc in (built, noisy, split):
            assert doc["schema_version"] == artifacts.SCHEMA_VERSION and doc["tool_version"] and doc["created_at"]

    def test_derived_outputs_ignore_when_their_input_was_built(self, tmp_path, capsys, images_csv, monkeypatch):
        outputs = []
        for day in ("01", "02"):
            monkeypatch.setattr(artifacts, "utc_now", lambda: f"2026-01-{day}T00:00:00+00:00")
            base = tmp_path / day
            base.mkdir()
            assert main(["manifest", "build", "--images", str(images_csv), "--sizes", "6,30",
                         "--seed", "11", "--out", str(base / "m.json")]) == 0
            assert main(["manifest", "noise", "--in", str(base / "m.json"), "--p", "0.2",
                         "--seed", "3", "--out", str(base / "noisy.json")]) == 0
            assert main(["manifest", "holdout", "--in", str(base / "m.json"), "--size", "30",
                         "--seed", "4", "--out", str(base / "split.json")]) == 0
            outputs.append({name: json.loads((base / name).read_text()) for name in ("noisy.json", "split.json")})
        capsys.readouterr()
        for name in ("noisy.json", "split.json"):
            first, second = (dict(o[name], created_at=None) for o in outputs)
            assert first == second, name


def test_each_input_is_read_once_and_digested_as_parsed(tmp_path, capsys, monkeypatch):
    d = tmp_path
    (d / "images.csv").write_text("image_id,class,capture_group\n" + "".join(f"i{i},c{i % 2},g{i % 3}\n" for i in range(12)))
    for argv in (
        synth_args(d / "d.csv", sigma="0.05"),
        ["fit", "--input", str(d / "d.csv"), "--metric", "top1_error", "--method", "loglog", "--out", str(d / "fit.json")],
        ["manifest", "build", "--images", str(d / "images.csv"), "--sizes", "2,4", "--seed", "1", "--out", str(d / "m.json")],
    ):
        assert main(argv) == 0
    # The command, and where its output records the digest of each input.
    commands = [
        (["fit", "--input", str(d / "d.csv"), "--metric", "top1_error", "--out", str(d / "pair.json")],
         "pair.json", {"input_digest": "d.csv"}),
        (["region", "--input", str(d / "d.csv"), "--metric", "top1_error", "--r2", "0.5", "--out", str(d / "region.json")],
         "region.json", {"input_digest": "d.csv"}),
        (["noise-impact", "--clean", str(d / "fit.json"), "--noisy", str(d / "fit2.json"),
          "--targets", "0.1", "--out", str(d / "impact.json")],
         "impact.json", {"clean_digest": "fit.json", "noisy_digest": "fit2.json"}),
        (["manifest", "build", "--images", str(d / "images.csv"), "--sizes", "2,4", "--seed", "1", "--out", str(d / "m2.json")],
         "m2.json", {"input_digest": "images.csv"}),
        (["manifest", "noise", "--in", str(d / "m.json"), "--p", "0.3", "--seed", "2", "--out", str(d / "noisy.json")],
         "noisy.json", {"input_digest": "m.json"}),
        (["manifest", "holdout", "--in", str(d / "m.json"), "--size", "4", "--seed", "3", "--out", str(d / "split.json")],
         "split.json", {"input_digest": "m.json"}),
    ]
    # A second fit, one steeper than the first.
    (d / "fit2.json").write_bytes((d / "fit.json").read_bytes().replace(b'"alpha": -', b'"alpha": -1'))
    reads = collections.Counter()
    read_bytes = Path.read_bytes

    def counted(path):
        reads[path.name] += 1
        return read_bytes(path)

    for argv, output, digests in commands:
        reads.clear()
        monkeypatch.setattr(Path, "read_bytes", counted)
        assert main(argv) == 0, argv
        monkeypatch.undo()
        assert reads == {name: 1 for name in digests.values()}, argv
        doc = json.loads((d / output).read_text())
        for key, name in digests.items():
            assert doc[key] == artifacts.sha256_path(d / name), (argv, key)
    capsys.readouterr()


class TestFailureModes:
    def test_missing_input_file_is_a_data_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "fit", "--input", str(tmp_path / "nope.csv"), "--metric", "x",
            "--out", str(tmp_path / "o.json"),
        )
        assert code == 3
        assert "error" in err

    def test_unknown_flag_is_a_usage_error(self, capsys):
        code, _, _ = run(capsys, "fit", "--frobnicate")
        assert code == 2

    @pytest.mark.parametrize("flag, value, expected",
                             [("--sizes", "1,x", "integers"), ("--targets", "0.1,x", "numbers")])
    def test_malformed_list_is_a_usage_error(self, tmp_path, capsys, flag, value, expected):
        argv = (synth_args(tmp_path / "d.csv") if flag == "--sizes" else
                ["noise-impact", "--clean", "c.json", "--noisy", "n.json", "--targets", "0.1"])
        argv[argv.index(flag) + 1] = value
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert f"expected comma-separated {expected}, got {value!r}" in err
        assert not (tmp_path / "d.csv").exists()

    def test_unknown_subcommand_is_a_usage_error(self, capsys):
        code, _, _ = run(capsys, "transmogrify")
        assert code == 2

    def test_unknown_metric_is_a_data_error(self, tmp_path, capsys, clean_csv):
        code, _, err = run(
            capsys, "fit", "--input", str(clean_csv), "--metric", "f1",
            "--out", str(tmp_path / "o.json"),
        )
        assert code == 3
        assert "f1" in err

    def test_constant_data_region_is_a_numeric_error(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        rows = ["metric,n,replicate,value"]
        rows += [f"m,{n},{r},0.5" for n in (10, 20, 40, 80) for r in range(2)]
        path.write_text("\n".join(rows) + "\n")
        code, _, err = run(
            capsys, "region", "--input", str(path), "--metric", "m",
            "--out", str(tmp_path / "r.json"),
        )
        assert code == 4
        assert not (tmp_path / "r.json").exists()  # no partial output

    def test_failed_fit_leaves_no_output(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("metric,n,replicate,value\nm,10,0,0.5\n")
        out = tmp_path / "fit.json"
        code, _, _ = run(capsys, "fit", "--input", str(path), "--metric", "m", "--out", str(out))
        assert code == 3
        assert not out.exists()

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_replicates_beyond_one_array_are_a_parameter_error(self, tmp_path, capsys):
        argv = synth_args(tmp_path / "d.csv")
        argv[argv.index("--replicates") + 1] = str(2**64)
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert err == f"error: replicates must be <= {sys.maxsize // 7}, got {2**64}\n"

    def test_out_of_memory_is_one_error_line(self, tmp_path):
        """10**11 replicates fit one array's index but not memory.  The CLI runs in a subprocess whose
        address space is capped at 2 GB, so the refused allocation never touches this process."""
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (2 * 1024**3, 2 * 1024**3))

        argv = synth_args(tmp_path / "d.csv")
        argv[argv.index("--replicates") + 1] = str(10**11)
        # One BLAS thread, so the cap limits the refused allocation and not the buffers numpy reserves on import.
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
               "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-m", "learncurve.cli", *argv], env=env, preexec_fn=cap,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("error: out of memory: Unable to allocate "), proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert not (tmp_path / "d.csv").exists()


class TestReproducibility:
    def scrub(self, text):
        doc = json.loads(text)

        def strip(node):
            if isinstance(node, dict):
                node.pop("created_at", None)
                for v in node.values():
                    strip(v)

        strip(doc)
        return json.dumps(doc, sort_keys=True)

    def test_every_command_is_reproducible(self, tmp_path, capsys):
        """Primary outputs are byte-identical across reruns (timestamps aside)."""
        first, second = tmp_path / "run1", tmp_path / "run2"
        for base in (first, second):
            base.mkdir()
            csv = base / "d.csv"
            assert main(synth_args(csv, sigma="0.05")) == 0
            assert main(["fit", "--input", str(csv), "--metric", "top1_error",
                         "--method", "both", "--out", str(base / "fit.json")]) == 0
            assert main(["fit", "--input", str(csv), "--metric", "top1_error",
                         "--method", "loglog", "--out", str(base / "ll.json")]) == 0
            assert main(["region", "--input", str(csv), "--metric", "top1_error",
                         "--classes", "9", "--out", str(base / "region.json")]) == 0
            assert main(["report", "--input", str(csv), "--fits", str(base / "ll.json"),
                         "--region", str(base / "region.json"), "--out", str(base / "plot.svg")]) == 0
            images = base / "images.csv"
            lines = ["image_id,class,capture_group"]
            lines += [f"i{c}_{i:02d},c{c}," for c in range(3) for i in range(20)]
            images.write_text("\n".join(lines) + "\n")
            assert main(["manifest", "build", "--images", str(images), "--sizes", "6,30",
                         "--seed", "5", "--out", str(base / "m.json")]) == 0
            assert main(["manifest", "noise", "--in", str(base / "m.json"), "--p", "0.1",
                         "--seed", "6", "--out", str(base / "noisy.json")]) == 0
            assert main(["manifest", "holdout", "--in", str(base / "m.json"), "--size", "30",
                         "--seed", "6", "--out", str(base / "split.json")]) == 0
        capsys.readouterr()

        assert (first / "d.csv").read_bytes() == (second / "d.csv").read_bytes()
        assert (first / "plot.svg").read_bytes() == (second / "plot.svg").read_bytes()
        assert (first / "plot.csv").read_bytes() == (second / "plot.csv").read_bytes()
        for name in ("fit.json", "ll.json", "region.json", "m.json", "noisy.json", "split.json"):
            assert self.scrub((first / name).read_text()) == self.scrub((second / name).read_text()), name


def _fit_file(tmp_path, **override):
    """A valid loglog fit artifact, with top-level keys replaced by ``override``."""
    csv, out = tmp_path / "fit_input.csv", tmp_path / "fit.json"
    assert main(synth_args(csv)) == 0
    assert main(["fit", "--input", str(csv), "--metric", "top1_error",
                 "--method", "loglog", "--out", str(out)]) == 0
    out.write_text(json.dumps({**json.loads(out.read_text()), **override}))
    return out


def _edited_manifest(tmp_path, edit):
    """A built manifest file whose JSON document ``edit`` has changed in place."""
    images, out = tmp_path / "images.csv", tmp_path / "m.json"
    images.write_text("image_id,class,capture_group\n" + "".join(f"i{i},c{i % 2},\n" for i in range(8)))
    assert main(["manifest", "build", "--images", str(images), "--sizes", "2,4",
                 "--seed", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    edit(doc)
    out.write_text(json.dumps(doc))
    return out


def _file(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return path


def _report_with_sidecar_dir(tmp_path):
    csv = tmp_path / "d.csv"
    assert main(synth_args(csv)) == 0
    (tmp_path / "plot.csv").mkdir()
    return ["report", "--input", str(csv), "--out", str(tmp_path / "plot.svg")]


def _overflow_fit(tmp_path, method):
    """Two sample counts so close that the fitted log c overflows exp()."""
    csv = _file(tmp_path, "close.csv", b"metric,n,replicate,value\nm,43277,0,1.6825\nm,43277,1,1.6825\n"
                                       b"m,43285,0,1.6475\nm,43285,1,1.6475\n")
    return ["fit", "--input", str(csv), "--metric", "m", "--method", method, "--out", str(tmp_path / "o.json")]


def _overflow_noise_impact(tmp_path):
    """Two fits so flat that the sample size for a target loss overflows."""
    clean = _fit_file(tmp_path, alpha=-1e-5, c=1.0).rename(tmp_path / "clean.json")
    noisy = _fit_file(tmp_path, alpha=-2e-5, c=1.0)
    return ["noise-impact", "--clean", str(clean), "--noisy", str(noisy), "--targets", "0.5"]


def _near_parallel_intersect(tmp_path, c_steep):
    """Exponents 3e-9 apart: the crossing is (c_steep / 1.0) ** 3.3e8, beyond the float range."""
    shallow = _fit_file(tmp_path, alpha=-0.5, c=1.0).rename(tmp_path / "shallow.json")
    steep = _fit_file(tmp_path, alpha=-0.5 - 3e-9, c=c_steep)
    return ["intersect", "--fit-a", str(shallow), "--fit-b", str(steep)]


# Two replicates each at N = 10, 100, 1000, 10000; the two at N = 10 sum past the float range.
PER_N_MEAN_OVERFLOW = (b"metric,n,replicate,value\nm,10,0,1.6e308\nm,10,1,1.6e308\nm,100,0,1\nm,100,1,1\n"
                       b"m,1000,0,0.5\nm,1000,1,0.5\nm,10000,0,0.2\nm,10000,1,0.2\n")


def _float_equal_fit(tmp_path, method):
    """Two sample counts that round to the same float."""
    csv = _file(tmp_path, "d.csv", b"metric,n,replicate,value\nm,9223372036854711808,0,0.5\n"
                                   b"m,9223372036854711809,0,0.4\n")
    return ["fit", "--input", str(csv), "--metric", "m", "--method", method, "--out", str(tmp_path / "o.json")]


def _fit_with_ci(tmp_path, ci):
    """A fit artifact whose ci_alpha is ``ci``, written as Python's json writes NaN and Infinity."""
    return _fit_file(tmp_path, ci_alpha=list(ci))


def _report_over_input(tmp_path):
    csv = tmp_path / "data.csv"
    assert main(synth_args(csv)) == 0
    return ["report", "--input", str(csv), "--out", str(tmp_path / "data.svg")]


# Each case builds its inputs in tmp_path and returns the failing command line.
BAD_INPUTS = {
    "fit-without-fields": lambda t: [
        "extrapolate", "--fit", str(_file(t, "f.json", b'{"kind":"fit"}')), "--n", "1000"],
    "input-is-a-directory": lambda t: [
        "fit", "--input", str(t), "--metric", "m", "--out", str(t / "o.json")],
    "in-is-a-directory": lambda t: [
        "manifest", "noise", "--in", str(t), "--p", "0.1", "--seed", "1", "--out", str(t / "o.json")],
    "out-is-a-directory": lambda t: synth_args(t),
    "region-is-a-list": lambda t: [
        "report", "--input", str(_file(t, "d.csv", b"metric,n,replicate,value\nm,10,0,0.5\n")),
        "--region", str(_file(t, "r.json", b"[1, 2]")), "--out", str(t / "p.svg")],
    "csv-not-utf8": lambda t: [
        "fit", "--input", str(_file(t, "d.csv", b"metric,n,replicate,value\nm\xff,10,0,0.5\n")),
        "--metric", "m", "--out", str(t / "o.json")],
    "alpha-not-a-number": lambda t: [
        "extrapolate", "--fit", str(_fit_file(t, alpha="abc")), "--n", "1000"],
    "n-range-not-a-pair": lambda t: [
        "extrapolate", "--fit", str(_fit_file(t, n_range=5)), "--n", "1000"],
    "record-without-class-rank": lambda t: [
        "manifest", "holdout", "--in", str(_edited_manifest(t, lambda doc: doc["records"][0].pop("class_rank"))),
        "--size", "4", "--seed", "1"],
    "manifest-seed-not-an-integer": lambda t: [
        "manifest", "holdout", "--in", str(_edited_manifest(t, lambda doc: doc.update(seed=5.7))),
        "--size", "4", "--seed", "1"],
    # Each of these four loaded once, cut down to an int or a bool.
    "manifest-rank-not-an-integer": lambda t: [
        "manifest", "holdout", "--in", str(_edited_manifest(t, lambda doc: doc["records"][0].update(class_rank=0.7))),
        "--size", "4", "--seed", "1"],
    "manifest-flag-not-a-bool": lambda t: [
        "manifest", "holdout", "--in", str(_edited_manifest(t, lambda doc: doc["records"][0].update(noise_flag=0))),
        "--size", "4", "--seed", "1"],
    "manifest-sizes-not-integers": lambda t: [
        "manifest", "holdout", "--in", str(_edited_manifest(t, lambda doc: doc.update(sizes=[2.9, 4]))),
        "--size", "4", "--seed", "1"],
    "manifest-pool-not-an-integer": lambda t: [
        "manifest", "holdout", "--in", str(_edited_manifest(t, lambda doc: doc.update(per_class_pool=4.5))),
        "--size", "4", "--seed", "1"],
    # These two once met a sign comparison before the integer rule.
    "manifest-rank-a-string": lambda t: [
        "manifest", "holdout", "--in", str(_edited_manifest(t, lambda doc: doc["records"][0].update(class_rank="0"))),
        "--size", "4", "--seed", "1"],
    "manifest-pool-a-string": lambda t: [
        "manifest", "holdout", "--in", str(_edited_manifest(t, lambda doc: doc.update(per_class_pool="4"))),
        "--size", "4", "--seed", "1"],
    "sidecar-is-a-directory": _report_with_sidecar_dir,
    # A non-UTF-8 command-line byte arrives as a lone surrogate.
    "metric-not-encodable": lambda t: synth_args(t / "d.csv", metric="m\udcff"),
    "csv-value-nan": lambda t: [
        "fit", "--input", str(_file(t, "d.csv", b"metric,n,replicate,value\nm,10,0,0.5\nm,20,0,nan\n")),
        "--metric", "m", "--out", str(t / "o.json")],
    "overflow-fit-loglog": lambda t: _overflow_fit(t, "loglog"),
    "overflow-fit-nonlinear": lambda t: _overflow_fit(t, "nonlinear"),
    "overflow-fit-both": lambda t: _overflow_fit(t, "both"),
    "overflow-extrapolate": lambda t: [
        "extrapolate", "--fit", str(_fit_file(t, alpha=200.0, c=1.0)), "--n", "1000000"],
    # N**alpha is in range; c times it is not.
    "overflow-extrapolate-product": lambda t: [
        "extrapolate", "--fit", str(_fit_file(t, alpha=0.2, c=1e300)), "--n", str(10**60)],
    "overflow-needed": lambda t: [
        "needed", "--fit", str(_fit_file(t, alpha=-1e-5, c=1.0)), "--target", "0.5"],
    "overflow-noise-impact": _overflow_noise_impact,
    "overflow-intersect": lambda t: _near_parallel_intersect(t, c_steep=2.0),
    "underflow-intersect": lambda t: _near_parallel_intersect(t, c_steep=0.5),
    "overflow-fit-nonlinear-near-the-float-range": lambda t: [
        "fit", "--input", str(_file(t, "d.csv", b"metric,n,replicate,value\nm,10,0,1e300\nm,100,0,1e-300\n"
                                                 b"m,1000,0,1e300\n")),
        "--metric", "m", "--method", "nonlinear", "--out", str(t / "o.json")],
    "non-finite-alpha": lambda t: [
        "extrapolate", "--fit", str(_fit_file(t, alpha=math.nan)), "--n", "100"],
    "non-finite-c-extrapolate": lambda t: [
        "extrapolate", "--fit", str(_fit_file(t, c=math.inf)), "--n", "100"],
    "non-finite-c-needed": lambda t: [
        "needed", "--fit", str(_fit_file(t, c=math.inf)), "--target", "0.1"],
    "non-finite-target": lambda t: [
        "needed", "--fit", str(_fit_file(t)), "--target", "nan"],
    "non-finite-targets": lambda t: [
        "noise-impact", "--clean", str(_fit_file(t)), "--noisy", str(_fit_file(t)), "--targets", "nan"],
    "non-finite-r2": lambda t: [
        "region", "--input", str(_file(t, "d.csv", b"metric,n,replicate,value\nm,10,0,0.5\nm,20,0,0.4\n"
                                                   b"m,40,0,0.3\nm,80,0,0.2\n")),
        "--metric", "m", "--r2", "nan", "--out", str(t / "o.json")],
    "overflow-region-per-n-mean": lambda t: [
        "region", "--input", str(_file(t, "d.csv", PER_N_MEAN_OVERFLOW)), "--metric", "m", "--out", str(t / "o.json")],
    "overflow-fit-loglog-per-n-mean": lambda t: [
        "fit", "--input", str(_file(t, "d.csv", PER_N_MEAN_OVERFLOW)), "--metric", "m", "--method", "loglog",
        "--out", str(t / "o.json")],
    "overflow-report-per-n-std": lambda t: [
        "report", "--input", str(_file(t, "d.csv", b"metric,n,replicate,value\nm,10,0,1e200\nm,10,1,3e200\n"
                                                   b"m,100,0,1\nm,100,1,2\nm,1000,0,0.5\nm,1000,1,0.6\n"
                                                   b"m,10000,0,0.2\nm,10000,1,0.3\n")),
        "--out", str(t / "o.svg")],
    "overflow-report-plot-range": lambda t: [
        "report", "--input", str(_file(t, "d.csv", b"metric,n,replicate,value\nm,10,0,8.99e307\nm,100,0,8.99e307\n")),
        "--out", str(t / "o.svg")],
    "report-over-its-input": _report_over_input,
    "non-finite-ci-alpha-extrapolate": lambda t: [
        "extrapolate", "--fit", str(_fit_with_ci(t, (math.nan, math.inf))), "--n", "100"],
    "non-finite-ci-alpha-report": lambda t: [
        "report", "--input", str(_file(t, "d.csv", b"metric,n,replicate,value\ntop1_error,900,0,0.5\n")),
        "--fits", str(_fit_with_ci(t, (math.nan, math.nan))), "--out", str(t / "o.svg")],
    "reversed-ci-alpha": lambda t: [
        "extrapolate", "--fit", str(_fit_with_ci(t, (0.5, -0.5))), "--n", "100"],
    "float-equal-sample-counts-loglog": lambda t: _float_equal_fit(t, "loglog"),
    "float-equal-sample-counts-nonlinear": lambda t: _float_equal_fit(t, "nonlinear"),
    "non-finite-sigma-nan": lambda t: synth_args(t / "o.json", sigma="nan"),
    "non-finite-sigma-inf": lambda t: synth_args(t / "o.json", sigma="inf"),
}


class TestBadInputs:
    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_one_line_error_and_exit_code(self, tmp_path, capsys, case):
        argv = BAD_INPUTS[case](tmp_path)
        capsys.readouterr()
        code, _, err = run(capsys, *argv)
        assert code in (2, 3, 4)
        assert len(err.splitlines()) == 1, err
        assert err.startswith("error: ")

    def test_csv_value_nan_names_file_and_line(self, tmp_path, capsys):
        code, _, err = run(capsys, *BAD_INPUTS["csv-value-nan"](tmp_path))
        assert code == 3
        assert f"{tmp_path / 'd.csv'}:3: value must be a finite non-negative float, got nan" in err

    @pytest.mark.parametrize("case", sorted(c for c in BAD_INPUTS if c.startswith("overflow-")))
    def test_overflow_is_a_numeric_failure(self, tmp_path, capsys, case):
        argv = BAD_INPUTS[case](tmp_path)
        capsys.readouterr()
        code, _, err = run(capsys, *argv)
        assert code == 4
        assert err.startswith("error: floating-point overflow: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("case", sorted(c for c in BAD_INPUTS if c.startswith("non-finite-")))
    def test_non_finite_parameter_is_a_data_error(self, tmp_path, capsys, case):
        argv = BAD_INPUTS[case](tmp_path)
        capsys.readouterr()
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "o.json").exists()

    def test_underflowing_crossing_is_a_numeric_failure(self, tmp_path, capsys):
        argv = BAD_INPUTS["underflow-intersect"](tmp_path)
        capsys.readouterr()
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, "")
        assert err.startswith("error: floating-point underflow: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("case", sorted(c for c in BAD_INPUTS if c.startswith("manifest-")))
    def test_manifest_field_of_the_wrong_type_is_malformed(self, tmp_path, capsys, case):
        code, _, err = run(capsys, *BAD_INPUTS[case](tmp_path))
        assert code == 3
        assert "m.json: malformed manifest artifact (ParameterError: " in err

    def test_float_seed_in_a_manifest_is_malformed(self, tmp_path, capsys):
        code, _, err = run(capsys, *BAD_INPUTS["manifest-seed-not-an-integer"](tmp_path))
        assert code == 3
        assert "m.json: malformed manifest artifact (ParameterError: seed must be a non-negative integer, got 5.7)" in err

    def test_report_skips_a_crossing_beyond_the_float_range(self, tmp_path, capsys):
        shallow = _fit_file(tmp_path, alpha=-0.5, c=1.0).rename(tmp_path / "shallow.json")
        steep = _fit_file(tmp_path, alpha=-0.5 - 3e-9, c=1.0001)
        code, _, err = run(capsys, "report", "--input", str(tmp_path / "fit_input.csv"),
                           "--fits", f"{shallow},{steep}", "--out", str(tmp_path / "p.svg"))
        assert (code, err) == (0, "")
        ET.fromstring((tmp_path / "p.svg").read_text())
        rows = (tmp_path / "p.csv").read_text().splitlines()
        assert sum(row.startswith("fit_") for row in rows) == 4
        assert not any(row.startswith("intersection") for row in rows)

    @pytest.mark.parametrize("case", ["non-finite-ci-alpha-extrapolate", "non-finite-ci-alpha-report",
                                      "reversed-ci-alpha"])
    def test_bad_interval_is_a_malformed_artifact(self, tmp_path, capsys, case):
        code, _, err = run(capsys, *BAD_INPUTS[case](tmp_path))
        assert code == 3
        assert "fit.json: malformed fit artifact (ParameterError: ci_alpha must be a finite (lo, hi) with lo <= hi" in err

    @pytest.mark.parametrize(
        "override, message",
        [({"alpha": "-0.5"}, "alpha must be finite, got '-0.5'"), ({"c": True}, "c must be finite, got True"),
         ({"method": 7}, "method must be 'loglog' or 'nonlinear', got 7"),
         ({"metric": 5}, "DataError: metric must be a string and params an object, got 5 and {"),
         ({"params": [["n_min", None]]}, "DataError: metric must be a string and params an object, got 'top1_error' and [["),
         ({"n_range": [10, 10000, 3]}, "n_range must be an increasing pair, got (10, 10000, 3)"),
         ({"r_squared": "0.9"}, "r_squared must lie in [0, 1], got '0.9'"),
         ({"input_digest": 5, "created_at": 7}, "DataError: input_digest must be a string, got 5"),
         ({"created_at": 7}, "DataError: created_at must be a string, got 7")],
    )
    def test_fit_field_of_the_wrong_type_is_malformed(self, tmp_path, capsys, override, message):
        code, _, err = run(capsys, "extrapolate", "--fit", str(_fit_file(tmp_path, **override)), "--n", "100")
        assert code == 3 and len(err.splitlines()) == 1
        assert "fit.json: malformed fit artifact (" in err and message in err

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_sigma_names_the_parameter(self, tmp_path, capsys, sigma):
        code, _, err = run(capsys, *BAD_INPUTS[f"non-finite-sigma-{sigma}"](tmp_path))
        assert (code, err) == (3, f"error: noise_sigma must be a finite float >= 0, got {sigma}\n")

    @pytest.mark.parametrize("case", ["overflow-region-per-n-mean", "overflow-fit-loglog-per-n-mean"])
    def test_per_n_mean_overflow_names_the_mean(self, tmp_path, capsys, case):
        code, _, err = run(capsys, *BAD_INPUTS[case](tmp_path))
        assert (code, err) == (4, "error: floating-point overflow: a per-N mean leaves the float range\n")

    @pytest.mark.parametrize("case", ["float-equal-sample-counts-loglog", "float-equal-sample-counts-nonlinear"])
    def test_float_equal_sample_counts_are_too_few(self, tmp_path, capsys, case):
        code, _, err = run(capsys, *BAD_INPUTS[case](tmp_path))
        assert (code, err) == (3, "error: need at least 2 distinct sample counts in [None, None], found 1\n")
        assert not (tmp_path / "o.json").exists()

    def test_report_on_equal_logs_draws(self, tmp_path, capsys):
        csv = _file(tmp_path, "d.csv", b"metric,n,replicate,value\nm,10,0,1e10\nm,100,0,10000000000.000002\n")
        code, _, err = run(capsys, "report", "--input", str(csv), "--out", str(tmp_path / "p.svg"))
        assert (code, err) == (0, "")
        ET.fromstring((tmp_path / "p.svg").read_text())

    def test_region_on_close_sample_counts_no_longer_overflows(self, tmp_path, capsys):
        # The last two sizes alone give a line whose exp(log c) overflows;
        # region detection needs only its slope and r-squared.
        csv = _file(tmp_path, "d.csv", b"metric,n,replicate,value\nm,100,0,0.5\nm,200,0,0.4\n"
                                       b"m,43277,0,1.6825\nm,43285,0,1.6475\n")
        out = tmp_path / "r.json"
        code, _, err = run(capsys, "region", "--input", str(csv), "--metric", "m", "--out", str(out))
        assert (code, err) == (0, "")
        region = json.loads(out.read_text())
        assert (region["n_start_power_law"], region["n_end_power_law"]) == (200, 200)
        assert [d["candidate_n"] for d in region["diagnostics"]] == [100, 200, 43277]

    def test_undecodable_out_path_is_written_and_echoed_escaped(self, tmp_path, capsys):
        # A non-UTF-8 byte in a path arrives as a lone surrogate that stdout cannot encode.
        out = tmp_path / "d\udcff.csv"
        code, stdout, err = run(capsys, *synth_args(out))
        assert (code, err) == (0, "")
        assert stdout == f"wrote {tmp_path}/d\\udcff.csv (35 points)\n"
        assert out.exists()


class TestReportKeepsItsInputs:
    @pytest.fixture
    def inputs(self, tmp_path, capsys):
        csv, fit, region = tmp_path / "data.csv", tmp_path / "fit.json", tmp_path / "region.json"
        assert main(synth_args(csv, sigma="0.05")) == 0
        assert main(["fit", "--input", str(csv), "--metric", "top1_error", "--method", "loglog",
                     "--out", str(fit)]) == 0
        assert main(["region", "--input", str(csv), "--metric", "top1_error", "--out", str(region)]) == 0
        capsys.readouterr()
        return csv, fit, region

    @pytest.mark.parametrize("out", ["data.svg", "fit.json", "region.json", "link.svg"])
    def test_refused_with_every_input_untouched(self, tmp_path, capsys, inputs, out):
        csv, fit, region = inputs
        (tmp_path / "link.csv").symlink_to(region)
        before = {p: p.read_bytes() for p in inputs}
        code, _, err = run(capsys, "report", "--input", str(csv), "--fits", str(fit), "--region", str(region),
                           "--out", str(tmp_path / out))
        assert code == 3
        assert err.endswith("would replace one of its inputs\n") and len(err.splitlines()) == 1
        assert {p: p.read_bytes() for p in inputs} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "fit.json", "link.csv", "region.json"]


class TestOnMeansFlag:
    @pytest.mark.parametrize("text, on_means", [("false", False), ("0", False), ("no", False),
                                                ("True", True), ("yes", True)])
    def test_value_reaches_the_params_and_the_fit(self, tmp_path, capsys, text, on_means):
        csv, out = tmp_path / "d.csv", tmp_path / "f.json"
        assert main(synth_args(csv, sigma="0.05")) == 0
        code, _, err = run(capsys, "fit", "--input", str(csv), "--metric", "top1_error", "--method", "loglog",
                           "--on-means", text, "--out", str(out))
        assert (code, err) == (0, "")
        doc = json.loads(out.read_text())
        ms = artifacts.read_measurements(csv)
        assert doc["params"]["on_means"] is on_means
        assert doc["alpha"] == fit_loglog(ms, on_means=on_means).alpha
        assert doc["alpha"] != fit_loglog(ms, on_means=not on_means).alpha

    def test_other_words_are_a_usage_error(self, tmp_path, capsys):
        assert main(synth_args(tmp_path / "d.csv")) == 0
        code, _, err = run(capsys, "fit", "--input", str(tmp_path / "d.csv"), "--metric", "top1_error",
                           "--on-means", "maybe", "--out", str(tmp_path / "f.json"))
        assert code == 2
        assert "expected a boolean, got 'maybe'" in err
        assert not (tmp_path / "f.json").exists()


@pytest.fixture(scope="module")
def artifacts_by_kind(tmp_path_factory):
    """Bytes of one valid artifact of every kind the CLI writes."""
    d = tmp_path_factory.mktemp("kinds")
    images = d / "images.csv"
    images.write_text("image_id,class,capture_group\n" + "".join(f"i{i},c{i % 2},\n" for i in range(8)))
    commands = [
        synth_args(d / "d.csv"),
        ["fit", "--input", str(d / "d.csv"), "--metric", "top1_error", "--method", "loglog",
         "--out", str(d / "fit.json")],
        ["fit", "--input", str(d / "d.csv"), "--metric", "top1_error", "--out", str(d / "pair.json")],
        ["region", "--input", str(d / "d.csv"), "--metric", "top1_error", "--out", str(d / "region.json")],
        ["noise-impact", "--clean", str(d / "fit.json"), "--noisy", str(d / "fit.json"),
         "--targets", "0.1", "--out", str(d / "impact.json")],
        ["manifest", "build", "--images", str(images), "--sizes", "2,4", "--seed", "1",
         "--out", str(d / "manifest.json")],
        ["manifest", "holdout", "--in", str(d / "manifest.json"), "--size", "4", "--seed", "1",
         "--out", str(d / "holdout.json")],
    ]
    for argv in commands:
        assert main(argv) == 0, argv
    names = ("d.csv", "fit.json", "pair.json", "region.json", "impact.json", "manifest.json", "holdout.json")
    return d, {name: (d / name).read_bytes() for name in names}


# The option under test, the command that reads it, and the artifacts it accepts.
FUZZ_TARGETS = {
    "--fit": (lambda f, d: ["extrapolate", "--fit", f, "--n", "1000"], {"fit.json"}),
    "--region": (lambda f, d: ["report", "--input", str(d / "d.csv"), "--region", f,
                               "--out", str(d / "fuzz.svg")], {"region.json"}),
    "--in": (lambda f, d: ["manifest", "holdout", "--in", f, "--size", "4", "--seed", "1"],
             {"manifest.json"}),
    "--input": (lambda f, d: ["fit", "--input", f, "--metric", "top1_error",
                              "--out", str(d / "fuzz.json")], {"d.csv"}),
}


@st.composite
def fuzzed_files(draw, kinds):
    """(option, file bytes): random bytes, a truncated artifact, or a valid one of another kind."""
    option = draw(st.sampled_from(sorted(FUZZ_TARGETS)))
    source = draw(st.sampled_from(["random", "truncated", "wrong-kind"]))
    if source == "random":
        return option, draw(st.binary(max_size=200))
    if source == "truncated":
        # Without its closing brace and final newline no JSON artifact parses.
        whole = kinds[draw(st.sampled_from(sorted(k for k in kinds if k.endswith(".json"))))]
        return option, whole[: draw(st.integers(0, len(whole) - 2))]
    return option, kinds[draw(st.sampled_from(sorted(set(kinds) - FUZZ_TARGETS[option][1])))]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fuzzed_files_give_one_line_errors(artifacts_by_kind, data):
    d, kinds = artifacts_by_kind
    option, content = data.draw(fuzzed_files(kinds))
    path = d / "fuzzed"
    path.write_bytes(content)
    argv = FUZZ_TARGETS[option][0](str(path), d)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (2, 3, 4), (argv, content[:80])
    assert len(err.getvalue().splitlines()) == 1, err.getvalue()

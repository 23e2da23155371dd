"""Tests for CSV/JSON formats, digests, and artifact round trips."""

import copy
import dataclasses
import errno
import functools
import json
import operator
import os
import re
import stat
from pathlib import Path

import pytest

from learncurve import (
    DataError,
    MeasurementSet,
    PowerLawFit,
    RegionSegmentation,
    ThreePhaseModel,
    bootstrap_ci,
    build_nested_subsets,
    fit_loglog,
    inject_label_noise,
    synth_curve,
)
from learncurve import artifacts
from learncurve.artifacts import (
    SCHEMA_VERSION,
    FitArtifact,
    dumps_canonical,
    envelope,
    load_artifact,
    load_fit_artifact,
    manifest_from_dict,
    manifest_to_dict,
    read_images,
    read_manifest,
    read_measurements,
    region_to_dict,
    sha256_path,
    write_json,
    write_manifest,
    write_measurements,
)
from learncurve.svgplot import write_report

MODEL = ThreePhaseModel(alpha=-0.62, c=0.5 * 900**0.62, plateau=1.0, floor=0.0)


def synth_set(sigma=0.05, seed=3):
    return synth_curve(MODEL, [900, 1800, 3600, 9000], 5, sigma, seed, metric="top1_error")


class TestMeasurementCsv:
    def test_round_trip_is_byte_identical(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_measurements(synth_set(), first)
        write_measurements(read_measurements(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_parse_values(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("metric,n,replicate,value\ntop1_error,900,0,0.35\ntop1_error,900,1,0.33\n")
        ms = read_measurements(path)
        assert len(ms) == 2
        assert ms.distinct_n() == [900]

    def test_header_only_parses_to_empty_set(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("metric,n,replicate,value\n")
        ms = read_measurements(path)
        assert len(ms) == 0

    def test_wrong_header_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("metric,n,rep,value\n")
        with pytest.raises(DataError, match=":1:"):
            read_measurements(path)

    def test_extra_column_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("metric,n,replicate,value\ntop1_error,900,0,0.35,surprise\n")
        with pytest.raises(DataError, match=":2:"):
            read_measurements(path)

    def test_malformed_number_names_the_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("metric,n,replicate,value\na,900,0,0.1\na,901,zero,0.2\n")
        with pytest.raises(DataError, match=":3:"):
            read_measurements(path)

    def test_value_that_is_not_a_number_names_the_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("metric,n,replicate,value\na,900,0,0.1\na,901,0,low\n")
        with pytest.raises(DataError, match=r":3: value 'low' is not a number$"):
            read_measurements(path)

    def test_duplicate_key_names_the_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("metric,n,replicate,value\na,900,0,0.1\na,900,0,0.2\n")
        with pytest.raises(DataError, match=":3: duplicate"):
            read_measurements(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_file_and_line(self, tmp_path, value):
        path = tmp_path / "m.csv"
        path.write_text(f"metric,n,replicate,value\na,900,0,0.1\na,901,0,{value}\na,902,0,0.2\n")
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))}:3: value must be a finite"):
            read_measurements(path)

    def test_rule_violation_after_a_blank_line_names_its_own_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("metric,n,replicate,value\na,900,0,0.1\n\na,0,0,0.2\na,902,0,0.3\n")
        with pytest.raises(DataError, match=r":4: sample count must be a positive int, got 0$"):
            read_measurements(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            read_measurements(tmp_path / "nope.csv")

    def test_full_precision_survives(self, tmp_path):
        ms = MeasurementSet([("m", 10, 0, 0.1 + 0.2), ("m", 20, 0, 1e-12)])
        path = tmp_path / "m.csv"
        write_measurements(ms, path)
        assert read_measurements(path) == ms


class TestImagesCsv:
    def test_parse(self, tmp_path):
        path = tmp_path / "img.csv"
        path.write_text("image_id,class,capture_group\nx1,barley,\nx2,oat,g7\n")
        rows = read_images(path)
        assert rows == [("x1", "barley", None), ("x2", "oat", "g7")]

    @pytest.mark.parametrize("row", [",barley,g1", "x2,,g1"])
    def test_empty_id_or_class_names_the_line(self, tmp_path, row):
        path = tmp_path / "img.csv"
        path.write_text(f"image_id,class,capture_group\nx1,barley,\n{row}\n")
        with pytest.raises(DataError, match=r":3: image_id and class must be non-empty$"):
            read_images(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "img.csv"
        path.write_text("id,class,group\n")
        with pytest.raises(DataError, match=":1:"):
            read_images(path)


class TestFitArtifact:
    def test_round_trip(self, tmp_path):
        csv_path = tmp_path / "m.csv"
        write_measurements(synth_set(), csv_path)
        fit = fit_loglog(read_measurements(csv_path).only("top1_error"))
        art = FitArtifact.from_fit(
            fit, "top1_error", sha256_path(csv_path), {"n_min": None, "method": "loglog"}
        )
        out = tmp_path / "fit.json"
        write_json(art.to_dict(), out)
        loaded = load_fit_artifact(out)
        assert loaded.fit() == fit
        assert loaded.input_digest == sha256_path(csv_path)
        assert loaded.params["method"] == "loglog"

    @pytest.mark.parametrize("method", ["loglog", "nonlinear"])
    def test_bootstrap_fit_round_trips_with_its_failed_draws(self, tmp_path, method):
        fit = bootstrap_ci(synth_set(), method, draws=50, seed=1)
        out = tmp_path / "fit.json"
        write_json(FitArtifact.from_fit(fit, "top1_error", "0" * 64, {}).to_dict(), out)
        assert json.loads(out.read_text())["draws_failed"] == fit.draws_failed == 0
        assert load_fit_artifact(out).fit() == fit

    def test_rerun_identical_except_timestamp(self, tmp_path):
        csv_path = tmp_path / "m.csv"
        write_measurements(synth_set(), csv_path)

        def make():
            fit = fit_loglog(read_measurements(csv_path).only("top1_error"))
            return FitArtifact.from_fit(fit, "top1_error", sha256_path(csv_path), {}).to_dict()

        a, b = make(), make()
        a.pop("created_at"), b.pop("created_at")
        assert dumps_canonical(a) == dumps_canonical(b)

    def test_loading_a_pair_file_points_at_the_problem(self, tmp_path):
        out = tmp_path / "pair.json"
        write_json({"kind": "fit_pair", "loglog": {}, "nonlinear": {}}, out)
        with pytest.raises(DataError, match="both"):
            load_fit_artifact(out)

    def test_not_json(self, tmp_path):
        path = tmp_path / "fit.json"
        path.write_text("{broken")
        with pytest.raises(DataError, match="not valid JSON"):
            load_fit_artifact(path)


class TestLoader:
    def fit_file(self, tmp_path, drop=(), **override):
        csv_path = tmp_path / "m.csv"
        write_measurements(synth_set(), csv_path)
        fit = fit_loglog(read_measurements(csv_path).only("top1_error"))
        doc = {**FitArtifact.from_fit(fit, "top1_error", sha256_path(csv_path), {}).to_dict(), **override}
        path = tmp_path / "fit.json"
        path.write_text(json.dumps({k: v for k, v in doc.items() if k not in drop}))
        return path, fit

    def test_every_artifact_carries_the_envelope(self, tmp_path):
        path, _ = self.fit_file(tmp_path)
        pool = [(f"img{i:03d}", f"c{i % 3}", None) for i in range(30)]
        docs = [
            json.loads(path.read_text()),
            manifest_to_dict(build_nested_subsets(pool, [6], seed=2)),
            envelope("holdout", {"train": []}, {"input_digest": "x"}, {"seed": 1}),
        ]
        for doc in docs:
            assert {"kind", "params", "schema_version", "tool_version", "created_at"} <= set(doc)
            assert doc["schema_version"] == SCHEMA_VERSION

    def test_file_without_schema_version_still_loads(self, tmp_path):
        path, fit = self.fit_file(tmp_path, drop=("schema_version",))
        assert "schema_version" not in json.loads(path.read_text())
        assert load_fit_artifact(path).fit() == fit

    def test_schema_1_file_loads_with_draws_failed_none(self, tmp_path):
        fit = bootstrap_ci(synth_set(), "loglog", draws=50, seed=1)
        doc = FitArtifact.from_fit(fit, "top1_error", "0" * 64, {}).to_dict()
        doc["schema_version"] = 1
        del doc["draws_failed"]
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(doc))
        assert load_fit_artifact(path).fit() == dataclasses.replace(fit, draws_failed=None)

    @pytest.mark.parametrize("version", [2, 3, 4])
    def test_schema_2_and_3_files_load_unchanged(self, tmp_path, version):
        fit = bootstrap_ci(synth_set(), "loglog", draws=50, seed=1)
        doc = FitArtifact.from_fit(fit, "top1_error", "0" * 64, {}).to_dict()
        doc["schema_version"] = version
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(doc))
        assert load_fit_artifact(path).fit() == fit

    @pytest.mark.parametrize("draws_failed", [-1, "x"])
    def test_bad_draws_failed_is_malformed(self, tmp_path, draws_failed):
        path, _ = self.fit_file(tmp_path, draws_failed=draws_failed)
        with pytest.raises(DataError, match="fit.json: malformed fit artifact"):
            load_fit_artifact(path)

    def test_newer_schema_version_is_refused(self, tmp_path):
        path, _ = self.fit_file(tmp_path, schema_version=SCHEMA_VERSION + 1)
        with pytest.raises(DataError, match="schema_version"):
            load_fit_artifact(path)

    def test_malformed_body_names_the_file(self, tmp_path):
        path, _ = self.fit_file(tmp_path, ci_alpha=[0.1])
        with pytest.raises(DataError, match="fit.json: malformed fit artifact"):
            load_fit_artifact(path)

    def test_digest_ignores_created_at(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        write_json(envelope("region", {}, {}, {}, created_at="2026-01-01T00:00:00+00:00"), first)
        write_json(envelope("region", {}, {}, {}, created_at="2026-01-02T00:00:00+00:00"), second)
        assert first.read_bytes() != second.read_bytes()
        assert sha256_path(first) == sha256_path(second)


# A valid document of each kind load_artifact decodes, with every integer field set.
VALID_DOCS = {
    "fit": lambda: FitArtifact.from_fit(
        PowerLawFit(alpha=-0.5, c=2.0, method="nonlinear", n_range=(10, 1000), rss=0.1, r_squared=0.9,
                    ci_alpha=(-0.6, -0.4), iterations=7, draws_failed=3), "m", "0" * 64, {}).to_dict(),
    "region": lambda: region_to_dict(RegionSegmentation(10, 1000, {10: 0.5, 100: 0.9, 1000: None}), "m", "0" * 64, {}),
    "manifest": lambda: manifest_to_dict(inject_label_noise(build_nested_subsets(
        [(f"i{i}", f"c{i % 2}", f"g{i % 3}") for i in range(8)], [2, 4], seed=1), 0.5, seed=2)),
}


def typed_paths(node, of_type, path=()):
    """Paths to every value of type ``of_type`` (int excludes bool) in a document, params aside."""
    if type(node) is of_type:
        yield path
    elif isinstance(node, dict):
        for key, value in node.items():
            if key != "params":
                yield from typed_paths(value, of_type, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from typed_paths(value, of_type, (*path, i))


def at(doc, path):
    return functools.reduce(operator.getitem, path, doc)


class TestLoaderTypes:
    """Every integer, bool and float field of every decoded kind, and the kind, method, metric and
    provenance strings of a fit, are checked on loading, not converted."""

    def test_every_decoder_has_a_valid_document(self):
        assert set(VALID_DOCS) == set(artifacts._DECODERS)

    @pytest.mark.parametrize("kind", sorted(artifacts._DECODERS))
    def test_a_field_of_the_wrong_type_is_refused(self, tmp_path, kind):
        doc, path = json.loads(dumps_canonical(VALID_DOCS[kind]())), tmp_path / "a.json"
        write_json(doc, path)
        load_artifact(path, kind)
        edits = [(p, v) for p in typed_paths(doc, int) for x in [at(doc, p)] for v in (x + 0.5, True, str(x))]
        edits += [(p, v) for p in typed_paths(doc, bool) for x in [at(doc, p)] for v in (int(x), str(x).lower())]
        edits += [(p, v) for p in typed_paths(doc, float) for x in [at(doc, p)] for v in (True, False, str(x))]
        if kind == "fit":
            edits += [(p, v) for p in [("kind",), ("method",), ("metric",), ("input_digest",), ("created_at",)]
                      for v in (7, None, True)]
        assert len(edits) >= 15
        for (*parents, last), value in edits:
            edited = copy.deepcopy(doc)
            at(edited, parents)[last] = value
            write_json(edited, path)
            with pytest.raises(DataError, match="^" + re.escape(f"{path}: ")):
                load_artifact(path, kind)


class TestRegionLoader:
    @pytest.mark.parametrize(
        "entries, message",
        [([{"candidate_n": 10, "r_squared": 0.5}, {"candidate_n": 10, "r_squared": 0.9}],
          "two diagnostics entries share one candidate_n"),
         ([{"candidate_n": 10, "r_squared": "0.9"}], "r_squared at candidate 10 must be None or lie in [0, 1], got '0.9'"),
         ([{"candidate_n": 10, "r_squared": 1.5}], "got 1.5"),
         ([{"candidate_n": 10, "r_squared": -0.1}], "got -0.1")],
    )
    def test_bad_diagnostics_are_malformed(self, tmp_path, entries, message):
        path = tmp_path / "r.json"
        write_json({**VALID_DOCS["region"](), "diagnostics": entries}, path)
        with pytest.raises(DataError, match="^" + re.escape(f"{path}: malformed region artifact (") + ".*" + re.escape(message)):
            load_artifact(path, "region")


class TestCanonicalJson:
    def test_key_order_fixed(self):
        assert dumps_canonical({"b": 1, "a": 2}) == dumps_canonical({"a": 2, "b": 1})

    def test_floats_round_trip(self):
        text = dumps_canonical({"x": 0.1 + 0.2})
        assert json.loads(text)["x"] == 0.1 + 0.2


class TestManifestJson:
    def test_round_trip(self, tmp_path):
        pool = [(f"img{i:03d}", f"c{i % 3}", f"g{i % 5}") for i in range(60)]
        m = inject_label_noise(build_nested_subsets(pool, [6, 30], seed=2), 0.2, seed=7)
        path = tmp_path / "m.json"
        write_manifest(m, path)
        assert read_manifest(path) == m

    def test_dict_round_trip_preserves_diagnostics(self):
        pool = [(f"img{i:03d}", f"c{i % 2}", f"g{i % 4}") for i in range(40)]
        m = build_nested_subsets(pool, [10, 20], seed=2)
        assert manifest_from_dict(manifest_to_dict(m)) == m

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        write_json({"kind": "fit"}, path)
        with pytest.raises(DataError, match="manifest"):
            read_manifest(path)


class TestAtomicWrites:
    @staticmethod
    def fail_writes_to(monkeypatch, name):
        """Make every text write to a file whose name contains ``name`` stop halfway."""
        real = Path.write_text

        def half_then_fail(self, data, *args, **kwargs):
            if name not in self.name:
                return real(self, data, *args, **kwargs)
            real(self, data[: len(data) // 2], *args, **kwargs)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(Path, "write_text", half_then_fail)

    def test_failed_json_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "fit.json"
        write_json({"old": True}, path)
        before = path.read_bytes()
        self.fail_writes_to(monkeypatch, "fit.json")
        with pytest.raises((OSError, DataError)):
            write_json({"new": list(range(100))}, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fit.json"]

    def test_failed_sidecar_leaves_both_report_files_as_they_were(self, tmp_path, monkeypatch):
        out = tmp_path / "plot.svg"
        write_report(synth_set(), [], None, out)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        self.fail_writes_to(monkeypatch, "plot.csv")
        with pytest.raises((OSError, DataError)):
            write_report(synth_set(sigma=0.2), [], None, out)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_failed_second_rename_leaves_no_temporary(self, tmp_path):
        (tmp_path / "plot.csv").mkdir()
        with pytest.raises(DataError, match="plot.csv"):
            write_report(synth_set(), [], None, tmp_path / "plot.svg")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["plot.csv", "plot.svg"]

    def test_report_refuses_to_overwrite_itself_with_its_sidecar(self, tmp_path):
        with pytest.raises(DataError, match="sidecar"):
            write_report(synth_set(), [], None, tmp_path / "plot.csv")
        assert list(tmp_path.iterdir()) == []

    def test_outputs_get_the_mode_of_a_plain_write(self, tmp_path):
        plain = tmp_path / "plain.json"
        plain.write_text("{}\n", encoding="utf-8")
        write_json({}, tmp_path / "a.json")
        write_measurements(synth_set(), tmp_path / "m.csv")
        out, sidecar = write_report(synth_set(), [], None, tmp_path / "plot.svg")
        modes = {stat.S_IMODE(p.stat().st_mode) for p in (tmp_path / "a.json", tmp_path / "m.csv", out, sidecar)}
        assert modes == {stat.S_IMODE(plain.stat().st_mode)}

    def test_overwritten_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text("{}\n", encoding="utf-8")
        path.chmod(0o640)
        write_json({"new": 1}, path)
        assert json.loads(path.read_text()) == {"new": 1}
        assert stat.S_IMODE(path.stat().st_mode) == 0o640

    def test_symlink_is_written_through(self, tmp_path):
        real, link = tmp_path / "real.json", tmp_path / "link.json"
        real.write_text("{}\n", encoding="utf-8")
        link.symlink_to(real)
        write_json({"new": 1}, link)
        assert link.is_symlink()
        assert json.loads(real.read_text()) == {"new": 1}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "real.json"]

    def test_read_only_file_fares_as_under_a_plain_write(self, tmp_path):
        plain, path = tmp_path / "plain.json", tmp_path / "a.json"
        for p in (plain, path):
            p.write_text("{}\n", encoding="utf-8")
            p.chmod(0o444)
        try:
            plain.write_text("[]\n", encoding="utf-8")
        except PermissionError:
            with pytest.raises(DataError, match="a.json: Permission denied"):
                write_json([], path)
            assert path.read_text() == "{}\n"
        else:  # the superuser writes read-only files
            write_json([], path)
            assert path.read_text() == "[]\n"
        assert stat.S_IMODE(path.stat().st_mode) == 0o444

    def test_file_the_caller_may_not_write_is_refused(self, tmp_path, monkeypatch):
        path = tmp_path / "a.json"
        write_json({}, path)
        monkeypatch.setattr(os, "access", lambda *args, **kwargs: False)
        with pytest.raises(DataError, match="a.json: Permission denied"):
            write_json({"new": 1}, path)
        assert json.loads(path.read_text()) == {}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json"]

"""Structural tests for the SVG report emitter."""

import math
import xml.etree.ElementTree as ET

import pytest

from learncurve import (
    DataError,
    MeasurementSet,
    NumericError,
    PowerLawFit,
    RegionSegmentation,
    ThreePhaseModel,
    fit_loglog,
    synth_curve,
)
from learncurve.artifacts import FitArtifact
from learncurve.svgplot import _log10_range, build_report, write_report

MODEL = ThreePhaseModel(alpha=-0.62, c=0.5 * 900**0.62, plateau=1.0, floor=0.0)
SIZES = [900, 1800, 3600, 9000, 22500, 45000, 90000]


def artifact_for(ms, metric, method="loglog"):
    fit = fit_loglog(ms.only(metric))
    return FitArtifact.from_fit(fit, metric, "0" * 64, {}, created_at="2026-01-01T00:00:00+00:00")


def elements(svg, cls):
    root = ET.fromstring(svg)
    return [el for el in root.iter() if el.get("class", "").split()[0:1] == [cls] or el.get("class") == cls]


def classes_of(svg):
    root = ET.fromstring(svg)
    return [el.get("class") for el in root.iter() if el.get("class")]


class TestStructure:
    def test_one_dotted_path_and_band_per_metric(self):
        ms = synth_curve(MODEL, SIZES, 5, 0.05, seed=1, metric="top1_error")
        svg, table = build_report(ms, [artifact_for(ms, "top1_error")], None)
        assert len(elements(svg, "fit")) == 1
        assert len(elements(svg, "band")) == 1
        assert "stroke-dasharray" in svg
        assert len(elements(svg, "marker")) == len(SIZES)

    def test_no_fits_means_no_dotted_paths(self):
        ms = synth_curve(MODEL, SIZES, 5, 0.05, seed=1, metric="top1_error")
        svg, _ = build_report(ms, [], None)
        assert len(elements(svg, "fit")) == 0
        assert len(elements(svg, "band")) == 1

    def test_two_metrics_get_two_bands(self):
        pts = list(synth_curve(MODEL, SIZES, 3, 0.0, seed=1, metric="top1_error").points)
        pts += list(synth_curve(MODEL, SIZES, 3, 0.0, seed=2, metric="cross_entropy").points)
        ms = MeasurementSet(tuple(pts))
        svg, _ = build_report(ms, [], None)
        assert len(elements(svg, "band")) == 2

    def test_intersecting_fits_draw_a_marker(self):
        # Two constructed fits crossing inside the plotted range.
        ms = synth_curve(MODEL, SIZES, 3, 0.0, seed=1, metric="top1_error")
        scratch = artifact_for(ms, "top1_error")
        from learncurve import PowerLawFit

        pretrained_fit = PowerLawFit(
            alpha=-0.3,
            c=scratch.c * 9000.0 ** (scratch.alpha - (-0.3)),
            method="loglog",
            n_range=(900, 90000),
            rss=0.0,
            r_squared=1.0,
        )
        pretrained = FitArtifact.from_fit(
            pretrained_fit, "top1_error", "0" * 64, {}, created_at="2026-01-01T00:00:00+00:00"
        )
        svg, table = build_report(ms, [scratch, pretrained], None)
        assert len(elements(svg, "fit")) == 2
        assert len(elements(svg, "intersection")) == 1
        assert any(line.startswith("intersection,") for line in table.splitlines())

    @pytest.mark.parametrize("alpha, c", [(-0.3, MODEL.c * 1e7**-0.32), (-0.62 - 3e-9, 1.0001 * MODEL.c)])
    def test_crossing_off_the_plot_is_skipped(self, alpha, c):
        # The first crossing lies at N = 1e7, past the data; the second, of
        # nearly parallel curves, beyond the float range.
        ms = synth_curve(MODEL, SIZES, 3, 0.0, seed=1, metric="top1_error")
        other = PowerLawFit(alpha=alpha, c=c, method="loglog", n_range=(900, 90000), rss=0.0, r_squared=1.0)
        fits = [artifact_for(ms, "top1_error"), FitArtifact.from_fit(other, "top1_error", "0" * 64, {})]
        svg, table = build_report(ms, fits, None)
        assert len(elements(svg, "fit")) == 2
        assert elements(svg, "intersection") == []
        assert not any(line.startswith("intersection,") for line in table.splitlines())

    def test_region_splits_the_data_curve(self):
        ms = synth_curve(MODEL, SIZES, 3, 0.0, seed=1, metric="top1_error")
        region = RegionSegmentation(3600, None, {})
        svg, _ = build_report(ms, [], region)
        assert "series-pre" in " ".join(classes_of(svg))
        assert "series-power" in " ".join(classes_of(svg))

    def test_without_region_a_single_series_line(self):
        ms = synth_curve(MODEL, SIZES, 3, 0.0, seed=1, metric="top1_error")
        svg, _ = build_report(ms, [], None)
        assert len(elements(svg, "series")) == 1

    def test_sidecar_lists_every_plotted_point(self):
        ms = synth_curve(MODEL, SIZES, 5, 0.05, seed=1, metric="top1_error")
        _, table = build_report(ms, [artifact_for(ms, "top1_error")], RegionSegmentation(900, None, {}))
        lines = table.splitlines()
        assert lines[0] == "series,metric,n,value,std,count"
        assert sum(1 for l in lines if l.startswith("data,")) == len(SIZES)
        assert sum(1 for l in lines if l.startswith("fit_")) == 2  # endpoints
        assert any(l.startswith("region_start,") for l in lines)

    def test_svg_parses_as_xml(self):
        ms = synth_curve(MODEL, SIZES, 5, 0.05, seed=1, metric="top1_error")
        svg, _ = build_report(ms, [artifact_for(ms, "top1_error")], None)
        ET.fromstring(svg)  # raises on malformed markup


class TestContracts:
    def test_empty_set_rejected(self):
        with pytest.raises(DataError, match="nothing to plot"):
            build_report(MeasurementSet(()), [], None)

    def test_fit_for_absent_metric_rejected(self):
        ms = synth_curve(MODEL, SIZES, 3, 0.0, seed=1, metric="top1_error")
        stray = artifact_for(ms.only("top1_error"), "top1_error")
        stray = FitArtifact.from_dict({**stray.to_dict(), "metric": "cross_entropy"})
        with pytest.raises(DataError, match="cross_entropy"):
            build_report(ms, [stray], None)

    def test_write_report_emits_both_files(self, tmp_path):
        ms = synth_curve(MODEL, SIZES, 3, 0.05, seed=1, metric="top1_error")
        out, sidecar = write_report(ms, [], None, tmp_path / "plot.svg")
        assert out.read_text().startswith("<?xml")
        assert sidecar == tmp_path / "plot.csv"
        assert sidecar.read_text().startswith("series,")

    def test_deterministic_bytes(self, tmp_path):
        ms = synth_curve(MODEL, SIZES, 5, 0.05, seed=1, metric="top1_error")
        art = artifact_for(ms, "top1_error")
        a = build_report(ms, [art], None)
        b = build_report(ms, [art], None)
        assert a == b


class TestSidecarRegion:
    def test_region_end_has_its_own_row(self):
        ms = synth_curve(MODEL, SIZES, 3, 0.0, seed=1, metric="top1_error")
        _, table = build_report(ms, [], RegionSegmentation(1800, 45000, {}))
        assert table.splitlines()[-2:] == ["region_start,,1800,,,", "region_end,,45000,,,"]
        _, table = build_report(ms, [], RegionSegmentation(1800, None, {}))
        assert not any(line.startswith("region_end,") for line in table.splitlines())


class TestPlotRange:
    def test_equal_bounds_widen_to_half_and_double(self):
        assert _log10_range(0.25, 0.25) == (math.log10(0.125), math.log10(0.5))
        assert _log10_range(900, 900) == (math.log10(450), math.log10(1800))
        assert _log10_range(0.25, 0.5) == (math.log10(0.25), math.log10(0.5))

    def test_bounds_with_equal_logs_widen_too(self):
        lo, hi = 1e10, 10000000000.000002
        assert lo != hi and math.log10(lo) == math.log10(hi)
        assert _log10_range(lo, hi) == (math.log10(lo / 2), math.log10(hi * 2))
        ms = MeasurementSet([("m", 10, 0, lo), ("m", 100, 0, hi)])
        ET.fromstring(build_report(ms, [], None)[0])

    @pytest.mark.parametrize("lo, hi", [(8.99e307, 8.99e307), (1.0, math.inf), (0.0, 1.0)])
    def test_bounds_outside_the_float_range_are_numeric(self, lo, hi):
        with pytest.raises(NumericError, match="^floating-point (overflow|underflow): the plot range "):
            _log10_range(lo, hi)

    def test_values_whose_doubled_range_overflows_are_numeric(self):
        ms = MeasurementSet([("m", 10, 0, 8.99e307), ("m", 100, 0, 8.99e307)])
        with pytest.raises(NumericError, match=r"^floating-point overflow: the plot range \[4.495e\+307, inf\]"):
            build_report(ms, [], None)


class TestReportInputs:
    def test_report_refuses_to_replace_an_input(self, tmp_path):
        ms = synth_curve(MODEL, SIZES, 3, 0.05, seed=1, metric="top1_error")
        data, fit = tmp_path / "data.csv", tmp_path / "fit.json"
        data.write_text("measurements")
        fit.write_text("fit")
        for out in (tmp_path / "data.svg", fit):  # the sidecar, then the SVG itself
            with pytest.raises(DataError, match="would replace one of its inputs"):
                write_report(ms, [], None, out, (data, fit))
        assert (data.read_text(), fit.read_text()) == ("measurements", "fit")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "fit.json"]

    def test_other_inputs_are_no_obstacle(self, tmp_path):
        ms = synth_curve(MODEL, SIZES, 3, 0.05, seed=1, metric="top1_error")
        data = tmp_path / "data.csv"
        data.write_text("measurements")
        out, sidecar = write_report(ms, [], None, tmp_path / "plot.svg", (data,))
        assert out.exists() and sidecar.exists() and data.read_text() == "measurements"

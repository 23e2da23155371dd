"""What each command and the package root import.

The planning commands answer from closed-form float arithmetic, so they
start without numpy; ``report`` loads no fitting or manifest code; and
``import learncurve`` loads its exports on first use.  Each check runs in a
fresh interpreter, since this test process has imported everything.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import learncurve
from learncurve import PowerLawFit, ThreePhaseModel, synth_curve
from learncurve import curves, fitting, model
from learncurve.artifacts import FitArtifact, write_json, write_measurements

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs the CLI on its arguments and prints its exit code and the learncurve and numpy modules loaded.
RUN_CLI = """
import json, sys
from learncurve.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m == "numpy" or m.startswith("learncurve."))]))
"""


def python(code: str, *argv: str, cwd=None):
    """The JSON that ``code`` prints in a fresh interpreter importing learncurve from this checkout."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture
def workdir(tmp_path):
    """Two fit files and a measurement CSV, as the planning and report commands read them."""
    for name, alpha in (("clean", -0.62), ("noisy", -0.45)):
        fit = PowerLawFit(alpha=alpha, c=0.5 * 900**-alpha, method="loglog", n_range=(900, 90000), rss=0.01,
                          r_squared=0.99)
        write_json(FitArtifact.from_fit(fit, "top1_error", "0" * 64, {}).to_dict(), tmp_path / f"{name}.json")
    curve = ThreePhaseModel(alpha=-0.62, c=0.5 * 900**0.62, plateau=1.0)
    write_measurements(synth_curve(curve, [900, 3600, 9000], 3, 0.05, 1, "top1_error"), tmp_path / "m.csv")
    return tmp_path


@pytest.mark.parametrize(
    "argv",
    [["extrapolate", "--fit", "clean.json", "--n", "900000"],
     ["needed", "--fit", "clean.json", "--target", "0.05"],
     ["intersect", "--fit-a", "clean.json", "--fit-b", "noisy.json"],
     ["noise-impact", "--clean", "clean.json", "--noisy", "noisy.json", "--targets", "0.2,0.1"]],
    ids=lambda argv: argv[0],
)
def test_planning_commands_import_no_numpy(workdir, argv):
    code, modules = python(RUN_CLI, *argv, cwd=workdir)
    assert code == 0
    assert "numpy" not in modules


def test_report_imports_no_fitting_or_manifest_code(workdir):
    code, modules = python(RUN_CLI, "report", "--input", "m.csv", "--fits", "clean.json", "--out", "p.svg", cwd=workdir)
    assert code == 0
    assert "learncurve.svgplot" in modules
    assert not {"learncurve.fitting", "learncurve.manifest"} & set(modules)


def test_importing_the_package_imports_no_numpy():
    assert python("import json, sys, learncurve; print(json.dumps('numpy' in sys.modules))") is False


def test_every_export_resolves_lazily():
    code = """
import json, learncurve
listed = dir(learncurve)  # before any export is loaded
loaded = {name: getattr(learncurve, name) for name in learncurve.__all__}
star = {}
exec("from learncurve import *", star)
try:
    learncurve.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({"all": learncurve.__all__, "listed": listed, "unknown": unknown,
                  "star": sorted(name for name in star if name != "__builtins__"),
                  "same": all(star[name] is value for name, value in loaded.items())}))
"""
    found = python(code)
    assert found["all"] == learncurve.__all__ and len(found["all"]) == 39
    assert set(found["all"]) <= set(found["listed"])
    assert found["star"] == sorted(found["all"]) and found["same"]
    assert found["unknown"] == "module 'learncurve' has no attribute 'no_such_name'"


def test_fitting_and_model_re_export_the_curve_types():
    for name in ("LOGLOG", "NONLINEAR", "Discrepancy", "PowerLawFit", "RegionSegmentation"):
        assert getattr(fitting, name) is getattr(curves, name)
    assert learncurve.PowerLawFit is curves.PowerLawFit
    assert model.float_power is curves.float_power


def test_no_module_imports_another_modules_private_names():
    """A ``_``-prefixed name belongs to its module: one that another module needs becomes public."""
    sources = sorted((SRC / "learncurve").glob("*.py"))
    assert len(sources) >= 10
    private = [
        f"{path.name}:{node.lineno}: {alias.name}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []

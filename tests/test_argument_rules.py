"""Every public function and constructor refuses a hostile number with a ToolkitError.

The walk visits each callable of ``learncurve.__all__`` (the exception
classes aside) and finds its numeric parameters from its type hints: a
scalar annotated ``int`` or ``float`` (or either or None), or an element of
a sequence of them, such as ``sizes``, ``targets``, ``n_range`` or
``ci_alpha``.  ``VALID_CALLS`` holds one valid call of each callable that
has one, naming every numeric parameter, so a new numeric parameter fails
the walk until it is listed.  Each numeric parameter, or each position of
such a sequence, then takes one value of ``POOL`` at a time, and the call
must return or raise a ToolkitError: never another exception.

Object-typed parameters (a measurement set, a fit, a manifest, a model, or
a fit's ``init``) stay out of the pool: this test checks the number rules,
not the boundary of every object.  So do mappings (``diagnostics``) and the
nested pairs of ``NoiseImpactReport.multipliers``.
"""

import inspect
import math
import types
import typing
from collections.abc import Iterable, Sequence

import numpy as np
import pytest

import learncurve
from learncurve import (
    PowerLawFit, RegionSegmentation, SubsetManifest, ThreePhaseModel, ToolkitError, build_nested_subsets, fit_loglog,
    synth_curve,
)
from learncurve.artifacts import FitArtifact, manifest_to_dict, region_to_dict, write_json

POOL = (None, True, "1", math.nan, math.inf, -math.inf, -1, 0, 1j, 2**64, 2**2000, -(2**2000),
        np.int64(3), np.float64(math.nan))

MODEL = ThreePhaseModel(alpha=-0.5, c=1.0, plateau=2.0)
SET = synth_curve(MODEL, [10, 20, 40, 80, 160], 3, 0.05, seed=0)
FIT = fit_loglog(SET)
MANIFEST = build_nested_subsets([(f"i{i}", f"c{i % 2}", None) for i in range(12)], [4, 8], seed=0)
FIT_FIELDS = dict(alpha=-0.5, c=1.0, method="loglog", n_range=(10, 160), rss=0.1, r_squared=0.9,
                  ci_alpha=(-0.6, -0.4), iterations=3, draws_failed=0)

# One valid call of each public callable with a numeric parameter, every numeric parameter named.
VALID_CALLS = {
    "AggregateRow": dict(n=10, mean=0.5, std=0.1, count=3),
    "Discrepancy": dict(alpha=0.1, c=0.2),
    "ImageRecord": dict(image_id="i", true_label="a", assigned_label="a", noise_flag=False, class_rank=0),
    "Intersection": dict(n_star=100.0, superior=FIT),
    "LossPrediction": dict(n=10, value=0.5, extrapolated=False),
    "Measurement": dict(metric="m", n=10, replicate=0, value=0.5),
    "NoiseImpactReport": dict(delta_alpha=0.1, multipliers=((0.1, 2.0),)),
    "PowerLawFit": FIT_FIELDS,
    "RegionSegmentation": dict(n_start_power_law=20, n_end_power_law=80, diagnostics={20: 0.99}),
    "SubsetManifest": dict(vars(MANIFEST), sizes=(4, 8), seed=1),
    "ThreePhaseModel": dict(alpha=-0.5, c=1.0, plateau=2.0, floor=0.1),
    "bootstrap_ci": dict(ms=SET, n_min=20, n_max=160, draws=5, confidence=0.9, seed=1),
    "build_nested_subsets": dict(images=[(f"i{i}", f"c{i % 2}", None) for i in range(12)], sizes=[4, 8], seed=1),
    "detect_power_law_region": dict(ms=SET, plateau=2.0, r2_threshold=0.9),
    "extrapolate": dict(fit=FIT, n=1000),
    "fit_loglog": dict(ms=SET, n_min=20, n_max=160),
    "fit_nonlinear": dict(ms=SET, n_min=20, n_max=160),
    "holdout_split": dict(m=MANIFEST, size=8, fraction=0.25, seed=1),
    "inject_label_noise": dict(m=MANIFEST, p=0.5, seed=1),
    "noise_impact": dict(fit_clean=FIT, fit_noisy=PowerLawFit(**dict(FIT_FIELDS, alpha=-0.4)), targets=[0.1, 0.05]),
    "random_guess_plateau": dict(metric="top1_error", n_classes=3),
    "required_sample_size": dict(fit=FIT, target_loss=0.05),
    "restrict_to_size": dict(m=MANIFEST, size=4),
    "synth_curve": dict(model=MODEL, sizes=[10, 20], replicates=2, noise_sigma=0.05, seed=1),
}


def _options(hint) -> set:
    """The types a hint admits, None taken out: the members of a union, or the hint itself."""
    union = typing.get_origin(hint) in (typing.Union, types.UnionType)
    return {t for t in (typing.get_args(hint) if union else (hint,)) if t is not type(None)}


def numeric_parameters(obj) -> dict[str, str]:
    """Each numeric parameter of ``obj``, as ``"scalar"`` or ``"element"`` (of a sequence)."""
    found = {}
    for name, hint in typing.get_type_hints(obj).items():
        if name == "return":
            continue
        if _options(hint) <= {int, float}:
            found[name] = "scalar"
        for t in _options(hint):
            container = typing.get_origin(t)
            items = {a for a in typing.get_args(t) if a is not Ellipsis}
            if container in (list, tuple, Sequence, Iterable) and items and items <= {int, float}:
                found[name] = "element"
    return found


def public_callables() -> list[str]:
    return sorted(name for name in learncurve.__all__ if callable(obj := getattr(learncurve, name))
                  and not (inspect.isclass(obj) and issubclass(obj, BaseException)))


def cases() -> list[tuple[str, str]]:
    return [(name, param) for name in public_callables() for param in numeric_parameters(getattr(learncurve, name))]


def test_every_callable_with_a_numeric_parameter_has_a_valid_call_naming_each():
    missing = {(name, param) for name, param in cases() if param not in VALID_CALLS.get(name, {})}
    assert not missing, f"add a valid call naming these numeric parameters to VALID_CALLS: {sorted(missing)}"


@pytest.mark.parametrize("name", sorted(VALID_CALLS))
def test_each_valid_call_is_valid(name):
    getattr(learncurve, name)(**VALID_CALLS[name])


def variants(kwargs: dict, param: str, kind: str):
    """The valid call with one hostile value at a time in ``param`` (in each position of a sequence)."""
    for value in POOL:
        if kind == "scalar":
            yield dict(kwargs, **{param: value})
        else:
            valid = list(kwargs[param])
            for at in range(len(valid)):
                yield dict(kwargs, **{param: type(kwargs[param])(valid[:at] + [value] + valid[at + 1:])})


@pytest.mark.parametrize("name, param", cases())
def test_a_hostile_number_returns_or_raises_a_toolkit_error(name, param):
    call = getattr(learncurve, name)
    escapes = []
    for kwargs in variants(VALID_CALLS[name], param, numeric_parameters(call)[param]):
        try:
            call(**kwargs)
        except ToolkitError:
            pass
        except Exception as exc:  # noqa: BLE001 - any other exception is the escape this test looks for
            escapes.append(f"{param}={kwargs[param]!r}: {type(exc).__name__}: {exc}")
    assert not escapes, "\n".join(escapes)


def test_the_walk_finds_scalars_and_sequence_elements():
    assert numeric_parameters(learncurve.synth_curve) == {
        "sizes": "element", "replicates": "scalar", "noise_sigma": "scalar", "seed": "scalar"}
    assert numeric_parameters(PowerLawFit)["ci_alpha"] == "element"
    assert "multipliers" not in numeric_parameters(learncurve.NoiseImpactReport)
    assert numeric_parameters(SubsetManifest)["per_class_pool"] == "scalar"


# Each artifact built with its integer fields as ``ints`` of every integer: Python int or numpy int64.
DOCUMENTS = {
    "fit": lambda ints: FitArtifact.from_fit(PowerLawFit(**dict(
        FIT_FIELDS, c=ints(2), n_range=(ints(10), ints(160)), rss=ints(0), r_squared=ints(1),
        ci_alpha=(ints(-1), ints(0)), iterations=ints(3), draws_failed=ints(0))), "m", "0" * 64, {}).to_dict(),
    "region": lambda ints: region_to_dict(RegionSegmentation(ints(20), ints(80), {ints(20): ints(1)}), "m", "0" * 64, {}),
    "manifest": lambda ints: manifest_to_dict(SubsetManifest(**dict(
        vars(MANIFEST), per_class_pool=ints(6), seed=ints(1), diagnostics={"c0": ints(0)}))),
}


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_a_numpy_integer_is_stored_as_a_python_int(tmp_path, name):
    """The rules take numpy integers, and the types store each as a Python int, so an artifact
    writes the same JSON from either."""
    for ints in (int, np.int64):
        document = DOCUMENTS[name](ints)
        document.pop("created_at", None)
        write_json(document, tmp_path / f"{ints.__name__}.json")
    assert (tmp_path / "int64.json").read_bytes() == (tmp_path / "int.json").read_bytes()


def test_a_model_stores_numpy_integers_as_python_ints():
    model = ThreePhaseModel(alpha=-0.5, c=np.int64(2), plateau=np.int64(3), floor=np.int64(0))
    assert [type(getattr(model, name)) for name in ("c", "plateau", "floor")] == [int, int, int]

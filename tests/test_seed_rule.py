"""Every public function that takes a ``seed``, and every public class with a
``seed`` field, follows the one seed rule."""

import dataclasses
import inspect

import numpy as np
import pytest

import learncurve
from learncurve import ParameterError, ThreePhaseModel, build_nested_subsets, synth_curve

MODEL = ThreePhaseModel(alpha=-0.5, c=1.0, plateau=2.0)
IMAGES = [(f"i{i}", f"c{i % 2}", None) for i in range(12)]

# Arguments, other than the seed, that make a valid call of each seeded function.
VALID_ARGS = {
    "bootstrap_ci": lambda: ((synth_curve(MODEL, [10, 20, 40], 2, 0.05, seed=0),), {"draws": 5}),
    "build_nested_subsets": lambda: ((IMAGES, [4, 8]), {}),
    "holdout_split": lambda: ((build_nested_subsets(IMAGES, [4, 8], seed=0), 8, 0.25), {}),
    "inject_label_noise": lambda: ((build_nested_subsets(IMAGES, [4, 8], seed=0), 0.5), {}),
    "synth_curve": lambda: ((MODEL, [10, 20], 2, 0.05), {}),
    "SubsetManifest": lambda: ((), {
        k: v for k, v in vars(build_nested_subsets(IMAGES, [4, 8], seed=0)).items() if k != "seed"}),
}


def takes_a_seed(obj) -> bool:
    if inspect.isfunction(obj):
        return "seed" in inspect.signature(obj).parameters
    return inspect.isclass(obj) and dataclasses.is_dataclass(obj) and "seed" in {f.name for f in dataclasses.fields(obj)}


def seeded_functions():
    """Public functions with a ``seed`` parameter and public classes with a ``seed`` field."""
    return sorted(name for name in learncurve.__all__ if takes_a_seed(getattr(learncurve, name)))


def test_the_walk_finds_the_seeded_functions():
    assert set(VALID_ARGS) <= set(seeded_functions())


@pytest.mark.parametrize("name", seeded_functions())
def test_valid_arguments_are_listed_and_accept_an_integer_seed(name):
    assert name in VALID_ARGS, f"{name} takes a seed: add a valid call to VALID_ARGS"
    args, kwargs = VALID_ARGS[name]()
    result = getattr(learncurve, name)(*args, **kwargs, seed=np.int64(1))
    if inspect.isclass(getattr(learncurve, name)):
        assert type(result.seed) is int and result.seed == 1


@pytest.mark.parametrize("seed", [1.5, True, "1", -1])
@pytest.mark.parametrize("name", seeded_functions())
def test_seed_that_is_not_a_non_negative_integer_is_refused(name, seed):
    assert name in VALID_ARGS, f"{name} takes a seed: add a valid call to VALID_ARGS"
    args, kwargs = VALID_ARGS[name]()
    with pytest.raises(ParameterError, match="^seed must be a non-negative integer, got "):
        getattr(learncurve, name)(*args, **kwargs, seed=seed)

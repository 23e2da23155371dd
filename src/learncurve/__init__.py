"""Learning-curve analysis toolkit.

Fits power laws to risk-vs-sample-size measurements, detects the three
learning-curve phases, extrapolates performance, predicts model-selection
crossovers, quantifies the data cost of label noise, and generates
reproducible nested-subset experiment manifests.  The toolkit consumes
measurement logs produced by any trainer; it never trains models itself.

Each export loads its module on first use, so ``import learncurve`` alone
imports no numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# The exports, by the module that defines them.
_EXPORTS = {
    "curves": ("Discrepancy", "PowerLawFit", "RegionSegmentation"),
    "errors": (
        "DataError", "InsufficientDataError", "LogDomainError", "NonConvergenceError", "NoRegionError",
        "NumericError", "ParallelCurvesError", "ParameterError", "ToolkitError",
    ),
    "fitting": ("bootstrap_ci", "detect_power_law_region", "fit_discrepancy", "fit_loglog", "fit_nonlinear"),
    "manifest": (
        "ImageRecord", "SubsetManifest", "build_nested_subsets", "holdout_split", "inject_label_noise",
        "restrict_to_size",
    ),
    "model": (
        "AggregateRow", "CROSS_ENTROPY", "Measurement", "MeasurementSet", "TOP1_ERROR", "ThreePhaseModel",
        "aggregate", "random_guess_plateau", "synth_curve",
    ),
    "planning": (
        "Intersection", "LossPrediction", "NoiseImpactReport", "extrapolate", "noise_impact",
        "predict_intersection", "required_sample_size",
    ),
}
_MODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE)


def __getattr__(name):
    """An export, imported from its module on first use and then kept here (PEP 562)."""
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})

"""Learning-curve analysis toolkit.

Fits power laws to risk-vs-sample-size measurements, detects the three
learning-curve phases, extrapolates performance, predicts model-selection
crossovers, quantifies the data cost of label noise, and generates
reproducible nested-subset experiment manifests.  The toolkit consumes
measurement logs produced by any trainer; it never trains models itself.
"""

from .errors import (
    DataError,
    InsufficientDataError,
    LogDomainError,
    NonConvergenceError,
    NoRegionError,
    NumericError,
    ParallelCurvesError,
    ParameterError,
    ToolkitError,
)
from .fitting import (
    Discrepancy,
    PowerLawFit,
    RegionSegmentation,
    bootstrap_ci,
    detect_power_law_region,
    fit_discrepancy,
    fit_loglog,
    fit_nonlinear,
)
from .manifest import (
    ImageRecord,
    SubsetManifest,
    build_nested_subsets,
    holdout_split,
    inject_label_noise,
    restrict_to_size,
)
from .model import (
    CROSS_ENTROPY,
    TOP1_ERROR,
    AggregateRow,
    Measurement,
    MeasurementSet,
    ThreePhaseModel,
    aggregate,
    random_guess_plateau,
    synth_curve,
)
from .planning import (
    Intersection,
    LossPrediction,
    NoiseImpactReport,
    extrapolate,
    noise_impact,
    predict_intersection,
    required_sample_size,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateRow",
    "CROSS_ENTROPY",
    "DataError",
    "Discrepancy",
    "ImageRecord",
    "InsufficientDataError",
    "Intersection",
    "LogDomainError",
    "LossPrediction",
    "Measurement",
    "MeasurementSet",
    "NoRegionError",
    "NoiseImpactReport",
    "NonConvergenceError",
    "NumericError",
    "ParallelCurvesError",
    "ParameterError",
    "PowerLawFit",
    "RegionSegmentation",
    "SubsetManifest",
    "TOP1_ERROR",
    "ThreePhaseModel",
    "ToolkitError",
    "aggregate",
    "bootstrap_ci",
    "build_nested_subsets",
    "detect_power_law_region",
    "extrapolate",
    "fit_discrepancy",
    "fit_loglog",
    "fit_nonlinear",
    "holdout_split",
    "inject_label_noise",
    "noise_impact",
    "predict_intersection",
    "random_guess_plateau",
    "required_sample_size",
    "restrict_to_size",
    "synth_curve",
]

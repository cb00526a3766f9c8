"""Histogram differential-entropy estimation with explicit confidence bounds.

The estimator bins samples from an L-Lipschitz density on [0,1]^K, takes the
Shannon entropy of the bin counts, and subtracts K*log(M); the accompanying
closed-form bound certifies how far that estimate can sit from the true
entropy at any confidence level.  The package also ships the adversarial
constructions showing why such certificates are impossible without the
Lipschitz-plus-known-support assumptions, together with independent
quadrature and enumeration oracles that verify every supporting inequality
numerically.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundParams,
    ConfidenceBound,
    alpha_const,
    empirical_bias,
    eta,
    min_valid_M,
    optimize_M,
    quantization_bias,
    statistical_deviation,
    total_bound,
)
from .densities import (
    ContaminationSpec,
    DensityModel,
    affine_rescale,
    binary_entropy,
    discrete_mi_adversary,
    disjoint_mixture_entropy,
    kl_step_pair,
    low_entropy_alt,
    mi_adversary,
    prop1_mixture,
    sample,
    tent_density,
    uniform_density,
)
from .errors import (
    EntroboundError,
    IngestError,
    OutOfSupportError,
    QuadratureError,
    ValidityError,
)
from .estimators import (
    DemoReport,
    EstimateReport,
    EstimatorFailure,
    ExternalEstimator,
    PinnedEntropyEstimator,
    discrete_mi_plugin,
    estimate_entropy_certified,
    estimate_mi_certified,
    kl_demo,
    mi_adversary_demo,
    prop1_demo,
    two_cell_kl_plugin,
)
from .histogram import (
    SparseHistogram,
    build_histogram,
    estimate_differential_entropy,
    plugin_entropy,
)
from .oracle import (
    QuadratureResult,
    check_density_gap,
    check_entropy_continuity,
    check_sup_bound,
    check_xlogx_gap,
    exact_discrete_entropy,
    expected_plugin_entropy_enum,
    integrate_box,
    kl_true_divergence,
    numeric_entropy,
    quantized_companion,
)
from .rng import generator, split

__all__ = [
    "__version__",
    # bounds
    "BoundParams", "ConfidenceBound", "alpha_const", "eta", "min_valid_M",
    "quantization_bias", "statistical_deviation", "empirical_bias",
    "total_bound", "optimize_M",
    # histogram
    "SparseHistogram", "build_histogram", "plugin_entropy",
    "estimate_differential_entropy",
    # densities
    "DensityModel", "ContaminationSpec", "tent_density", "uniform_density",
    "low_entropy_alt", "prop1_mixture", "binary_entropy",
    "disjoint_mixture_entropy", "mi_adversary", "discrete_mi_adversary",
    "kl_step_pair", "sample", "affine_rescale",
    # oracle
    "QuadratureResult", "integrate_box", "numeric_entropy",
    "quantized_companion", "check_density_gap", "check_sup_bound",
    "check_xlogx_gap", "check_entropy_continuity", "exact_discrete_entropy",
    "expected_plugin_entropy_enum", "kl_true_divergence",
    # estimators
    "EstimateReport", "DemoReport", "EstimatorFailure", "ExternalEstimator",
    "PinnedEntropyEstimator", "estimate_entropy_certified",
    "estimate_mi_certified", "discrete_mi_plugin", "two_cell_kl_plugin",
    "prop1_demo", "mi_adversary_demo", "kl_demo",
    # errors / rng
    "EntroboundError", "ValidityError", "OutOfSupportError",
    "QuadratureError", "IngestError", "generator", "split",
]

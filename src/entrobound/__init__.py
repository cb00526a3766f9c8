"""Histogram differential-entropy estimation with explicit confidence bounds.

The estimator bins samples from an L-Lipschitz density on [0,1]^K, takes the
Shannon entropy of the bin counts, and subtracts K*log(M); the accompanying
closed-form bound certifies how far that estimate can sit from the true
entropy at any confidence level.  The package also ships the adversarial
constructions showing why such certificates are impossible without the
Lipschitz-plus-known-support assumptions, together with independent
quadrature and enumeration oracles that verify every supporting inequality
numerically.

Each public name, and each submodule, is imported on first use (PEP 562):
``import entrobound`` loads none of them, so a command loads only the
modules it runs.
"""
from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it exports, in the order of __all__.
_EXPORTS = {
    "bounds": ("BoundParams", "ConfidenceBound", "alpha_const", "eta", "min_valid_M",
               "quantization_bias", "statistical_deviation", "empirical_bias",
               "total_bound", "optimize_M"),
    "histogram": ("SparseHistogram", "build_histogram", "plugin_entropy",
                  "estimate_differential_entropy"),
    "densities": ("DensityModel", "ContaminationSpec", "tent_density", "uniform_density",
                  "low_entropy_alt", "prop1_mixture", "binary_entropy",
                  "disjoint_mixture_entropy", "mi_adversary", "discrete_mi_adversary",
                  "kl_step_pair", "sample", "affine_rescale"),
    "oracle": ("QuadratureResult", "integrate_box", "numeric_entropy",
               "quantized_companion", "check_density_gap", "check_sup_bound",
               "check_xlogx_gap", "check_entropy_continuity", "exact_discrete_entropy",
               "expected_plugin_entropy_enum", "kl_true_divergence"),
    "estimators": ("EstimateReport", "DemoReport", "EstimatorFailure", "ExternalEstimator",
                   "PinnedEntropyEstimator", "estimate_entropy_certified",
                   "estimate_mi_certified", "discrete_mi_plugin", "two_cell_kl_plugin",
                   "prop1_demo", "mi_adversary_demo", "kl_demo"),
    "errors": ("EntroboundError", "ValidityError", "OutOfSupportError",
               "QuadratureError", "IngestError"),
    "rng": ("generator", "split"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_OWNER]


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _OWNER:
        return getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})

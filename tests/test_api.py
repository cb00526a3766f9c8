"""The public surface: what ``entrobound`` exports, and what it no longer ships."""
import json
import os
import subprocess
import sys
from pathlib import Path

import entrobound

PUBLIC = [
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

# Test-only code that left the package: none of it may come back as an
# attribute of the package, of a module, or of a class ("module:Class").
REMOVED = {
    "entrobound": ["quantize_index", "discrete_entropy_bounds", "numeric_kl",
                   "trapezoid_entropy", "collision_probability"],
    "entrobound.bounds": ["discrete_entropy_bounds"],
    "entrobound.bounds:BoundParams": ["valid_for_theorem"],
    "entrobound.histogram": ["quantize_index", "_bin_indices", "_index_rows"],
    "entrobound.histogram:SparseHistogram": ["bins"],
    "entrobound.oracle": ["numeric_kl", "trapezoid_model", "trapezoid_entropy"],
    "entrobound.oracle:QuadratureResult": ["grid_cells"],
    "entrobound.oracle:ContinuityCheck": ["quad_error"],
    "entrobound.densities": ["collision_probability", "_tent1_cdf"],
    "entrobound.densities:DensityModel": ["cdf"],
    "entrobound.densities:DiscreteMiAdversary": ["collision_probability",
                                                 "collision_upper_bound"],
    "entrobound.cli": ["emit_csv", "emit_f64le"],
}

_PROBE = """
import dataclasses, importlib, inspect, json, sys
import entrobound
removed = json.loads(sys.argv[1])
present = []
for where, names in removed.items():
    module, _, cls = where.partition(":")
    owner = importlib.import_module(module)
    if cls:
        owner = getattr(owner, cls)
    there = set(dir(owner))
    if dataclasses.is_dataclass(owner):
        there |= {f.name for f in dataclasses.fields(owner)}
    present += [f"{where}.{n}" for n in names if n in there]
from entrobound.densities import _iid_cube
print(json.dumps({
    "all": entrobound.__all__,
    "unresolved": [n for n in entrobound.__all__ if not hasattr(entrobound, n)],
    "present": present,
    "iid_cube_parameters": list(inspect.signature(_iid_cube).parameters),
}))
"""


def test_public_surface_in_a_fresh_interpreter():
    env = dict(os.environ)
    src = str(Path(entrobound.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(REMOVED)], env=env,
                         capture_output=True, text=True, timeout=60, check=True).stdout
    surface = json.loads(out)
    assert surface["all"] == PUBLIC
    assert surface["unresolved"] == []
    assert surface["present"] == []
    assert "cdf1" not in surface["iid_cube_parameters"]

"""Certified-optimal clustering on perturbation-resilient instances.

The LP certifier either returns a provably optimal k-center / asymmetric
k-center / outlier k-center solution or a fractional witness that the instance
is not 2-perturbation resilient; the MST dynamic program solves resilient
outlier clustering exactly for k-median, k-means, k-center, and summed
p-th-power objectives.

Importing the package loads ``core``, ``approx``, ``lp`` and ``simplex``,
which the certifier needs. The modules ``generator``, ``mstdp``, ``oracle``
and ``perturb``, and the names taken from them, load on first use (a PEP 562
module ``__getattr__``), so a process that only certifies never imports them.
"""

from importlib import import_module as _import_module

from .approx import GONZALEZ, HOCHBAUM_SHMOYS, ApproxResult, gonzalez, hochbaum_shmoys, recover_via_2approx
from .core import (
    ASYMMETRIC,
    KCENTER,
    KMEANS,
    KMEDIAN,
    MODES,
    NON_RESILIENT,
    OUTLIER,
    OUTLIER_MODE,
    SYMMETRIC,
    AsymmetricUnsupported,
    Clustering,
    ClusteringInvalid,
    EmptyCenters,
    Instance,
    InternalCheckFailed,
    Objective,
    cost,
    lp_norm,
    objective_by_name,
    validate_metric,
    voronoi,
)
from .lp import (
    ASYM_KC,
    KC,
    KCO,
    NOT_2PR,
    OPTIMAL,
    CertifierVerdict,
    LpOutcome,
    Packing,
    build_threshold_graph,
    certify,
    extract_integral,
    min_feasible_radius,
    solve_lp,
)
from .simplex import SolverPrecisionExceeded

# name -> the submodule that defines it, imported on first use; each
# submodule's own name maps to itself
_LAZY = {
    **dict.fromkeys(("generator", "ConfigInfeasible", "GeneratorConfig", "SeparationViolation",
                     "generate", "verify_planted"), "generator"),
    **dict.fromkeys(("mstdp", "BinaryTree", "Infeasible", "binarize", "build_mst", "solve_btp",
                     "solve_outlier_clustering"), "mstdp"),
    **dict.fromkeys(("oracle", "InstanceTooLarge", "OracleResult", "brute_force",
                     "brute_force_kminus1_check"), "oracle"),
    **dict.fromkeys(("perturb", "DIRECTED", "NOT_RESILIENT", "RESILIENT_UNREFUTED", "UNDIRECTED",
                     "FalsifierReport", "InvalidPerturbation", "PerturbationSpec",
                     "apply_perturbation", "falsify_resilience", "radius_preserving_check"),
                    "perturb"),
}


def __getattr__(name):
    source = _LAZY.get(name)
    if source is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f"{__name__}.{source}")
    if name != source:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY} - {"_LAZY", "_import_module", "__getattr__", "__dir__"})


__all__ = [name for name in __dir__() if not name.startswith("_")]
__version__ = "0.1.0"

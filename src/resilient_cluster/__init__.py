"""Certified-optimal clustering on perturbation-resilient instances.

The LP certifier either returns a provably optimal k-center / asymmetric
k-center / outlier k-center solution or a fractional witness that the instance
is not 2-perturbation resilient; the MST dynamic program solves resilient
outlier clustering exactly for k-median, k-means, k-center, and summed
p-th-power objectives.
"""

from .approx import GONZALEZ, HOCHBAUM_SHMOYS, ApproxResult, gonzalez, hochbaum_shmoys, recover_via_2approx
from .core import (
    KCENTER,
    KMEANS,
    KMEDIAN,
    OUTLIER,
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
from .generator import (
    ASYMMETRIC,
    MODES,
    NON_RESILIENT,
    OUTLIER_MODE,
    SYMMETRIC,
    ConfigInfeasible,
    GeneratorConfig,
    SeparationViolation,
    generate,
    verify_planted,
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
from .mstdp import BinaryTree, Infeasible, binarize, build_mst, solve_btp, solve_outlier_clustering
from .oracle import InstanceTooLarge, OracleResult, brute_force, brute_force_kminus1_check
from .perturb import (
    DIRECTED,
    NOT_RESILIENT,
    RESILIENT_UNREFUTED,
    UNDIRECTED,
    FalsifierReport,
    InvalidPerturbation,
    PerturbationSpec,
    apply_perturbation,
    falsify_resilience,
    radius_preserving_check,
)
from .simplex import SolverPrecisionExceeded

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

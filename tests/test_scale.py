"""Verdicts that do not depend on the scale of the distances.

A float instance's one tolerance is relative to its largest finite distance.
Multiplying every distance by a power of two is exact in binary floating
point, and so is every sum, comparison and tolerance formed from the scaled
matrix, so each result must scale exactly: the same kinds, routes and
partitions, and radii and costs multiplied by the scale (k-means costs by its
square: the oracle compares objective values with a tolerance relative to the
largest term).
"""

import math
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from resilient_cluster import (
    ASYM_KC,
    KC,
    KCENTER,
    KCO,
    KMEANS,
    KMEDIAN,
    OPTIMAL,
    GeneratorConfig,
    Instance,
    brute_force,
    certify,
    generate,
    solve_outlier_clustering,
    validate_metric,
)
from resilient_cluster.core import (
    FLOAT_TOL,
    DiagonalViolation,
    PositivityViolation,
    SymmetryViolation,
    TriangleViolation,
)
from resilient_cluster.mstdp import Infeasible

from conftest import encoded_metric


def scaled(inst, scale):
    return Instance(tuple(tuple(d * scale for d in row) for row in inst.dist),
                    inst.k, inst.z, inst.symmetric)


# ---------------------------------------------------------------------------
# the two instances an absolute tolerance got wrong at 1e-12


def test_planted_instance_at_1e_minus_12_certifies_its_own_radius():
    for mode, z, formulation in (("symmetric", 0, KC), ("outlier", 2, KCO)):
        base, planted = generate(GeneratorConfig(n=32, k=3, z=z, seed=0, mode=mode))
        inst = scaled(base, 1e-12)
        assert validate_metric(inst) == []
        verdict = certify(inst, formulation)
        assert verdict.kind == OPTIMAL
        assert verdict.lp_radius == 995 * 1e-12
        assert verdict.clustering.partition_key() == planted.partition_key()


def test_brute_force_at_1e_minus_12_finds_the_optimum():
    base, _ = generate(GeneratorConfig(n=10, k=2, seed=1))
    assert brute_force(base, KCENTER).cost == 983
    assert brute_force(scaled(base, 1e-12), KCENTER).cost == 983 * 1e-12


# ---------------------------------------------------------------------------
# every result scales exactly


def partition(clustering):
    return None if clustering is None else clustering.partition_key()


def mstdp_partition(inst, obj):
    try:
        return solve_outlier_clustering(inst, obj).partition_key()
    except Infeasible:
        return None


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000), formulation=st.sampled_from([KC, ASYM_KC, KCO]),
       exponent=st.sampled_from([40, -40, 330, -330]))
# a k-means term d**2 taken by libm's pow came out one ulp apart at the two
# scales here; the product d * d does not
@example(seed=431, formulation=KCO, exponent=40)
def test_float_results_scale_exactly(seed, formulation, exponent):
    rng = random.Random(seed)
    n = rng.randint(4, 9)
    z = rng.randint(1, 2) if formulation == KCO else 0
    inst = encoded_metric(rng, n, rng.randint(1, n - z - 1), z, "float",
                          directed=formulation == ASYM_KC)
    scale = 2.0**exponent
    big = scaled(inst, scale)
    assert big.tol == inst.tol * scale
    assert validate_metric(big) == validate_metric(inst)

    want, got = certify(inst, formulation), certify(big, formulation)
    assert (got.kind, got.route) == (want.kind, want.route)
    assert got.lp_radius / scale == want.lp_radius
    assert partition(got.clustering) == partition(want.clustering)

    for obj in (KCENTER, KMEDIAN):
        want, got = brute_force(inst, obj), brute_force(big, obj)
        assert got.cost / scale == want.cost
        assert got.unique == want.unique
        assert got.best.partition_key() == want.best.partition_key()
    if abs(exponent) == 40:  # k-means terms at 2^±660 leave the float range
        want, got = brute_force(inst, KMEANS), brute_force(big, KMEANS)
        assert got.cost / scale**2 == want.cost
        assert got.unique == want.unique
        assert got.best.partition_key() == want.best.partition_key()

    if inst.symmetric:
        for obj in (KCENTER, KMEDIAN, KMEANS):
            assert mstdp_partition(big, obj) == mstdp_partition(inst, obj)


# ---------------------------------------------------------------------------
# the scale is taken from finite entries only

NAN, INF = math.nan, math.inf
NON_FINITE = (
    (0.0, 1.0, 5.0, NAN, 2.0),
    (1.0, 0.0, INF, 3.0, 1.0),
    (5.0, INF, 0.0, 1.5, -INF),
    (NAN, 2.5, 1.5, NAN, 1.0),
    (2.0, 1.0, 0.5, 1.0, 0.0),
)
# what validate_metric reported when its tolerance was an absolute 1e-9, with
# the NaN pairs (0, 3) and (3, 0), which fail the positivity test
HEAD = [PositivityViolation(0, 3), PositivityViolation(2, 4), DiagonalViolation(3),
        PositivityViolation(3, 0)]
SYMMETRIC_TRIANGLES = [(1, 0, 2), (0, 2, 4), (3, 2, 4), (4, 2, 4), (1, 3, 2), (0, 4, 2),
                       (1, 4, 2), (1, 4, 3), (2, 4, 2), (2, 4, 3)]
DIRECTED_TRIANGLES = [(1, 0, 2), (2, 0, 1), (0, 2, 4), (3, 2, 4), (4, 2, 4), (1, 3, 2),
                      (2, 3, 1), (0, 4, 2), (1, 4, 2), (1, 4, 3), (2, 4, 0), (2, 4, 1),
                      (2, 4, 2), (2, 4, 3), (3, 4, 1)]


def test_non_finite_entries_leave_the_tolerance_and_the_violations_alone():
    symmetric = Instance(NON_FINITE, k=1)
    directed = Instance(NON_FINITE, k=1, symmetric=False)
    assert symmetric.tol == directed.tol == FLOAT_TOL * 5.0
    assert validate_metric(symmetric) == (
        HEAD + [SymmetryViolation(1, 3), SymmetryViolation(2, 4)]
        + [TriangleViolation(*t) for t in SYMMETRIC_TRIANGLES])
    assert validate_metric(directed) == HEAD + [TriangleViolation(*t) for t in DIRECTED_TRIANGLES]
    for inst in (symmetric, directed):
        for exponent in (40, -40):
            assert validate_metric(scaled(inst, 2.0**exponent)) == validate_metric(inst)

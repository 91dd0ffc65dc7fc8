"""Tests for the brute-force ground-truth solvers."""

import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as reference
from resilient_cluster import (
    KCENTER,
    KMEANS,
    KMEDIAN,
    Instance,
    InstanceTooLarge,
    Objective,
    brute_force,
    brute_force_kminus1_check,
    cost,
    lp_norm,
    oracle,
)
from resilient_cluster.core import term_matrix

from conftest import encoded_metric, line_instance, random_metric_instance, uniform_instance


def test_two_points_single_cluster_is_unique():
    inst = Instance(((0, 1), (1, 0)), k=1)
    res = brute_force(inst, KCENTER)
    assert res.cost == 1
    # either point can serve as center but both induce the same single-cluster
    # partition, so the optimum is unique at partition level
    assert res.unique
    assert res.tie_witness is None


def test_line_kmedian(line4):
    res = brute_force(line4, KMEDIAN)
    assert res.cost == 2
    assert res.unique
    assert res.best.partition_key()[0] == frozenset(
        {frozenset({0, 1}), frozenset({2, 3})}
    )


def test_uniform_metric_is_not_unique():
    res = brute_force(uniform_instance(4, 2), KCENTER)
    assert res.cost == 1
    assert not res.unique
    assert res.tie_witness is not None
    assert res.tie_witness.partition_key() != res.best.partition_key()
    assert cost(uniform_instance(4, 2), res.tie_witness, KCENTER) == res.cost


def test_outlier_choice_tie_detected():
    # symmetric extremes: either endpoint may be the single outlier at equal cost
    inst = line_instance([-100, 0, 100], k=1, z=1)
    res = brute_force(inst, KCENTER)
    assert res.cost == 100
    assert not res.unique
    assert res.tie_witness.outliers != res.best.outliers


def test_outlier_selection_prefers_farthest():
    inst = line_instance([0, 1, 2, 100], k=1, z=1)
    res = brute_force(inst, KMEDIAN)
    assert res.best.outliers == {3}
    assert res.cost == 2  # center 1 serves {0, 1, 2}


def test_work_cap():
    inst = uniform_instance(30, 10)
    with pytest.raises(InstanceTooLarge):
        brute_force(inst, KCENTER, work_cap=1000)


def test_kminus1_check_uniform_true():
    inst = uniform_instance(3, 2)
    res = brute_force(inst, KCENTER)
    assert brute_force_kminus1_check(inst, res)


def test_kminus1_check_k1_false_by_convention():
    inst = uniform_instance(3, 1)
    res = brute_force(inst, KCENTER)
    assert not brute_force_kminus1_check(inst, res)


def test_kminus1_check_separated_false(line4):
    res = brute_force(line4, KCENTER)
    assert res.cost == 1
    assert not brute_force_kminus1_check(line4, res)


@pytest.mark.parametrize("seed", range(12))
def test_oracle_lower_bounds_heuristics(seed):
    from resilient_cluster import recover_via_2approx, solve_outlier_clustering

    rng = random.Random(seed)
    n = rng.randint(4, 9)
    k = rng.randint(1, 3)
    inst = random_metric_instance(rng, n, k)
    res = brute_force(inst, KCENTER)
    for alg in ("gonzalez", "hochbaum-shmoys"):
        assert cost(inst, recover_via_2approx(inst, alg), KCENTER) >= res.cost
    med = brute_force(inst, KMEDIAN)
    assert cost(inst, solve_outlier_clustering(inst, KMEDIAN), KMEDIAN) >= med.cost


# ---------------------------------------------------------------------------
# the blockwise oracle against the scalar reference

# the last two are maxima whose terms are not the distances, the last one
# under a fractional exponent
ORACLE_OBJECTIVES = (
    KCENTER, KMEDIAN, KMEANS, lp_norm(Fraction(3, 2)), Objective(2, "max", "max-sq"),
    Objective(Fraction(1, 2), "max", "max-root"),
)


def same_result(got, want):
    assert type(got.cost) is type(want.cost)
    assert got.cost == want.cost
    assert got.best == want.best
    assert got.unique == want.unique
    assert got.tie_witness == want.tie_witness


@pytest.mark.parametrize("obj", ORACLE_OBJECTIVES[:3], ids=lambda obj: obj.name)
def test_work_cap_counts_the_center_sets(obj):
    # the z = 2 outliers of a center set are its two farthest points, so the
    # work is the C(9, 2) = 36 center sets, not 36 * C(7, 2) = 756
    inst = random_metric_instance(random.Random(5), 9, 2, z=2)
    want = reference.brute_force(inst, obj)
    got = brute_force(inst, obj, work_cap=36)
    same_result(got, want)
    # C(9, 1) = 9 sets of k - 1 centers, not 9 * C(8, 2) = 252
    assert brute_force_kminus1_check(inst, got, work_cap=9) == \
        reference.brute_force_kminus1_check(inst, want)
    with pytest.raises(InstanceTooLarge, match=r"^C\(9,2\) = 36 center sets exceed cap 35$"):
        brute_force(inst, obj, work_cap=35)
    with pytest.raises(InstanceTooLarge, match=r"^C\(9,1\) = 9 center sets exceed cap 8$"):
        brute_force_kminus1_check(inst, got, work_cap=8)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(2, 9),
    encoding=st.sampled_from(("int", "fraction", "float")),
    obj=st.sampled_from(ORACLE_OBJECTIVES),
    z=st.integers(0, 2),
    directed=st.booleans(),
)
def test_brute_force_matches_scalar_reference(seed, n, encoding, obj, z, directed):
    rng = random.Random(seed)
    z = min(z, n - 1)
    k = rng.randint(1, min(3, n - z))
    inst = encoded_metric(rng, n, k, z, encoding, directed)
    want = reference.brute_force(inst, obj)
    want_kminus1 = reference.brute_force_kminus1_check(inst, want)
    # the default block holds every center set; one and two sets per block
    # exercise the block boundaries of both passes
    for cells in (oracle.BLOCK_CELLS, n, 2 * n):
        saved, oracle.BLOCK_CELLS = oracle.BLOCK_CELLS, cells
        try:
            got = brute_force(inst, obj)
            same_result(got, want)
            assert brute_force_kminus1_check(inst, got) == want_kminus1
        finally:
            oracle.BLOCK_CELLS = saved


def test_uniform_metric_ties_match_reference():
    for n, k, z in ((5, 2, 0), (6, 2, 2), (7, 3, 1)):
        inst = uniform_instance(n, k, z=z)
        for obj in ORACLE_OBJECTIVES:
            same_result(brute_force(inst, obj), reference.brute_force(inst, obj))


@pytest.mark.parametrize("scale", [1, 10**12, 2**60 - 1, 2**60, 2**70])
def test_large_int_distances_match_reference(scale):
    inst = line_instance([0, 1, 3, 7, 8], k=2, z=1)
    inst = Instance(tuple(tuple(scale * d for d in row) for row in inst.dist), 2, 1)
    for obj in ORACLE_OBJECTIVES:
        same_result(brute_force(inst, obj), reference.brute_force(inst, obj))


@pytest.mark.parametrize("z", [0, 1])
@pytest.mark.parametrize("obj", ORACLE_OBJECTIVES[:3], ids=lambda o: o.name)
def test_term_routes_either_side_of_2_pow_53(obj, z):
    # int64 distances with n * max**e < 2**53 have float64 terms; one more at
    # the top and their terms are Python ints
    n, e = 5, obj.exponent
    top = round((2**53 / n) ** (1 / e))  # the largest top with n * top**e < 2**53
    while n * top**e >= 2**53:
        top -= 1
    while n * (top + 1) ** e < 2**53:
        top += 1
    for t, float_terms in ((top, True), (top + 1, False)):
        inst = line_instance([0, 1, 3, t - 1, t], k=2, z=z)
        assert inst._array.dtype == np.int64
        assert term_matrix(inst, obj)[0].dtype == (np.float64 if float_terms else object)
        same_result(brute_force(inst, obj), reference.brute_force(inst, obj))


def test_a_block_of_every_set_is_built_once():
    (first,) = oracle._blocks(18, 3)
    (again,) = oracle._blocks(18, 3)
    assert again is first and not first.flags.writeable
    assert first.tolist() == [list(c) for c in combinations(range(18), 3)]


@pytest.mark.parametrize("n, k", [(7, 3), (9, 2), (6, 6), (5, 1)])
def test_blocks_hold_every_set_once_in_order(monkeypatch, n, k):
    want = [list(c) for c in combinations(range(n), k)]
    for cells in (oracle.BLOCK_CELLS, n, 2 * n, 5 * n):
        monkeypatch.setattr(oracle, "BLOCK_CELLS", cells)
        blocks = list(oracle._blocks(n, k))
        assert all(len(C) <= max(1, cells // n) for C in blocks)
        assert np.concatenate(blocks).tolist() == want


def test_ints_from_2_pow_63_are_not_rounded():
    # {0, 1} and {2, 3} cost B; every other partition costs B + 1 or more,
    # which float64 would round to B
    B = 3 * 2**61
    dist = (
        (0, B, 2 * B, 2 * B),
        (B, 0, B + 1, B + 1),
        (2 * B, B + 1, 0, 1),
        (2 * B, B + 1, 1, 0),
    )
    inst = Instance(dist, k=2)
    res = brute_force(inst, KCENTER)
    assert res.cost == B and res.unique
    for obj in ORACLE_OBJECTIVES:
        same_result(brute_force(inst, obj), reference.brute_force(inst, obj))


def test_float_near_tie_keeps_the_first_best():
    # center 0 costs 0.1 + 0.2 = 0.30000000000000004, center 1 costs 0.3: within
    # the float tolerance, so the first value found stays the best
    d12 = 0.19999999999999998
    inst = Instance(((0, 0.1, 0.2), (0.1, 0, d12), (0.2, d12, 0)), k=1)
    res = brute_force(inst, KMEDIAN)
    assert res.cost == 0.1 + 0.2 and res.unique
    same_result(res, reference.brute_force(inst, KMEDIAN))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(2, 9),
    encoding=st.sampled_from(("int", "fraction")),
    obj=st.sampled_from((KCENTER, KMEDIAN, KMEANS)),
    z=st.integers(0, 2),
    directed=st.booleans(),
)
def test_brute_force_relabelling(seed, n, encoding, obj, z, directed):
    rng = random.Random(seed)
    z = min(z, n - 1)
    k = rng.randint(1, min(3, n - z))
    inst = encoded_metric(rng, n, k, z, encoding, directed)
    perm = list(range(n))  # point u is called perm[u] after relabelling
    rng.shuffle(perm)
    dist = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(n):
            dist[perm[u]][perm[v]] = inst.dist[u][v]
    moved = Instance(dist, k, z, symmetric=inst.symmetric)
    res, res_moved = brute_force(inst, obj), brute_force(moved, obj)
    assert res_moved.cost == res.cost
    assert res_moved.unique == res.unique
    if res.unique:
        clusters, outliers = res.best.partition_key()
        assert res_moved.best.partition_key() == (
            frozenset(frozenset(perm[u] for u in members) for members in clusters),
            frozenset(perm[u] for u in outliers),
        )

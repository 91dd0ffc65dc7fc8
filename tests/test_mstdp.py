"""Tests for the MST build, binary-tree transform, and the partition DP."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilient_cluster import (
    KCENTER,
    KMEANS,
    KMEDIAN,
    AsymmetricUnsupported,
    GeneratorConfig,
    Instance,
    binarize,
    brute_force,
    build_mst,
    cost,
    generate,
    lp_norm,
    solve_btp,
    solve_outlier_clustering,
)

import scalar_reference as reference
from conftest import line_instance, random_metric_instance, uniform_instance

# distance encodings that keep a metric and its order of distances: int64,
# Fractions and floats, and ints beyond int64 (an object array)
ENCODINGS = {
    "int": lambda d: d,
    "fraction": lambda d: Fraction(d, 7),
    "float": lambda d: d / 3,
    "big": lambda d: d and d + 2**64,
}


def star_instance(leaves, spoke=1, k=1, z=0):
    n = leaves + 1
    dist = [[0] * n for _ in range(n)]
    for u in range(1, n):
        dist[0][u] = dist[u][0] = spoke
        for v in range(1, n):
            if u != v:
                dist[u][v] = 2 * spoke
    return Instance(tuple(map(tuple, dist)), k, z)


def test_mst_two_points():
    assert build_mst(Instance(((0, 5), (5, 0)), k=1)) == ((0, 1),)


def test_mst_line_path(line4):
    assert set(build_mst(line4)) == {(0, 1), (1, 2), (2, 3)}


def test_mst_requires_symmetry():
    with pytest.raises(AsymmetricUnsupported):
        build_mst(Instance(((0, 1), (2, 0)), k=1, symmetric=False))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 14),
    high=st.sampled_from((2, 3, 60)),
    encoding=st.sampled_from(tuple(ENCODINGS)),
)
def test_mst_matches_kruskal_reference_edge_for_edge(seed, n, high, encoding):
    # weights 1..2 or 1..3 leave most distances tied: the edges and their
    # order must follow the (d, u, v) tie-break exactly
    rng = random.Random(seed)
    closed = random_metric_instance(rng, n, k=1, high=high)
    scale = ENCODINGS[encoding]
    inst = Instance(tuple(tuple(map(scale, row)) for row in closed.dist), k=1)
    assert build_mst(inst) == reference.build_mst(inst)


def test_planted_clusters_are_mst_subtrees():
    for seed in range(5):
        inst, planted = generate(GeneratorConfig(n=12, k=3, z=2, seed=seed, mode="outlier"))
        edges = build_mst(inst)
        adj = {u: set() for u in range(inst.n)}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        for members in planted.clusters():
            # the cluster must be connected using only its own vertices
            todo = [members[0]]
            seen = {members[0]}
            member_set = set(members)
            while todo:
                u = todo.pop()
                for v in adj[u] & member_set - seen:
                    seen.add(v)
                    todo.append(v)
            assert seen == member_set


def test_binarize_path_unchanged(line4):
    btree = binarize(build_mst(line4), line4)
    assert btree.size == 4  # no dummies
    assert btree.root == 0
    assert btree.contracted_edges() == {(0, 1), (1, 2), (2, 3)}


def test_binarize_star_three_leaves_one_dummy():
    inst = star_instance(3)
    btree = binarize(build_mst(inst), inst)
    assert btree.size == inst.n + 1
    assert btree.is_dummy == (False,) * 4 + (True,)
    assert btree.contracted_edges() == {(0, 1), (0, 2), (0, 3)}


def test_binarize_star_five_leaves_three_dummies():
    inst = star_instance(5)
    btree = binarize(build_mst(inst), inst)
    assert btree.size == inst.n + 3
    for u in range(btree.size):
        assert len(btree.children(u)) <= 2


def test_binarize_star_six_leaves_layout():
    # each dummy takes the two smallest children, and the node's list stays
    # ascending with the dummy at its end
    inst = star_instance(6)
    btree = binarize(build_mst(inst), inst)
    assert btree.left == (9, -1, -1, -1, -1, -1, -1, 1, 3, 5, 7)
    assert btree.right == (10, -1, -1, -1, -1, -1, -1, 2, 4, 6, 8)
    assert btree.parent == (-1, 7, 7, 8, 8, 9, 9, 10, 10, 0, 0)


@pytest.mark.parametrize("tree", [[(0, 1)], [(0, 1), (1, -1)], [(0, 1), (1, 3)]])
def test_binarize_rejects_an_edge_list_that_does_not_span(tree):
    # -1 would index the last point's list, so it is rejected by its range
    with pytest.raises(ValueError):
        binarize(tree, uniform_instance(3, 1))


def test_binarize_numbers_dummies_from_the_highest_node_down():
    # 0 has children 1, 2, 3 and 1 has 4, 5, 6: node 1 is split first, so
    # its dummy is 7 and node 0's is 8
    tree = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (1, 6)]
    btree = binarize(tree, uniform_instance(7, 1))
    assert btree.left == (3, 6, -1, -1, -1, -1, -1, 4, 1)
    assert btree.right == (8, 7, -1, -1, -1, -1, -1, 5, 2)
    assert btree.parent == (-1, 8, 8, 0, 7, 7, 1, 1, 0)
    assert btree.is_dummy == (False,) * 7 + (True, True)


def test_dp_all_singletons():
    inst = uniform_instance(4, 4)
    clus = solve_outlier_clustering(inst, KMEDIAN)
    assert cost(inst, clus, KMEDIAN) == 0
    assert clus.clusters() == [[0], [1], [2], [3]]


def test_dp_line_kmedian(line4):
    clus = solve_outlier_clustering(line4, KMEDIAN)
    assert cost(line4, clus, KMEDIAN) == 2
    assert clus.partition_key()[0] == frozenset({frozenset({0, 1}), frozenset({2, 3})})


def test_dp_line_with_outlier():
    inst = line_instance([0, 1, 10, 11, 100], k=2, z=1)
    clus = solve_outlier_clustering(inst, KMEDIAN)
    assert cost(inst, clus, KMEDIAN) == 2
    assert clus.outliers == {4}


def test_dp_uses_fewer_outliers_when_cheaper():
    # z = 1, but keeping every point is already optimal
    inst = line_instance([0, 1, 2], k=1, z=1)
    clus = solve_outlier_clustering(inst, KMEDIAN)
    assert cost(inst, clus, KMEDIAN) <= 2


def test_dp_star_needs_dummy_handling():
    inst = star_instance(5, k=2, z=1)
    res = brute_force(inst, KMEDIAN)
    clus = solve_outlier_clustering(inst, KMEDIAN)
    assert cost(inst, clus, KMEDIAN) == res.cost
    assert clus.outlier_count <= 1
    assert len(clus.assignment) == inst.n  # dummies never leak out


@pytest.mark.parametrize("obj", [KMEDIAN, KMEANS, KCENTER, lp_norm(3)])
def test_dp_matches_oracle_on_planted_outlier_instances(obj):
    for seed in range(6):
        inst, _ = generate(GeneratorConfig(n=11, k=2, z=2, seed=seed, mode="outlier"))
        res = brute_force(inst, obj)
        clus = solve_outlier_clustering(inst, obj)
        assert cost(inst, clus, obj) == res.cost
        assert clus.partition_key() == res.best.partition_key()


def test_dp_matches_oracle_when_optimum_is_subtree_structured():
    rng = random.Random(0)
    checked = 0
    for _ in range(40):
        n = rng.randint(4, 8)
        k = rng.randint(1, 3)
        z = rng.randint(0, min(2, n - k - 1)) if n - k > 1 else 0
        inst = random_metric_instance(rng, n, k, z=z)
        res = brute_force(inst, KMEDIAN)
        edges = build_mst(inst)
        adj = {u: set() for u in range(n)}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)

        def connected(members):
            members = set(members)
            todo = [next(iter(members))]
            seen = {todo[0]}
            while todo:
                u = todo.pop()
                for v in adj[u] & members - seen:
                    seen.add(v)
                    todo.append(v)
            return seen == members

        if not all(connected(m) for m in res.best.clusters()):
            continue
        checked += 1
        clus = solve_outlier_clustering(inst, KMEDIAN)
        assert cost(inst, clus, KMEDIAN) == res.cost
    assert checked >= 10  # the filter must leave real coverage


def test_dp_monotone_in_outlier_budget():
    rng = random.Random(3)
    inst0 = random_metric_instance(rng, 8, k=2, z=0)
    costs = []
    for z in range(3):
        inst = inst0.replace(z=z)
        clus = solve_outlier_clustering(inst, KMEDIAN)
        costs.append(cost(inst, clus, KMEDIAN))
    assert costs[0] >= costs[1] >= costs[2]


def test_dp_float_instance():
    coords = [0.0, 1.25, 10.5, 11.0]
    dist = tuple(tuple(abs(a - b) for b in coords) for a in coords)
    inst = Instance(dist, k=2)
    clus = solve_outlier_clustering(inst, KMEDIAN)
    assert cost(inst, clus, KMEDIAN) == pytest.approx(1.75)


def test_solve_btp_separately(line4):
    btree = binarize(build_mst(line4), line4)
    clus = solve_btp(line4, btree, KCENTER)
    assert cost(line4, clus, KCENTER) == 1


def test_center_proximity_properties_on_oracle_optimum():
    # resilient outlier optima keep every point strictly closer to its center
    # than to anything outside the cluster, with the 2x center-dominance form
    from resilient_cluster import verify_planted

    for seed in (0, 4):
        inst, _ = generate(GeneratorConfig(n=12, k=2, z=2, seed=seed, mode="outlier"))
        res = brute_force(inst, KMEDIAN)
        assert verify_planted(inst, res.best, KMEDIAN) == []

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
    # all leaves: each dummy takes the two lowest-id children of the lowest
    # height, and every child list is ascending
    inst = star_instance(6)
    btree = binarize(build_mst(inst), inst)
    assert btree.left == (9, -1, -1, -1, -1, -1, -1, 1, 3, 5, 7)
    assert btree.right == (10, -1, -1, -1, -1, -1, -1, 2, 4, 6, 8)
    assert btree.parent == (-1, 7, 7, 8, 8, 9, 9, 10, 10, 0, 0)


@pytest.mark.parametrize("tree", [
    [(0, 1)], [(0, 1), (1, -1)], [(0, 1), (1, 3)],
    # a cycle, a repeated edge and a self-loop each reach all three points,
    # with one edge more than a tree on them has
    [(0, 1), (1, 2), (0, 2)], [(0, 1), (0, 1), (1, 2)], [(0, 0), (0, 1), (1, 2)],
])
def test_binarize_rejects_an_edge_list_that_does_not_span(tree):
    # -1 would index the last point's list, so it is rejected by its range
    with pytest.raises(ValueError):
        binarize(tree, uniform_instance(3, 1))


@pytest.mark.parametrize("tree_n, inst_n", [(3, 4), (4, 3)])
def test_solve_btp_rejects_a_tree_built_for_another_point_count(tree_n, inst_n):
    tree_inst = uniform_instance(tree_n, 1)
    btree = binarize(build_mst(tree_inst), tree_inst)
    with pytest.raises(ValueError, match=f"built for {tree_n} points, the instance has {inst_n}"):
        solve_btp(uniform_instance(inst_n, 1), btree, KMEDIAN)


def test_binarize_pairs_the_lowest_children_first_from_the_deepest_node_up():
    # 0 has children 1, 2, 3 and 1 has 4, 5, 6: node 1 is deeper, so it is
    # split first and its dummy is 7, over its lowest-id leaves 4 and 5; node
    # 1 then has height 2, so node 0 pairs its leaves 2 and 3 under dummy 8
    # and keeps 1 beside it, for a height of 3 where pairing by id gives 4
    tree = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (1, 6)]
    btree = binarize(tree, uniform_instance(7, 1))
    assert btree.left == (1, 6, -1, -1, -1, -1, -1, 4, 2)
    assert btree.right == (8, 7, -1, -1, -1, -1, -1, 5, 3)
    assert btree.parent == (-1, 0, 8, 8, 7, 7, 1, 1, 0)
    assert btree.is_dummy == (False,) * 7 + (True, True)


def test_binarize_gives_every_node_the_least_height():
    # merging a node's children lowest height first (the minimax merge) puts
    # m >= 2 children of heights h_i under a node of the least height H with
    # sum 2**h_i <= 2**H; a leaf has height 0 and a one-child node h + 1
    rng = random.Random(40)
    for _ in range(300):
        n = rng.randint(1, 40)
        # each point hangs from an earlier one, from a few hubs when star-heavy
        hubs = rng.choice((1, 2, 3, n))
        up = [None] + [rng.randrange(min(u, hubs)) for u in range(1, n)]
        tree = [(u, p) if rng.random() < 0.5 else (p, u) for u, p in enumerate(up) if u]
        btree = binarize(tree, uniform_instance(n, 1))

        def height(u):
            return 1 + max((height(w) for w in btree.children(u)), default=-1)

        assert btree.root == 0
        assert btree.contracted_edges() == {(p, u) for u, p in enumerate(up) if u}
        assert all(len(btree.children(u)) <= 2 for u in range(btree.size))
        for u in range(n):
            hs = [height(v) for v in range(n) if up[v] == u]
            if len(hs) < 2:
                want = hs[0] + 1 if hs else 0
            else:
                want = (sum(2**h for h in hs) - 1).bit_length()
            assert height(u) == want, (tree, u)


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

"""The vectorized MST-DP: number types, its internal check, scale and relabelling."""

import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilient_cluster import (
    KCENTER,
    KMEANS,
    KMEDIAN,
    OUTLIER,
    Clustering,
    GeneratorConfig,
    Instance,
    InternalCheckFailed,
    brute_force,
    cost,
    generate,
    lp_norm,
    mstdp,
    solve_outlier_clustering,
)
from resilient_cluster.core import term_matrix

import scalar_reference as reference
from conftest import line_instance, random_metric_instance

OBJECTIVES = (KMEDIAN, KMEANS, KCENTER, lp_norm(3))


def planted_outlier(n, k, z, seed):
    return generate(GeneratorConfig(n=n, k=k, z=z, seed=seed, mode="outlier"))


def encoded(inst, scale):
    return Instance(
        tuple(tuple(scale(d) for d in row) for row in inst.dist), inst.k, inst.z
    )


def table_type(inst, obj):
    E, exact = term_matrix(inst, obj)
    return E.dtype, exact


@pytest.mark.parametrize("seed", range(6))
def test_fractional_exponent_keeps_planted_optimum(seed):
    # float terms summed in tree order and in point order differ in the last
    # bits; the check after reconstruction must not read that as a bug
    inst, planted = planted_outlier(40, 3, 2, seed)
    obj = lp_norm(Fraction(3, 2))
    clus = solve_outlier_clustering(inst, obj)
    assert clus.partition_key() == planted.partition_key()
    assert cost(inst, clus, obj) == pytest.approx(cost(inst, planted, obj))


def test_number_type_routes():
    inst, _ = planted_outlier(20, 3, 2, 5)
    assert table_type(inst, KMEANS) == (np.float64, True)
    assert table_type(encoded(inst, lambda d: d * 10**12), KMEANS) == (object, True)
    assert table_type(encoded(inst, lambda d: Fraction(d, 7)), KMEDIAN) == (object, True)
    assert table_type(encoded(inst, lambda d: d / 3), KMEDIAN) == (np.float64, False)
    assert table_type(inst, lp_norm(Fraction(3, 2))) == (np.float64, False)


@pytest.mark.parametrize("obj", OBJECTIVES, ids=lambda o: o.name)
def test_same_partition_under_every_encoding(obj):
    inst, _ = planted_outlier(20, 3, 2, 5)
    base = solve_outlier_clustering(inst, obj)
    base_cost = cost(inst, base, obj)
    p = obj.exponent
    for scale, factor in (
        (lambda d: d * 10**12, Fraction(10**12)),
        (lambda d: Fraction(d, 7), Fraction(1, 7)),
    ):
        scaled = encoded(inst, scale)
        clus = solve_outlier_clustering(scaled, obj)
        assert clus.partition_key() == base.partition_key()
        assert cost(scaled, clus, obj) == base_cost * factor**p
    floats = encoded(inst, lambda d: d / 3)
    clus = solve_outlier_clustering(floats, obj)
    assert clus.partition_key() == base.partition_key()
    assert cost(floats, clus, obj) == pytest.approx(base_cost / 3**p)


@pytest.mark.parametrize("obj", (KMEDIAN, KMEANS, KCENTER), ids=lambda o: o.name)
def test_planted_n256_recovered(obj):
    inst, planted = planted_outlier(256, 4, 3, 11)
    clus = solve_outlier_clustering(inst, obj)
    assert cost(inst, clus, obj) == cost(inst, planted, obj)


def test_cost_check_holds_at_a_small_scale():
    # an error of 0.1 % of the optimum, far below any absolute tolerance
    inst, _ = planted_outlier(16, 2, 2, 3)
    small = encoded(inst, lambda d: d * 1e-12)
    assert not small.exact
    real_cost = mstdp.cost
    solve_outlier_clustering(small, KMEDIAN)

    def off(inst, clus, obj):
        return real_cost(inst, clus, obj) * 1.001

    with mock.patch.object(mstdp, "cost", off):
        with pytest.raises(InternalCheckFailed, match="its clustering costs"):
            solve_outlier_clustering(small, KMEDIAN)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), obj=st.sampled_from((KMEDIAN, KMEANS, KCENTER)))
def test_float_partition_does_not_depend_on_the_scale(seed, obj):
    rng = random.Random(seed)
    n = rng.randint(8, 24)
    k = rng.randint(2, 3)
    z = rng.randint(1, 2)
    inst, _ = planted_outlier(n, k, z, seed)
    want = solve_outlier_clustering(encoded(inst, lambda d: d / 3), obj).partition_key()
    for exponent in (12, -12, 100, -100):
        scale = 10.0**exponent
        scaled = encoded(inst, lambda d: d / 3 * scale)
        assert solve_outlier_clustering(scaled, obj).partition_key() == want, exponent


def expect_corrupted_cost_rejected():
    """The exactness check after reconstruction rejects a cost one above the DP's."""
    inst, _ = planted_outlier(16, 2, 2, 3)
    real_cost = mstdp.cost
    mstdp.cost = lambda inst, clus, obj: real_cost(inst, clus, obj) + 1
    try:
        with pytest.raises(InternalCheckFailed):
            solve_outlier_clustering(inst, KMEDIAN)
    finally:
        mstdp.cost = real_cost


def test_corrupted_cost_raises_internal_check_failed():
    expect_corrupted_cost_rejected()


def test_corrupted_cost_raises_under_python_O():
    here = Path(__file__).resolve().parent
    env = dict(os.environ)
    paths = [str(here.parent / "src"), str(here), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    script = (
        "import sys\n"
        "if __debug__: sys.exit('not running under -O')\n"
        "from test_mstdp_numbers import expect_corrupted_cost_rejected\n"
        "expect_corrupted_cost_rejected()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_state_that_does_not_recompute_raises_internal_check_failed():
    # the root's optimal entry lowered below what its children give
    inst, _ = planted_outlier(16, 2, 2, 3)
    real_forward = mstdp._forward
    seen = {}

    def lowered(btree, own, K, T, combine):
        tab, M, inside = real_forward(btree, own, K, T, combine)
        flat = int(np.argmin(tab[K - 1, :, btree.root]))
        t, c = divmod(flat, btree.n_real + 1)
        tab[K - 1, t, btree.root, c] -= 1
        seen["state"] = (btree.root, K - 1, t, c)
        return tab, M, inside

    with mock.patch.object(mstdp, "_forward", lowered):
        with pytest.raises(InternalCheckFailed, match="does not recompute") as err:
            solve_outlier_clustering(inst, KMEDIAN)
    assert f"DP state {seen['state']} " in str(err.value)


def test_wrong_cluster_count_raises_internal_check_failed():
    # a leaf's entry for joining its parent's cluster with one more cluster
    # below it set to the leaf's own singleton cluster's cost: every side the
    # parent reads keeps its value, so each visited state recomputes, but the
    # leaf at 10 now joins the cluster of 0 and 1 instead of closing its own
    inst = line_instance([0, 1, 10], k=2)
    real_forward = mstdp._forward

    def tampered(btree, own, K, T, combine):
        tab, M, inside = real_forward(btree, own, K, T, combine)
        for w in range(btree.n_real):
            if not btree.children(w):
                row = tab[2, 0, w, : btree.n_real]
                row[~inside[w, : btree.n_real]] = M[1, 0, w, 0]
        return tab, M, inside

    with mock.patch.object(mstdp, "_forward", tampered):
        with pytest.raises(InternalCheckFailed, match=re.escape("produced 1 clusters, expected 2")):
            solve_outlier_clustering(inst, KMEDIAN)


def relabelled(inst, clus, perm):
    """perm[u] is the new label of point u."""
    n = inst.n
    dist = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(n):
            dist[perm[u]][perm[v]] = inst.dist[u][v]
    assignment = [OUTLIER] * n
    for u, g in enumerate(clus.assignment):
        assignment[perm[u]] = g
    centers = tuple(perm[c] for c in clus.centers)
    return Instance(tuple(map(tuple, dist)), inst.k, inst.z), Clustering(assignment, centers)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), obj=st.sampled_from(OBJECTIVES))
def test_relabelling_relabels_the_partition(seed, obj):
    rng = random.Random(seed)
    n = rng.randint(8, 24)
    k = rng.randint(2, 3)
    z = rng.randint(1, 2)
    inst, _ = planted_outlier(n, k, z, seed)
    clus = solve_outlier_clustering(inst, obj)
    perm = list(range(n))
    rng.shuffle(perm)
    moved, expected = relabelled(inst, clus, perm)
    got = solve_outlier_clustering(moved, obj)
    assert got.partition_key() == expected.partition_key()
    assert cost(moved, got, obj) == cost(inst, clus, obj)


# ---------------------------------------------------------------------------
# the folded forward pass against the four-case reference

ENCODINGS = {
    "int": lambda d: d,
    "fraction": lambda d: Fraction(d, 7),
    "float": lambda d: d / 3,
}


def tied_outlier_instance(rng, encoding, min_z=1):
    """A small closed metric, often with most distances tied, or a planted
    instance (an outlier instance when z >= 1); z >= min_z."""
    n = rng.randint(3, 16)
    k = rng.randint(1, min(4, n - 1))
    z = rng.randint(min_z, min(3, n - k))
    if rng.random() < 0.25 and n - z >= 2 * k:
        seed = rng.randrange(10**6)
        inst, _ = (planted_outlier(n, k, z, seed) if z
                   else generate(GeneratorConfig(n=n, k=k, seed=seed)))
    else:
        inst = random_metric_instance(rng, n, k, z, high=rng.choice((2, 4, 60)))
    return encoded(inst, ENCODINGS[encoding])


def star_metric_instance(rng, encoding):
    """Point 0 joined to every other point u by a spoke of random length s_u,
    d(u, v) = s_u + s_v: the MST is the star, so all but the root are leaves
    or dummies; z >= 0."""
    n = rng.randint(3, 16)
    k = rng.randint(1, min(4, n - 1))
    z = rng.randint(0, min(3, n - k))
    spoke = [0] + [rng.randint(1, 9) for _ in range(n - 1)]
    dist = [[0 if u == v else spoke[u] + spoke[v] for v in range(n)] for u in range(n)]
    return encoded(Instance(dist, k, z), ENCODINGS[encoding])


FORWARD_CASES = {
    "tied": tied_outlier_instance,
    "tied-z0": lambda rng, encoding: tied_outlier_instance(rng, encoding, min_z=0),
    "star": star_metric_instance,
}


def test_kcenter_point_within_the_radius_of_two_centers_is_a_second_optimum():
    # points 4 and 12 each have both centers within the optimum 12, so moving
    # one of them keeps the cost: the oracle once called this optimum unique
    inst = tied_outlier_instance(random.Random(225), "int")
    res = brute_force(inst, KCENTER)
    assert (res.cost, res.unique) == (12, False)
    assert res == reference.brute_force(inst, KCENTER)
    for u in (4, 12):
        assert all(inst.dist[c][u] <= 12 for c in res.best.centers)
    moved = [u for u in inst.points if res.best.assignment[u] != res.tie_witness.assignment[u]]
    assert moved == [4]
    assert cost(inst, res.tie_witness, KCENTER) == 12


def forward_args(inst, obj):
    """The forward pass's arguments for ``inst``, set up as solve_btp does."""
    btree = mstdp.binarize(mstdp.build_mst(inst), inst)
    E, _ = term_matrix(inst, obj)
    own = np.concatenate([E.T, np.zeros((btree.size - btree.n_real, btree.n_real), dtype=E.dtype)])
    combine = np.add if obj.aggregate == "sum" else np.maximum
    return btree, own, inst.k + 1, inst.z + 1, combine


def reference_forward(btree, own, K, T, combine):
    """The scalar reference's forward pass, given ``own`` as its ``base``."""
    return reference.forward_four_cases(btree, own.__getitem__, K, T, combine, own.dtype)


def forward_tables(forward, inst, obj):
    """The tables ``forward`` fills for ``inst``."""
    return forward(*forward_args(inst, obj))


def by_node(tables):
    """``mstdp._forward``'s stacked arrays as the reference's per-node dicts."""
    tab, M, inside = tables
    n_real = tab.shape[3] - 1
    nodes = range(tab.shape[2])
    return ({u: tab[:, :, u] for u in nodes}, {u: M[:, :, u] for u in nodes},
            {u: inside[u, :n_real] for u in nodes})


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    case=st.sampled_from(tuple(FORWARD_CASES)),
    encoding=st.sampled_from(tuple(ENCODINGS)),
    obj=st.sampled_from(OBJECTIVES),
)
def test_folded_forward_pass_matches_the_four_case_reference(seed, case, encoding, obj):
    # z = 0 leaves T = 1, where a leaf has no outlier cell
    inst = FORWARD_CASES[case](random.Random(seed), encoding)
    got = solve_outlier_clustering(inst, obj)
    btree = mstdp.binarize(mstdp.build_mst(inst), inst)
    want = reference.solve_btp_four_cases(inst, btree, obj)
    # ties may split differently, the optimum may not
    got_cost, want_cost = cost(inst, got, obj), cost(inst, want, obj)
    if encoding == "float":
        assert math.isclose(got_cost, want_cost, rel_tol=1e-9, abs_tol=1e-9)
    else:
        assert (got_cost, type(got_cost)) == (want_cost, type(want_cost))
    # when the DP reaches the oracle's unique optimum it is that partition
    res = brute_force(inst, obj)
    if res.unique and abs(got_cost - res.cost) <= inst.tol:
        assert got.partition_key() == want.partition_key() == res.best.partition_key()
    # every state of every node, not only the path reconstruction walks
    tab, M, inside = by_node(forward_tables(mstdp._forward, inst, obj))
    ref_tab, ref_M, ref_inside = forward_tables(reference_forward, inst, obj)
    assert tab.keys() == ref_tab.keys()
    for u in tab:
        assert tab[u].dtype == ref_tab[u].dtype
        assert np.array_equal(tab[u], ref_tab[u]), u
        assert np.array_equal(M[u], ref_M[u]), u
        assert np.array_equal(inside[u], ref_inside[u]), u


# the reconstruction's tie rules decide these draws' clusterings: the first
# minimal split in (left clusters, left outliers) order, a child joining its
# parent's cluster whenever that attains its side, and a closed cluster
# centered in the outlier slot first, then at the lowest center. Taking the
# last minimal split instead moves five of the six clusterings, closing a
# child's cluster when that ties with joining moves four, and a real center
# ahead of the outlier slot moves one.
TIED_CLUSTERINGS = {
    (7, 0, KMEDIAN): ((0, 0, -1, 0, -1, 1, 0, -1), (0, 5)),
    (8, 0, KCENTER): ((0, 1, -1, -1, 2, -1), (0, 1, 4)),
    (12, 1, KCENTER): ((0, -1, 1, 0, 2, -1, 1, 1, 1, 0), (0, 2, 4)),
    (27, 1, KMEANS): ((0, 3, 0, -1, 1, 1, 3, -1, 2, 3, -1, 3, 3), (0, 4, 8, 9)),
    (31, 0, KMEDIAN): ((0, 0, 1), (0, 2)),
    (35, 1, KCENTER): ((0, 1, 1, 2, 0, 1, 2, 0, 1, 0, 0), (0, 1, 3)),
}


@pytest.mark.parametrize("draw", tuple(TIED_CLUSTERINGS), ids=lambda d: f"{d[0]}-{d[1]}-{d[2].name}")
def test_reconstruction_breaks_ties_by_its_rules(draw):
    seed, min_z, obj = draw
    inst = tied_outlier_instance(random.Random(seed), "int", min_z)
    got = solve_outlier_clustering(inst, obj)
    assert (got.assignment, got.centers) == TIED_CLUSTERINGS[draw]


# ---------------------------------------------------------------------------
# the level batches of the forward pass

BATCH_ENCODINGS = {
    "float": lambda d: d / 3,
    "fraction": lambda d: Fraction(d, 7),
    "int-past-2**63": lambda d: d * 2**64,
}


def heights(btree):
    """Every node's height: 0 for a leaf, one more than its highest child's."""
    height = {}
    order = [btree.root]
    for u in order:
        order.extend(btree.children(u))
    for u in reversed(order):
        height[u] = 1 + max((height[w] for w in btree.children(u)), default=-1)
    return height


def levels_above_the_leaves(inst):
    """The node count of every height from 1 up."""
    height = heights(mstdp.binarize(mstdp.build_mst(inst), inst))
    return [list(height.values()).count(h) for h in range(1, max(height.values()) + 1)]


@pytest.mark.parametrize("obj", (KMEDIAN, KCENTER), ids=lambda o: o.name)
@pytest.mark.parametrize("z", (0, 2))
@pytest.mark.parametrize("encoding", tuple(BATCH_ENCODINGS))
def test_batch_boundaries_leave_every_table_unchanged(encoding, z, obj):
    if z:
        inst, _ = planted_outlier(24, 3, z, 5)
    else:
        inst, _ = generate(GeneratorConfig(n=24, k=3, seed=5))
    inst = encoded(inst, BATCH_ENCODINGS[encoding])
    want = forward_tables(mstdp._forward, inst, obj)
    assert (want[0].dtype == object) == (encoding != "float")
    node_cells = (inst.k + 1) * (inst.z + 1) * (inst.n + 1)
    # one node per batch, then three: a batched level (every height above the
    # leaves') is split either way
    widest = max(levels_above_the_leaves(inst))
    for cells in (1, 3 * node_cells):
        assert widest > max(1, cells // node_cells)
        with mock.patch.object(mstdp, "BATCH_CELLS", cells):
            got = forward_tables(mstdp._forward, inst, obj)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w), cells


@pytest.mark.parametrize("z", (0, 2))
def test_leaves_are_filled_without_a_convolution(z):
    # every batch _conv serves is a batch of non-leaf nodes, each filled once
    inst, _ = planted_outlier(24, 3, z, 5) if z else generate(GeneratorConfig(n=24, k=3, seed=5))
    args = forward_args(inst, KMEDIAN)
    btree = args[0]
    height = heights(btree)
    real_conv = mstdp._conv
    filled = []

    def conv(a, b, combine):
        batch = sys._getframe(1).f_locals["U"]  # the nodes of the calling batch
        assert len(batch) == a.shape[2]
        filled.extend(batch.tolist())
        return real_conv(a, b, combine)

    with mock.patch.object(mstdp, "_conv", conv):
        got = mstdp._forward(*args)
    assert sorted(filled) == [u for u in range(btree.size) if height[u] > 0]
    assert sum(1 for h in height.values() if h == 0) > 0
    for g, w in zip(got, mstdp._forward(*args)):
        assert np.array_equal(g, w)


def test_forward_peak_memory_stays_within_the_batch_budget():
    # the stacked operands of one batch, not a whole level, on top of the tables
    inst, _ = planted_outlier(128, 4, 3, 11)
    args = forward_args(inst, KMEDIAN)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tables = mstdp._forward(*args)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    own = sum(a.nbytes for a in tables)
    assert peak < own + 8 * mstdp.BATCH_CELLS * 8, (peak, own)

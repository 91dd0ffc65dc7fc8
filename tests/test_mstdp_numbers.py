"""The vectorized MST-DP: number types, its internal check, scale and relabelling."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

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
    cost,
    generate,
    lp_norm,
    mstdp,
    solve_outlier_clustering,
)
from resilient_cluster.core import number_type

OBJECTIVES = (KMEDIAN, KMEANS, KCENTER, lp_norm(3))


def planted_outlier(n, k, z, seed):
    return generate(GeneratorConfig(n=n, k=k, z=z, seed=seed, mode="outlier"))


def encoded(inst, scale):
    return Instance(
        tuple(tuple(scale(d) for d in row) for row in inst.dist), inst.k, inst.z
    )


def table_type(inst, obj):
    terms = [obj.term(d) for row in inst.dist for d in row]
    return number_type(terms, inst.n)


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

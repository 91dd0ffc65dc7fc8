"""Tests for the 2-approximations and the recovery pipeline."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as reference

from resilient_cluster import (
    GONZALEZ,
    HOCHBAUM_SHMOYS,
    KCENTER,
    AsymmetricUnsupported,
    GeneratorConfig,
    Instance,
    brute_force,
    cost,
    generate,
    gonzalez,
    hochbaum_shmoys,
    recover_via_2approx,
)

from conftest import encoded_metric, line_instance, random_metric_instance, uniform_instance


def test_gonzalez_all_points_zero_radius():
    inst = uniform_instance(5, 5)
    res = gonzalez(inst)
    assert res.radius == 0
    assert sorted(res.centers) == list(range(5))


def test_gonzalez_line_trace(line4):
    res = gonzalez(line4)
    # starts at 0, farthest point is 11 (index 3), leaving radius 1
    assert res.centers == (0, 3)
    assert res.radius == 1


def test_gonzalez_uniform():
    res = gonzalez(uniform_instance(5, 2))
    assert res.radius == 1


def test_hochbaum_shmoys_all_points():
    res = hochbaum_shmoys(uniform_instance(4, 4))
    assert res.radius == 0


def test_hochbaum_shmoys_line_bound(line4):
    res = hochbaum_shmoys(line4)
    opt = brute_force(line4, KCENTER).cost
    assert res.radius <= 2 * opt


def test_hochbaum_shmoys_ends_when_a_diagonal_entry_exceeds_the_ball():
    # d(0, 0) = 5 > 2R at the candidates R = 0 and 1: the opened point must
    # still leave the uncovered set; a subprocess so that a loop fails instead
    # of hanging
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH", "")) if p)
    script = (
        "from resilient_cluster import Instance, hochbaum_shmoys\n"
        "print(hochbaum_shmoys(Instance([[5, 1], [1, 0]], k=1)).centers)\n"
    )
    try:
        proc = subprocess.run([sys.executable, "-c", script],
                              env=env, capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail("hochbaum_shmoys did not end within 60 s")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "(0,)"


def test_asymmetric_rejected():
    inst = Instance(((0, 1), (2, 0)), k=1, symmetric=False)
    for fn in (gonzalez, hochbaum_shmoys):
        with pytest.raises(AsymmetricUnsupported):
            fn(inst)


def test_outliers_rejected():
    inst = line_instance([0, 1, 10, 11], k=2, z=1)
    with pytest.raises(ValueError):
        gonzalez(inst)


@pytest.mark.parametrize("seed", range(15))
def test_two_approx_guarantee(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 9)
    k = rng.randint(1, 4)
    inst = random_metric_instance(rng, n, min(k, n))
    opt = brute_force(inst, KCENTER).cost
    assert gonzalez(inst).radius <= 2 * opt
    assert hochbaum_shmoys(inst).radius <= 2 * opt


@pytest.mark.parametrize("seed", range(8))
def test_recovery_on_planted(seed):
    inst, _ = generate(GeneratorConfig(n=11, k=3, seed=seed))
    res = brute_force(inst, KCENTER)
    a = recover_via_2approx(inst, GONZALEZ)
    b = recover_via_2approx(inst, HOCHBAUM_SHMOYS)
    assert a.partition_key() == res.best.partition_key()
    assert b.partition_key() == a.partition_key()


def test_recovery_k_equals_n():
    inst = uniform_instance(4, 4)
    clus = recover_via_2approx(inst, GONZALEZ)
    assert clus.clusters() == [[0], [1], [2], [3]]


def test_unknown_algorithm(line4):
    with pytest.raises(ValueError):
        recover_via_2approx(line4, "kmeans++")


def test_recovered_clusters_separated_beyond_radius():
    # on resilient instances, inter-cluster distances exceed the recovered radius
    for seed in (0, 3, 5):
        inst, _ = generate(GeneratorConfig(n=10, k=3, seed=seed))
        clus = recover_via_2approx(inst, GONZALEZ)
        radius = cost(inst, clus, KCENTER)
        for u in range(inst.n):
            for v in range(inst.n):
                if u != v and clus.assignment[u] != clus.assignment[v]:
                    assert inst.dist[u][v] > radius


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 10),
    encoding=st.sampled_from(("int", "fraction", "float")),
)
def test_two_approximations_match_the_scalar_reference(seed, n, encoding):
    rng = random.Random(seed)
    inst = encoded_metric(rng, n, rng.randint(1, n), 0, encoding)
    for fn, ref in ((gonzalez, reference.gonzalez), (hochbaum_shmoys, reference.hochbaum_shmoys)):
        got = fn(inst)
        centers, radius = ref(inst)
        assert got.centers == centers
        assert (got.radius, type(got.radius)) == (radius, type(radius))

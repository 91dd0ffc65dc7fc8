"""Tests for planted-instance generation and the separation checks."""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilient_cluster import (
    ASYMMETRIC,
    KCENTER,
    KMEANS,
    KMEDIAN,
    NON_RESILIENT,
    OUTLIER,
    OUTLIER_MODE,
    RESILIENT_UNREFUTED,
    SYMMETRIC,
    Clustering,
    ConfigInfeasible,
    GeneratorConfig,
    Instance,
    brute_force,
    falsify_resilience,
    generate,
    validate_metric,
    verify_planted,
)
from resilient_cluster.generator import MODES, RESILIENT_MODES

import scalar_reference as reference
from conftest import encoded_metric, line_instance, uniform_instance


def test_determinism_same_seed_identical():
    a, pa = generate(GeneratorConfig(n=12, k=3, seed=42))
    b, pb = generate(GeneratorConfig(n=12, k=3, seed=42))
    assert a.dist == b.dist
    assert pa == pb
    c, _ = generate(GeneratorConfig(n=12, k=3, seed=43))
    assert c.dist != a.dist


def test_generated_instances_are_metric():
    for mode, z in ((SYMMETRIC, 0), (ASYMMETRIC, 0), (OUTLIER_MODE, 2)):
        inst, _ = generate(GeneratorConfig(n=10, k=2, z=z, seed=5, mode=mode))
        assert validate_metric(inst) == []
        assert inst.exact
        assert inst.symmetric == (mode != ASYMMETRIC)


def test_planted_is_unique_oracle_optimum():
    for mode, z in ((SYMMETRIC, 0), (ASYMMETRIC, 0), (OUTLIER_MODE, 3)):
        for seed in range(4):
            inst, planted = generate(
                GeneratorConfig(n=11, k=2, z=z, seed=seed, mode=mode)
            )
            res = brute_force(inst, KCENTER)
            assert res.unique, (mode, seed)
            assert res.best.partition_key() == planted.partition_key()


def test_separation_margins():
    # inter-cluster distances stay >= sigma * radius; spokes within radius
    cfg = GeneratorConfig(n=12, k=3, seed=8, sigma=4, radius=1000)
    inst, planted = generate(cfg)
    for i, members in enumerate(planted.clusters()):
        c = planted.centers[i]
        for u in members:
            assert inst.dist[c][u] <= 1000
        for v in range(inst.n):
            if planted.assignment[v] != i:
                for u in members:
                    assert inst.dist[u][v] >= 4000


def test_verify_planted_clean_per_mode():
    inst, planted = generate(GeneratorConfig(n=12, k=3, seed=1))
    assert verify_planted(inst, planted, KCENTER) == []
    inst, planted = generate(GeneratorConfig(n=10, k=3, seed=2, mode=ASYMMETRIC))
    assert verify_planted(inst, planted, KCENTER) == []
    inst, planted = generate(GeneratorConfig(n=12, k=2, z=2, seed=3, mode=OUTLIER_MODE))
    assert verify_planted(inst, planted, KCENTER) == []
    assert verify_planted(inst, planted, KMEDIAN) == []


def test_verify_planted_flags_uniform_partition():
    inst = uniform_instance(4, 2)
    fake = Clustering((0, 0, 1, 1), (0, 2))
    violations = verify_planted(inst, fake, KCENTER)
    assert violations
    names = {v.check for v in violations}
    assert "inter_cluster_separation" in names


def test_verify_planted_flags_moved_outlier():
    inst, planted = generate(GeneratorConfig(n=12, k=2, z=2, seed=3, mode=OUTLIER_MODE))
    # relabel a cluster point as outlier and the true outlier as clustered
    out = sorted(planted.outliers)[0]
    swap = next(
        u
        for u in range(inst.n)
        if planted.assignment[u] == 0 and u != planted.centers[0]
    )
    assignment = list(planted.assignment)
    assignment[out] = 0
    assignment[swap] = OUTLIER
    fake = Clustering(tuple(assignment), planted.centers)
    names = {v.check for v in verify_planted(inst, fake, KCENTER)}
    assert "outlier_separation" in names


def test_non_resilient_mode_is_not_unique():
    inst, planted = generate(GeneratorConfig(n=4, k=2, mode=NON_RESILIENT))
    res = brute_force(inst, KCENTER)
    assert not res.unique
    assert planted.k == 2


def test_resilient_sample_passes_falsifier():
    inst, planted = generate(GeneratorConfig(n=12, k=3, z=0, sigma=4, seed=7))
    res = brute_force(inst, KCENTER)
    assert res.unique and res.best.partition_key() == planted.partition_key()
    assert falsify_resilience(inst, KCENTER).verdict == RESILIENT_UNREFUTED


def test_config_validation():
    with pytest.raises(ConfigInfeasible):
        generate(GeneratorConfig(n=10, k=2, sigma=1.5))  # sigma must exceed 2
    with pytest.raises(ConfigInfeasible):
        generate(GeneratorConfig(n=10, k=2, z=1))  # outliers need outlier mode
    with pytest.raises(ConfigInfeasible):
        generate(GeneratorConfig(n=10, k=3, z=5, mode=OUTLIER_MODE))  # n-z < 2k
    with pytest.raises(ConfigInfeasible):
        generate(GeneratorConfig(n=10, k=1, mode=NON_RESILIENT))
    with pytest.raises(ConfigInfeasible):
        generate(GeneratorConfig(n=10, k=2, radius=3))
    with pytest.raises(ConfigInfeasible):
        generate(GeneratorConfig(n=10, k=2, sigma="1/2", allow_weak_separation=True))


def test_weak_separation_hook_for_sweeps():
    inst, planted = generate(
        GeneratorConfig(n=10, k=2, sigma="3/2", allow_weak_separation=True)
    )
    assert validate_metric(inst) == []
    # contract still holds with the weaker sigma
    for u in range(inst.n):
        for v in range(inst.n):
            if (
                planted.assignment[u] != planted.assignment[v]
                and u != v
            ):
                assert inst.dist[u][v] >= 1500


def assert_same_instance(got, want):
    assert got == want
    assert [list(map(type, row)) for row in got.dist] == [list(map(type, row)) for row in want.dist]


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    mode=st.sampled_from(MODES),
    seed=st.integers(0, 10**6),
    sigma=st.sampled_from([3, 4, 7, Fraction(5, 2), Fraction(13, 4), Fraction(3, 2)]),
    radius=st.integers(8, 1000),
)
def test_generate_matches_the_scalar_reference(data, mode, seed, sigma, radius):
    z = data.draw(st.integers(1, 4), label="z") if mode == OUTLIER_MODE else 0
    k = data.draw(st.integers(2 if mode == NON_RESILIENT else 1, 6), label="k")
    least = {OUTLIER_MODE: 2 * k + z, NON_RESILIENT: k + 1}.get(mode, k)
    n = data.draw(st.integers(least, least + 40), label="n")
    cfg = GeneratorConfig(n=n, k=k, z=z, sigma=sigma, radius=radius, seed=seed, mode=mode,
                          allow_weak_separation=sigma <= 2)
    inst, planted = generate(cfg)
    want_inst, want_planted = reference.generate(cfg)
    assert_same_instance(inst, want_inst)
    assert planted == want_planted


@pytest.mark.parametrize("radius", [2**60, 2**70])
@pytest.mark.parametrize("mode", RESILIENT_MODES)
def test_generate_keeps_huge_radii_exact(mode, radius):
    # distances reach past 2**63, where int64 sums would wrap
    z = 2 if mode == OUTLIER_MODE else 0
    cfg = GeneratorConfig(n=13, k=3, z=z, radius=radius, seed=5, mode=mode)
    inst, planted = generate(cfg)
    want_inst, want_planted = reference.generate(cfg)
    assert max(map(max, inst.dist)) >= 2**63
    assert all(type(x) is int for row in inst.dist for x in row)
    assert_same_instance(inst, want_inst)
    assert planted == want_planted
    for obj in (KCENTER, KMEDIAN):
        assert verify_planted(inst, planted, obj) == reference.verify_planted(inst, planted, obj)


@pytest.mark.parametrize("obj", [KCENTER, KMEDIAN])
def test_verify_planted_is_exact_where_twice_a_distance_leaves_int64(obj):
    inst = line_instance([0, 2**62, 2**62 + 2**61, 2**63 - 1], k=2, z=1)
    for centers in combinations(range(4), 2):
        others = [u for u in range(4) if u not in centers]
        for labels in product([0, 1, OUTLIER], repeat=len(others)):
            if labels.count(OUTLIER) > 1:
                continue
            assignment = [0] * 4
            for i, c in enumerate(centers):
                assignment[c] = i
            for u, g in zip(others, labels):
                assignment[u] = g
            clus = Clustering(assignment, centers)
            assert verify_planted(inst, clus, obj) == reference.verify_planted(inst, clus, obj)


def test_verify_planted_float_tolerance_counts_a_near_tie_as_a_beat():
    # d(0, 2) exceeds d(0, 1) by less than the float tolerance
    inst = Instance([[0.0, 1.0, 1.0 + 5e-10], [1.0, 0.0, 2.0], [1.0 + 5e-10, 2.0, 0.0]], 2)
    clus = Clustering((0, 0, 1), (0, 2))
    got = verify_planted(inst, clus, KCENTER)
    assert ("intra_beats_inter", (0, 1, 2)) in [(v.check, v.points) for v in got]
    assert got == reference.verify_planted(inst, clus, KCENTER)


def random_clustering(rng, n, k, z):
    """k random centers, up to z random outliers, every other point in a
    random cluster."""
    centers = rng.sample(range(n), k)
    rest = [u for u in range(n) if u not in centers]
    outliers = set(rng.sample(rest, rng.randint(0, min(z, len(rest)))))
    assignment = [OUTLIER if u in outliers else rng.randrange(k) for u in range(n)]
    for i, c in enumerate(centers):
        assignment[c] = i
    return Clustering(assignment, centers)


def moved_points(rng, planted, z):
    """The planted clustering with a few non-centers moved to another
    cluster, or made outliers while the budget z allows."""
    assignment = list(planted.assignment)
    movable = [u for u in range(planted.n) if u not in planted.centers]
    for u in rng.sample(movable, min(len(movable), rng.randint(1, 3))):
        budget = z - assignment.count(OUTLIER)
        assignment[u] = OUTLIER if budget > 0 and rng.random() < 0.3 else rng.randrange(planted.k)
    return Clustering(assignment, planted.centers)


def encoded(inst, encoding):
    """The instance with every entry an int, x/3 as a Fraction, or x/3 as a float."""
    cast = {"int": int, "fraction": lambda x: Fraction(x, 3), "float": lambda x: x / 3}[encoding]
    return Instance([[cast(x) for x in row] for row in inst.dist], inst.k, inst.z, inst.symmetric)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    family=st.sampled_from(["planted", "moved", "random-clustering", "random-metric"]),
    encoding=st.sampled_from(["int", "fraction", "float"]),
    obj=st.sampled_from([KCENTER, KMEDIAN, KMEANS]),
)
def test_verify_planted_matches_the_scalar_reference(seed, family, encoding, obj):
    rng = random.Random(seed)
    if family == "random-metric":
        n = rng.randint(2, 12)
        k = rng.randint(1, n)
        z = rng.randint(0, n - k)
        inst = encoded_metric(rng, n, k, z, encoding, directed=rng.random() < 0.5)
        clus = random_clustering(rng, n, k, z)
    else:
        mode = rng.choice(RESILIENT_MODES)
        z = rng.randint(1, 3) if mode == OUTLIER_MODE else 0
        k = rng.randint(1, 4)
        cfg = GeneratorConfig(n=rng.randint(2 * k + z, 2 * k + z + 20), k=k, z=z,
                              sigma=rng.choice([Fraction(3, 2), 3, 4]),
                              radius=rng.choice([8, 37, 1000]),
                              seed=seed, mode=mode, allow_weak_separation=True)
        inst, planted = generate(cfg)
        inst = encoded(inst, encoding)
        clus = {"planted": lambda: planted,
                "moved": lambda: moved_points(rng, planted, z),
                "random-clustering": lambda: random_clustering(rng, inst.n, k, z)}[family]()
    got = verify_planted(inst, clus, obj)
    assert got == reference.verify_planted(inst, clus, obj)
    assert all(type(x) is int for v in got for x in v.points)

"""Tests for structured 2-perturbations and the resilience falsifier."""

import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilient_cluster import (
    ASYMMETRIC,
    DIRECTED,
    KCENTER,
    KMEANS,
    KMEDIAN,
    OUTLIER_MODE,
    NOT_RESILIENT,
    RESILIENT_UNREFUTED,
    UNDIRECTED,
    Clustering,
    FalsifierReport,
    GeneratorConfig,
    Instance,
    InternalCheckFailed,
    InvalidPerturbation,
    Objective,
    PerturbationSpec,
    apply_perturbation,
    brute_force,
    cost,
    falsify_resilience,
    generate,
    objective_by_name,
    oracle,
    perturb,
    radius_preserving_check,
    validate_metric,
)
from resilient_cluster.core import term_matrix

import scalar_reference as reference
from conftest import (
    encoded_metric,
    line_instance,
    random_directed_metric_instance,
    random_metric_instance,
    uniform_instance,
)


def test_empty_edge_set_is_identity(line4):
    spec = PerturbationSpec((), 0, UNDIRECTED)
    assert apply_perturbation(line4, spec).dist == line4.dist
    # and idempotent
    again = apply_perturbation(apply_perturbation(line4, spec), spec)
    assert again.dist == line4.dist


def test_three_collinear_points_cap():
    inst = line_instance([0, 1, 2], k=1)
    spec = PerturbationSpec(((0, 2),), Fraction(3, 2), UNDIRECTED)
    pert = apply_perturbation(inst, spec)
    assert pert.dist[0][2] == Fraction(3, 2)
    assert pert.dist[2][0] == Fraction(3, 2)
    assert pert.dist[0][1] == 1
    assert pert.dist[1][2] == 1


def test_precondition_cap_too_small():
    inst = line_instance([0, 1, 2], k=1)
    with pytest.raises(InvalidPerturbation):
        apply_perturbation(inst, PerturbationSpec(((0, 2),), Fraction(1, 2), UNDIRECTED))


def test_mode_must_match_symmetry(line4):
    with pytest.raises(ValueError):
        apply_perturbation(line4, PerturbationSpec(((0, 1),), 1, DIRECTED))
    asym = Instance(((0, 2), (3, 0)), k=1, symmetric=False)
    with pytest.raises(ValueError):
        apply_perturbation(asym, PerturbationSpec(((0, 1),), 2, UNDIRECTED))


def test_edges_must_reference_points(line4):
    with pytest.raises(ValueError):
        apply_perturbation(line4, PerturbationSpec(((0, 7),), 100, UNDIRECTED))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_perturbation_band_and_metricity(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 7)
    directed = rng.random() < 0.5
    if directed:
        inst = random_directed_metric_instance(rng, n, k=1)
    else:
        inst = random_metric_instance(rng, n, k=1)
    edges = tuple(
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < 0.3
    )
    cap_floor = max(
        ((inst.dist[u][v] + 1) // 2 for u, v in edges), default=0
    )
    cap = cap_floor + rng.randint(0, 5)
    spec = PerturbationSpec(edges, cap, DIRECTED if directed else UNDIRECTED)
    pert = apply_perturbation(inst, spec)
    for u in range(n):
        for v in range(n):
            assert pert.dist[u][v] <= inst.dist[u][v]
            assert 2 * pert.dist[u][v] >= inst.dist[u][v]
    assert validate_metric(pert) == []
    if not directed:
        for u in range(n):
            for v in range(n):
                assert pert.dist[u][v] == pert.dist[v][u]


def test_directed_mode_can_break_symmetry():
    asym = line_instance([0, 10, 20, 30], k=1).replace(symmetric=False)
    spec = PerturbationSpec(((0, 1),), 5, DIRECTED)
    pert = apply_perturbation(asym, spec)
    assert validate_metric(pert) == []
    assert pert.dist[0][1] == 5
    assert pert.dist[1][0] == 10


def test_radius_preserving_identity():
    inst, planted = generate(GeneratorConfig(n=8, k=2, seed=1))
    pert = apply_perturbation(inst, PerturbationSpec((), 0, UNDIRECTED))
    assert radius_preserving_check(inst, pert, planted)


def test_radius_preserving_center_star():
    inst, planted = generate(GeneratorConfig(n=9, k=3, seed=5))
    r_star = cost(inst, planted, KCENTER)
    members = planted.clusters()[0]
    c = planted.centers[0]
    spec = PerturbationSpec(
        tuple((c, v) for v in members if v != c), r_star, UNDIRECTED
    )
    pert = apply_perturbation(inst, spec)
    assert radius_preserving_check(inst, pert, planted)


def test_falsifier_uniform_metric_not_resilient():
    report = falsify_resilience(uniform_instance(4, 2), KCENTER)
    assert report.verdict == NOT_RESILIENT
    spec, alternate = report.witness
    assert alternate is not None


def test_falsifier_planted_unrefuted():
    inst, _ = generate(GeneratorConfig(n=10, k=3, seed=2))
    report = falsify_resilience(inst, KCENTER)
    assert report.verdict == RESILIENT_UNREFUTED
    assert report.witness is None


def test_falsifier_single_point():
    inst = Instance(((0,),), k=1)
    report = falsify_resilience(inst, KCENTER)
    assert report.verdict == RESILIENT_UNREFUTED


def test_falsifier_witness_self_verifies():
    # unique optimum, but the clusters sit within twice the radius of each
    # other, so a capped perturbation creates a tie
    inst = line_instance([0, 4, 9, 10], k=2)
    base = brute_force(inst, KCENTER)
    assert base.unique
    report = falsify_resilience(inst, KCENTER)
    assert report.verdict == NOT_RESILIENT
    spec, alternate = report.witness
    assert spec.edges  # a genuine perturbation, not the identity
    pert = apply_perturbation(inst, spec)
    res = brute_force(pert, KCENTER)
    keys = {res.best.partition_key()}
    if res.tie_witness is not None:
        keys.add(res.tie_witness.partition_key())
    assert alternate.partition_key() in keys
    assert (not res.unique) or res.best.partition_key() != base.best.partition_key()


def test_falsifier_outlier_instance():
    # either extreme block may play the outlier at equal k-median cost
    inst = line_instance([0, 4, 8, 100, 104], k=2, z=1)
    report = falsify_resilience(inst, KMEDIAN)
    assert report.verdict == NOT_RESILIENT


def test_falsifier_reports_tries_and_budget():
    inst, _ = generate(GeneratorConfig(n=10, k=3, seed=2))
    full = falsify_resilience(inst, KCENTER)
    assert full.verdict == RESILIENT_UNREFUTED
    assert full.tried > 3 and not full.exhausted
    cut = falsify_resilience(inst, KCENTER, budget=3)
    assert cut.verdict == RESILIENT_UNREFUTED
    assert cut.tried == 3 and cut.exhausted
    exact_fit = falsify_resilience(inst, KCENTER, budget=full.tried)
    assert exact_fit.tried == full.tried and not exact_fit.exhausted


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(2, 7),
    encoding=st.sampled_from(("int", "fraction", "float")),
    obj=st.sampled_from((KCENTER, KMEDIAN, KMEANS)),
    z=st.integers(0, 2),
    directed=st.booleans(),
    budget=st.sampled_from((1, 3, perturb.DEFAULT_BUDGET)),
)
def test_falsifier_matches_the_reference_loop(seed, n, encoding, obj, z, directed, budget):
    # the reference applies every shape and counts the ones apply_perturbation
    # rejects; the falsifier drops them where it makes them
    rng = random.Random(seed)
    z = min(z, n - 1)
    k = rng.randint(1, min(3, n - z))
    inst = encoded_metric(rng, n, k, z, encoding, directed)
    got = falsify_resilience(inst, obj, budget)
    want = reference.falsify_resilience(inst, obj, budget)
    assert got == want
    if got.witness is not None:
        assert type(got.witness[0].cap) is type(want.witness[0].cap)
    assert 0 <= got.invalid <= got.tried <= budget


# the benchmark's instance families at its sizes: planted symmetric,
# asymmetric, weakly separated and outlier instances, and closed random
# integer weights; (n, objective, seed) spread over n = 12 to 18
BENCH_FAMILIES = {
    "symmetric": lambda n, seed: generate(GeneratorConfig(n=n, k=3, seed=seed))[0],
    "asymmetric": lambda n, seed: generate(
        GeneratorConfig(n=n, k=3, seed=seed, mode=ASYMMETRIC))[0],
    "weak-sigma-2": lambda n, seed: generate(
        GeneratorConfig(n=n, k=3, seed=seed, sigma=2, allow_weak_separation=True))[0],
    "outlier": lambda n, seed: generate(
        GeneratorConfig(n=n, k=2, z=1, seed=seed, mode=OUTLIER_MODE))[0],
    "random-metric": lambda n, seed: random_metric_instance(random.Random(seed), n, 3, high=20),
}
BENCH_SIZES = [(12, KCENTER, 0), (13, KMEDIAN, 1), (15, KCENTER, 2), (16, KMEDIAN, 3),
               (18, KCENTER, 4), (18, KMEDIAN, 5)]


@pytest.mark.parametrize("family", sorted(BENCH_FAMILIES))
def test_falsifier_matches_the_reference_at_bench_sizes(family):
    for n, obj, seed in BENCH_SIZES:
        inst = BENCH_FAMILIES[family](n, seed)
        got = falsify_resilience(inst, obj)
        assert got == reference.falsify_resilience(inst, obj), (n, obj.name, seed)


def _budget_corpus():
    """(instance, objective) pairs: each bench family at n = 10 to 12, and
    small int, Fraction and float metrics, directed and not."""
    out = [(BENCH_FAMILIES[family](10 + i % 3, i), (KCENTER, KMEDIAN)[i % 2])
           for i, family in enumerate(sorted(BENCH_FAMILIES))]
    rng = random.Random(10)
    for encoding in ("int", "fraction", "float"):
        for directed in (False, True):
            for obj in (KCENTER, KMEDIAN):
                out.append((encoded_metric(rng, 8, 3, 0, encoding, directed), obj))
    return out


def test_every_budget_cut_matches_the_reference_stream():
    # at budget b the search has taken the first b shapes of the stream:
    # it stops at the full run's witness once b reaches it, and otherwise
    # reports the first min(b, L) shapes, the invalid ones among them, and
    # whether shapes were left over
    cuts = witnesses = 0
    for inst, obj in _budget_corpus():
        full = falsify_resilience(inst, obj)
        assert not full.exhausted
        base = brute_force(inst, obj)
        stream = reference_stream(inst, base.best) if base.unique else []
        if full.witness is not None and full.tried:
            # the witness is the stream's shape at that position
            assert full.witness[0] == stream[full.tried - 1]
            assert full.invalid == stream[:full.tried].count(None)
        for b in range(full.tried + 2):
            if full.witness is not None and b >= full.tried:
                want = full
            else:
                want = FalsifierReport(RESILIENT_UNREFUTED, None, min(b, len(stream)),
                                       len(stream) > b, stream[:b].count(None))
            got = falsify_resilience(inst, obj, b)
            assert got == want, (b, obj.name)
            if got.witness is not None:
                assert type(got.witness[0].cap) is type(full.witness[0].cap)
            cuts += want.exhausted
        witnesses += full.tried > 0 and full.witness is not None
    assert cuts > 100 and witnesses > 3


@pytest.mark.parametrize("encoding", ["int", "fraction", "float"])
def test_lp_2_is_the_integer_exponent_2(encoding):
    # "lp:2" parses to Fraction(2), stored as the int 2: it takes the integer
    # term map, cost and band bound of an objective built with the int
    lp2 = objective_by_name("lp:2")
    assert type(lp2.exponent) is int and lp2.exponent == 2
    plain = Objective(2, "sum", "lp:2")
    rng = random.Random(encoding)
    for _ in range(8):
        inst = encoded_metric(rng, rng.randint(4, 7), 2, rng.randint(0, 1), encoding,
                              directed=rng.random() < 0.5)
        E, exact = term_matrix(inst, lp2)
        E_plain, exact_plain = term_matrix(inst, plain)
        assert (E.dtype, exact) == (E_plain.dtype, exact_plain)
        assert [(type(x), x) for x in E.flat] == [(type(x), x) for x in E_plain.flat]
        base, base_plain = brute_force(inst, lp2), brute_force(inst, plain)
        assert base == base_plain and type(base.cost) is type(base_plain.cost)
        got, want = cost(inst, base.best, lp2), cost(inst, base.best, plain)
        assert (type(got), got) == (type(want), want)
        for budget in (3, 512):
            assert falsify_resilience(inst, lp2, budget) == falsify_resilience(inst, plain, budget)


@pytest.mark.parametrize("x, kept", [(6, True), (7, False)])
def test_a_set_at_the_band_bound_is_kept(x, kept):
    # k-median with one center on the line 0, 1, 2, 3, 4, x: centers 2 and 3
    # cost x + 4, the optimum, and center 5 costs 5x - 10, which is exactly
    # twice the optimum at x = 6 and above it at x = 7
    inst = line_instance([0, 1, 2, 3, 4, x], k=1)
    base = brute_force(inst, KMEDIAN)
    assert base.cost == x + 4 and cost(inst, Clustering((0,) * 6, (5,)), KMEDIAN) == 5 * x - 10
    sets = oracle._sets_within(inst, KMEDIAN, base).tolist()
    assert sets == [[0], [1], [2], [3], [4]] + [[5]] * kept


# instances whose witness is optimal on centers that cost exactly 2**e times
# the optimum before the perturbation: a triangle under k-center with one
# outlier, and a directed 4-point metric under k-means
BAND_BOUND_WITNESSES = {
    "kcenter-outlier": (Instance(((0, 3, 2), (3, 0, 1), (2, 1, 0)), 1, 1), KCENTER),
    "kmeans-directed": (Instance(((0, 2, 3, 8), (3, 0, 2, 6), (1, 3, 0, 9), (7, 5, 7, 0)), 3,
                                 symmetric=False), KMEANS),
}


@pytest.mark.parametrize("case", sorted(BAND_BOUND_WITNESSES))
def test_a_witness_on_centers_at_the_band_bound(case):
    inst, obj = BAND_BOUND_WITNESSES[case]
    base = brute_force(inst, obj)
    assert base.unique
    report = falsify_resilience(inst, obj)
    assert report.verdict == NOT_RESILIENT
    assert report == reference.falsify_resilience(inst, obj)
    centers = tuple(sorted(report.witness[1].centers))
    assert reference._evaluate(inst, obj, centers)[0] == 2**obj.exponent * base.cost


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    encoding=st.sampled_from(("int", "fraction")),
    obj=st.sampled_from((KCENTER, KMEDIAN, KMEANS)),
    z=st.integers(0, 2),
)
def test_the_kept_sets_are_those_within_the_band_bound(seed, encoding, obj, z):
    # every set whose value is at most 2**e times the optimum, in order,
    # as the scalar reference evaluates them
    rng = random.Random(seed)
    n = rng.randint(3, 8)
    z = min(z, n - 2)
    k = rng.randint(1, min(3, n - z))
    inst = encoded_metric(rng, n, k, z, encoding)
    bound = 2**obj.exponent * reference.brute_force(inst, obj).cost
    want = [list(c) for c in combinations(range(n), k)
            if reference._evaluate(inst, obj, c)[0] <= bound]
    assert oracle._sets_within(inst, obj, brute_force(inst, obj)).tolist() == want


# (encoding, objective) pairs on which the band bound is not exact: a float
# instance, or a fractional exponent
INEXACT_BANDS = [("float", obj) for obj in (KCENTER, KMEDIAN, KMEANS)] + [
    (encoding, objective_by_name("lp:3/2")) for encoding in ("int", "fraction", "float")]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), case=st.sampled_from(INEXACT_BANDS), z=st.integers(0, 2))
def test_sets_within_keeps_every_set_unless_the_bound_is_exact(seed, case, z):
    # every set stays in play, in lexicographic order
    encoding, obj = case
    rng = random.Random(seed)
    n = rng.randint(3, 8)
    z = min(z, n - 2)
    k = rng.randint(1, min(3, n - z))
    inst = encoded_metric(rng, n, k, z, encoding, directed=rng.random() < 0.5)
    sets = oracle._sets_within(inst, obj, brute_force(inst, obj)).tolist()
    assert sets == [list(c) for c in combinations(range(n), k)]


@pytest.mark.parametrize("encoding", ["int", "fraction"])
@pytest.mark.parametrize("obj", [KCENTER, KMEDIAN, KMEANS], ids=lambda o: o.name)
def test_sets_within_reads_the_kept_values_as_the_blocks_would(monkeypatch, encoding, obj):
    # the base solve keeps every set's value when all sets fit in one block;
    # with one set per block it keeps none, and the sets are evaluated block
    # by block: both give the same sets
    rng = random.Random(f"{encoding}:{obj.name}")
    for _ in range(12):
        n = rng.randint(4, 8)
        z = rng.randint(0, 1)
        k = rng.randint(1, min(3, n - z - 1))
        inst = encoded_metric(rng, n, k, z, encoding, directed=rng.random() < 0.5)
        base = brute_force(inst, obj)
        assert base.values is not None
        kept = oracle._sets_within(inst, obj, base).tolist()
        monkeypatch.setattr(oracle, "BLOCK_CELLS", n)
        blockwise = brute_force(inst, obj)
        assert blockwise.values is None and blockwise == base
        assert oracle._sets_within(inst, obj, blockwise).tolist() == kept
        monkeypatch.undo()


# ---------------------------------------------------------------------------
# the shape stream keyed by its star, against the reference's dedup on the
# normalised edge set


def reference_stream(inst, clus):
    """The reference's distinct shapes in order, None for the invalid ones."""
    out = []
    for spec in reference.distinct_specs(inst, clus, cost(inst, clus, KCENTER)):
        try:
            reference.perturbed_dist(inst, spec)
        except InvalidPerturbation:
            spec = None
        out.append(spec)
    return out


def stream_specs(inst, clus, r_hat):
    """The falsifier's shape stream, each star key (u, vs, cap) as the spec
    of its edges u-v, v in vs; None for the invalid ones."""
    mode = UNDIRECTED if inst.symmetric else DIRECTED
    return [None if key is None else PerturbationSpec(tuple((key[0], v) for v in key[1]),
                                                       key[2], mode)
            for key in perturb._candidate_specs(inst, clus, r_hat)]


# each case lists a shape that the proofs make twice and that the stream must
# hold once, or two directed shapes that it must keep apart
STAR_KEY_CASES = {
    # clusters {0, 1}, {2}, {3}: (a) puts 2 into {3} and 3 into {2}
    "two-singleton-clusters": (
        Instance(((0, 1, 5, 10), (1, 0, 4, 11), (5, 4, 0, 9), (10, 11, 9, 0)), 3),
        [(((2, 3),), 1)],
    ),
    # clusters {0}, {1, 2}, {3, 4}: the ball around 0 is the cluster {1, 2}
    "ball-equals-cluster-star": (
        line_instance([0, 3, 4, 20, 22], k=3),
        [(((0, 1), (0, 2)), 2)],
    ),
    # clusters {0, 2, 3} and {1, 4, 5} around 0 and 4, each holding a point
    # at distance 2 from its center: (c) caps 0-4 at 2 from either end
    "center-to-center-edge": (
        Instance(((0, 5, 2, 2, 4, 6), (5, 0, 7, 7, 2, 4), (2, 7, 0, 4, 6, 5),
                  (2, 7, 4, 0, 6, 8), (4, 2, 6, 6, 0, 2), (6, 4, 5, 8, 2, 0)), 2),
        [(((0, 4),), 2)],
    ),
    # clusters {0, 3}, {1}, {2} of a directed metric: (a) makes (1, 2) and
    # (2, 1), two different edges
    "directed-pair": (
        Instance(((0, 6, 5, 1), (9, 0, 6, 5), (6, 8, 0, 3), (10, 5, 4, 0)), 3,
                 symmetric=False),
        [(((1, 2),), 1), (((2, 1),), 1)],
    ),
}


@pytest.mark.parametrize("case", sorted(STAR_KEY_CASES))
def test_star_key_merges_only_equal_edge_sets(case):
    inst, shapes = STAR_KEY_CASES[case]
    mode = UNDIRECTED if inst.symmetric else DIRECTED
    base = brute_force(inst, KCENTER)
    assert base.unique
    r_hat = cost(inst, base.best, KCENTER)
    raw = [PerturbationSpec(tuple(edges), cap, mode)
           for edges, cap in reference.proof_shapes(inst, base.best, r_hat)]
    wanted = [PerturbationSpec(edges, cap, mode) for edges, cap in shapes]
    assert [raw.count(spec) for spec in wanted] == ([1, 1] if case == "directed-pair" else [2])
    assert stream_specs(inst, base.best, r_hat) == reference_stream(inst, base.best)
    assert falsify_resilience(inst, KCENTER) == reference.falsify_resilience(inst, KCENTER)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    encoding=st.sampled_from(("int", "fraction", "float")),
    directed=st.booleans(),
)
def test_shape_stream_matches_the_reference_on_any_clustering(seed, encoding, directed):
    # any clustering, not only the optimum, so that singleton clusters and
    # shapes past a witness are common
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    k = rng.randint(1, n)
    inst = encoded_metric(rng, n, k, 0, encoding, directed)
    centers = rng.sample(range(n), k)
    assignment = [rng.randrange(k) for _ in range(n)]
    for i, c in enumerate(centers):
        assignment[c] = i
    clus = Clustering(tuple(assignment), tuple(centers))
    r_hat = cost(inst, clus, KCENTER)
    assert stream_specs(inst, clus, r_hat) == reference_stream(inst, clus)


# ---------------------------------------------------------------------------
# the numpy closure against the list Floyd-Warshall


def outcome(f):
    """("ok", dist, entry types) or (exception type, message)."""
    try:
        dist = f()
    except (ValueError, InternalCheckFailed) as e:
        return type(e), str(e)
    return "ok", dist, [type(x) for row in dist for x in row]


def reference_outcome(inst, spec):
    def perturbed():
        dist = reference.perturbed_dist(inst, spec)
        return Instance(dist, inst.k, inst.z, inst.symmetric).dist

    return outcome(perturbed)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    kind=st.sampled_from(("int", "fraction-cap", "float-cap", "float")),
    directed=st.booleans(),
)
def test_apply_perturbation_matches_list_closure(seed, kind, directed):
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    if directed:
        inst = random_directed_metric_instance(rng, n, k=1)
    else:
        inst = random_metric_instance(rng, n, k=1)
    if kind == "float":
        inst = Instance(
            tuple(tuple(d / 3 for d in row) for row in inst.dist), 1, 0, inst.symmetric
        )
    edges = tuple(
        (u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.3
    )
    if rng.random() < 0.7:  # a cap every edge allows; else any cap
        cap = max((inst.dist[u][v] / 2 for u, v in edges), default=0) + rng.randint(0, 4)
    else:
        cap = rng.randint(1, 60) / (3 if kind == "float" else 1)
    if kind == "int":
        cap = math.ceil(cap)
    elif kind == "fraction-cap":
        cap = Fraction(math.ceil(2 * cap) + 1, 2)
    elif kind == "float-cap":
        cap = float(cap) + 0.25
    spec = PerturbationSpec(edges, cap, DIRECTED if directed else UNDIRECTED)
    got = outcome(lambda: apply_perturbation(inst, spec).dist)
    assert got == reference_outcome(inst, spec)


def _valid_cap(rng, inst, edges, kind):
    """A cap of the given type that every edge allows, at most a little above
    half of the longest edge, so that it often shortens some."""
    half = max((inst.dist[u][v] / 2 for u, v in edges), default=0)
    if kind == "int":
        return math.ceil(half) + rng.randint(0, 3)
    if kind == "fraction":
        return Fraction(math.ceil(2 * half) + rng.randint(0, 6), 2)
    return float(half) + rng.choice((0.0, 0.25, 1.5))


def closure_stack(inst, specs):
    """``perturb._closures`` of the specs, their edges as index arrays."""
    ends = [(i, u, v) for i, spec in enumerate(specs) for u, v in spec.edges]
    p, u, v = zip(*ends) if ends else ((), (), ())
    return perturb._closures(inst, [spec.cap for spec in specs], p, u, v)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    encoding=st.sampled_from(("int", "fraction", "float", "int-mixed-caps")),
    directed=st.booleans(),
)
def test_stacked_closures_match_apply_perturbation(seed, encoding, directed):
    # int-mixed-caps puts int, Fraction and float caps on one int instance,
    # so the specs need up to three dtypes: the specs of each dtype are
    # closed as one stack, and all of them as one stack of the dtype numpy
    # gives those, with the same values
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    inst = encoded_metric(rng, n, 1, 0, encoding.split("-")[0], directed)
    mode = DIRECTED if directed else UNDIRECTED
    specs = []
    for _ in range(rng.randint(1, 8)):
        edges = tuple((u, v) for u in range(n) for v in range(n)
                      if u != v and rng.random() < 0.3)
        if encoding == "int-mixed-caps":
            kind = rng.choice(("int", "fraction", "float"))
        else:
            kind = encoding
        specs.append(PerturbationSpec(edges, _valid_cap(rng, inst, edges, kind), mode))
    wants = [apply_perturbation(inst, spec) for spec in specs]
    groups = {}
    for spec, want in zip(specs, wants):
        groups.setdefault(want._array.dtype, []).append((spec, want))
    for dtype, members in groups.items():
        closed = closure_stack(inst, [spec for spec, _ in members])
        assert closed.shape == (len(members), n, n) and closed.dtype == dtype
        for E, (_, want) in zip(closed, members):
            got = Instance(E, inst.k, inst.z, inst.symmetric)
            assert got.dist == want.dist
            assert [type(x) for row in got.dist for x in row] == [
                type(x) for row in want.dist for x in row]
            assert got.exact == want.exact
            assert got._array.dtype == want._array.dtype
    closed = closure_stack(inst, specs)
    assert closed.dtype == np.result_type(*groups)
    assert [tuple(map(tuple, E.tolist())) for E in closed] == [want.dist for want in wants]


def _chunk_corpus():
    """(instance, objective) pairs whose falsifier runs close several valid
    shapes: planted instances that stand, and random metrics whose witness
    is the first to the thirteenth valid shape."""
    out = []
    for seed in range(2):
        inst, _ = generate(GeneratorConfig(n=9, k=3, seed=seed))
        out.append((inst, KCENTER))
    for seed in range(40):
        rng = random.Random(seed)
        make = random_directed_metric_instance if seed % 2 else random_metric_instance
        inst = make(rng, 8, k=2 + seed % 2)
        out.extend((inst, obj) for obj in (KCENTER, KMEDIAN))
    rng = random.Random(3)
    for encoding in ("fraction", "float"):
        for directed in (False, True):
            out.append((encoded_metric(rng, 7, 2, 0, encoding, directed), KMEDIAN))
    return out


@pytest.mark.parametrize("matrices", [1, 2])
def test_chunk_boundaries_leave_the_report_alone(monkeypatch, matrices):
    corpus = _chunk_corpus()
    want = [falsify_resilience(inst, obj) for inst, obj in corpus]
    # witnesses at every position up to seven, and searches that close many
    positions = {r.tried - r.invalid for r in want if r.witness and r.tried}
    assert positions >= set(range(1, 8))
    assert any(r.verdict == RESILIENT_UNREFUTED and r.tried - r.invalid > 2 for r in want)
    real = oracle._evaluate
    depths = []  # the matrices of each stack one search evaluates

    def recording(D, *args):
        if D.ndim == 3:
            depths[-1].append(len(D))
        return real(D, *args)

    for (inst, obj), report in zip(corpus, want):
        # closure chunks of `matrices` matrices; then room for one more
        # matrix than that of all C(n, k) sets in one solve stack, which
        # splits a chunk of the valid shapes into several stacks
        for cells in (matrices * inst.n**2, (matrices + 1) * math.comb(inst.n, inst.k) * inst.n):
            monkeypatch.setattr(perturb.oracle, "BLOCK_CELLS", cells)
            monkeypatch.setattr(oracle, "_evaluate", recording)
            depths.append([])
            got = falsify_resilience(inst, obj)
            assert got == report
            if got.witness is not None:
                assert type(got.witness[0].cap) is type(report.witness[0].cap)
            got = falsify_resilience(inst, obj, budget=5)
            monkeypatch.undo()
            assert got == falsify_resilience(inst, obj, budget=5)
    # some search evaluates several stacks, one of them of several matrices
    assert any(len(d) > 1 and max(d) > 1 for d in depths[1::2])


def test_fraction_cap_widens_int_instance_only_where_it_shortens():
    inst = line_instance([0, 1, 2, 4], k=1)
    long_edge = apply_perturbation(inst, PerturbationSpec(((0, 3),), Fraction(5, 2), UNDIRECTED))
    assert long_edge.exact and long_edge.dist[0][3] == Fraction(5, 2)
    assert outcome(lambda: long_edge.dist) == reference_outcome(
        inst, PerturbationSpec(((0, 3),), Fraction(5, 2), UNDIRECTED)
    )
    # the cap is above every special edge: nothing changes, ints stay ints
    short_edge = apply_perturbation(inst, PerturbationSpec(((0, 1),), Fraction(5, 2), UNDIRECTED))
    assert short_edge.dist == inst.dist
    assert all(type(x) is int for row in short_edge.dist for x in row)


@pytest.mark.parametrize("scale", [1, 2**59, 2**61 - 1, 2**62 - 1, 2**70])
def test_large_int_distances_do_not_wrap(scale):
    inst = line_instance([0, scale, 2 * scale, 4 * scale], k=1)
    spec = PerturbationSpec(((0, 3), (1, 3)), 3 * scale, UNDIRECTED)
    pert = apply_perturbation(inst, spec)
    assert pert.dist[0][3] == 3 * scale and pert.exact
    assert outcome(lambda: pert.dist) == reference_outcome(inst, spec)


@pytest.mark.parametrize(
    "edges, cap, error",
    [
        (((0, 1), (0, 3), (1, 3)), 1, InvalidPerturbation),  # (0, 3) is cut first
        (((2, 3), (0, 1), (0, 3)), Fraction(1, 2), InvalidPerturbation),  # (0, 1) sorts first
        (((0, 9), (1, 3)), 1, ValueError),  # a missing point before an invalid cap
        (((0, 3), (1, 9)), 1, InvalidPerturbation),  # an invalid cap before a missing point
    ],
)
def test_first_offending_edge_and_exception_unchanged(edges, cap, error):
    inst = line_instance([0, 1, 2, 4], k=1)
    spec = PerturbationSpec(edges, cap, UNDIRECTED)
    got = outcome(lambda: apply_perturbation(inst, spec).dist)
    assert got[0] is error
    assert got == reference_outcome(inst, spec)


def test_corrupted_closure_raises_internal_check(monkeypatch):
    inst = line_instance([0, 1, 2, 4, 8], k=1)
    spec = PerturbationSpec(((0, 4),), 5, UNDIRECTED)
    real = perturb._shortest_paths

    def corrupted(E):  # E is a stack of closures, here of one
        real(E)
        E[..., 2, 1] = 3 * E[..., 2, 1]  # above d
        E[..., 1, 3] = 0  # below d/2, and first in row-major order

    monkeypatch.setattr(perturb, "_shortest_paths", corrupted)
    with pytest.raises(InternalCheckFailed, match=r"perturbed d\(1, 3\) = 0 left the band"):
        apply_perturbation(inst, spec)


def test_corrupted_falsifier_stack_raises_internal_check(monkeypatch):
    # a planted instance that stands: its first chunk closes every valid
    # shape, at least two, as one stack
    inst, _ = generate(GeneratorConfig(n=9, k=3, seed=0))
    full = falsify_resilience(inst, KCENTER)
    assert full.verdict == RESILIENT_UNREFUTED and full.tried - full.invalid >= 2
    real = perturb._shortest_paths
    depths = []

    def corrupted(S):  # the second matrix of the stack leaves the band
        depths.append(len(S))
        real(S)
        S[1, 2, 1] = 0

    monkeypatch.setattr(perturb, "_shortest_paths", corrupted)
    with pytest.raises(InternalCheckFailed, match=r"perturbed d\(2, 1\) = 0 left the band"):
        falsify_resilience(inst, KCENTER)
    assert depths == [full.tried - full.invalid]

"""Tests for structured 2-perturbations and the resilience falsifier."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilient_cluster import (
    DIRECTED,
    KCENTER,
    KMEDIAN,
    NOT_RESILIENT,
    RESILIENT_UNREFUTED,
    UNDIRECTED,
    GeneratorConfig,
    Instance,
    InternalCheckFailed,
    InvalidPerturbation,
    PerturbationSpec,
    apply_perturbation,
    brute_force,
    cost,
    falsify_resilience,
    generate,
    perturb,
    radius_preserving_check,
    validate_metric,
)

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
    obj=st.sampled_from((KCENTER, KMEDIAN)),
    z=st.integers(0, 1),
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


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    encoding=st.sampled_from(("int", "fraction", "float", "int-mixed-caps")),
    directed=st.booleans(),
)
def test_stacked_closures_match_apply_perturbation(seed, encoding, directed):
    # int-mixed-caps puts int, Fraction and float caps on one int instance
    # into one call, so the specs need three dtypes
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
    closed = perturb._closures(inst, specs)
    assert len(closed) == len(specs)
    for spec, E in zip(specs, closed):
        got = Instance(E, inst.k, inst.z, inst.symmetric)
        want = apply_perturbation(inst, spec)
        assert got.dist == want.dist
        assert [type(x) for row in got.dist for x in row] == [
            type(x) for row in want.dist for x in row]
        assert got.exact == want.exact
        assert got._array.dtype == want._array.dtype


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
    for (inst, obj), report in zip(corpus, want):
        monkeypatch.setattr(perturb.oracle, "BLOCK_CELLS", matrices * inst.n**2)
        got = falsify_resilience(inst, obj)
        assert got == report
        if got.witness is not None:
            assert type(got.witness[0].cap) is type(report.witness[0].cap)
        got = falsify_resilience(inst, obj, budget=5)
        monkeypatch.undo()
        assert got == falsify_resilience(inst, obj, budget=5)


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

"""Tests for the threshold-graph relaxations, radius search, and certifier.

The reduced solves are validated here against the written formulations: every
returned cover must satisfy the cover or coverage conditions those constraints
come down to, and every infeasibility certificate must independently prove
infeasibility.
"""

import math
import random
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

from resilient_cluster import (
    ASYM_KC,
    KC,
    KCENTER,
    KCO,
    NOT_2PR,
    OPTIMAL,
    AsymmetricUnsupported,
    GeneratorConfig,
    Instance,
    brute_force,
    build_threshold_graph,
    certify,
    cost,
    extract_integral,
    generate,
    min_feasible_radius,
    solve_lp,
)
from resilient_cluster import lp
from resilient_cluster.lp import formulation_of

from conftest import (
    encoded_metric,
    graph_metric_instance,
    line_instance,
    random_directed_metric_instance,
    random_metric_instance,
    ring_union_instance,
    uniform_instance,
    unplanted_instance,
)


def two_points(k=1, z=0):
    return Instance(((0, 1), (1, 0)), k=k, z=z)


# ---------------------------------------------------------------------------
# threshold graphs: row u of G holds u's out-neighbours, column v v's in-neighbours


def out_nbr(G, u):
    return set(np.flatnonzero(G[u]).tolist())


def in_nbr(G, v):
    return set(np.flatnonzero(G[:, v]).tolist())


def test_threshold_graph_radius_zero(line4):
    G = build_threshold_graph(line4, 0)
    assert G.dtype == bool and G.shape == (4, 4)
    for v in range(4):
        assert in_nbr(G, v) == {v}
        assert out_nbr(G, v) == {v}


def test_threshold_graph_complete(line4):
    G = build_threshold_graph(line4, 11)
    for v in range(4):
        assert in_nbr(G, v) == set(range(4))


def test_threshold_graph_line_components(line4):
    G = build_threshold_graph(line4, 1)
    assert in_nbr(G, 0) == {0, 1}
    assert in_nbr(G, 2) == {2, 3}


def test_threshold_graph_monotone_in_radius(line4):
    G1 = build_threshold_graph(line4, 1)
    G2 = build_threshold_graph(line4, 9)
    for v in range(4):
        assert in_nbr(G1, v) <= in_nbr(G2, v)
        assert v in in_nbr(G1, v)


def test_threshold_graph_directed():
    inst = Instance(((0, 1), (5, 0)), k=1, symmetric=False)
    G = build_threshold_graph(inst, 1)
    assert out_nbr(G, 0) == {0, 1}
    assert in_nbr(G, 1) == {0, 1}
    assert in_nbr(G, 0) == {0}


def test_threshold_graph_negative_radius(line4):
    with pytest.raises(ValueError):
        build_threshold_graph(line4, -1)


@pytest.mark.parametrize("R", [float(2**53), np.float64(2**53), Fraction(2**53)],
                         ids=["float", "float64", "fraction"])
def test_threshold_graph_compares_an_int64_matrix_exactly(R):
    # d = 2**53 + 1 rounds to 2**53 as a float64, so a float comparison
    # would join the pair at radius 2**53
    inst = Instance([[0, 2**53 + 1], [2**53 + 1, 0]], 1)
    assert inst._array.dtype == np.int64
    assert build_threshold_graph(inst, R).tolist() == [[True, False], [False, True]]
    outcome = solve_lp(inst, R)
    assert (outcome.feasible, outcome.bound) == (False, 2)
    # an infinite radius joins every pair, a NaN one none
    assert build_threshold_graph(inst, np.float64(math.inf)).all()
    assert build_threshold_graph(inst, math.nan).tolist() == [[True, False], [False, True]]


# ---------------------------------------------------------------------------
# witness checks against the written formulations: the assignment x_uv = y_u
# on the edges u -> v (scaled down to 1 per point for KCO) satisfies them
# exactly when these cover and coverage conditions on y and G hold


def outcome_graph(inst, outcome):
    G = build_threshold_graph(inst, outcome.radius)
    assert (G == outcome._graph).all()
    return G


def assert_kc_witness(inst, outcome):
    """y opens at most k centers and every point has in-neighbour mass >= 1."""
    G = outcome_graph(inst, outcome)
    y = outcome.y
    assert sum(y) <= inst.k
    assert all(val >= 0 for val in y)
    for v in range(inst.n):
        assert sum(y[u] for u in in_nbr(G, v)) >= 1


def assert_kco_witness(inst, outcome):
    """y opens at most k centers and its coverage, the sum over points of
    min(1, in-neighbour mass), reaches n - z."""
    G = outcome_graph(inst, outcome)
    y = outcome.y
    assert sum(y) <= inst.k
    assert all(val >= 0 for val in y)
    coverage = sum(min(1, sum(y[u] for u in in_nbr(G, v))) for v in range(inst.n))
    assert coverage >= inst.n - inst.z


def assert_kc_infeasibility_certificate(inst, outcome):
    """The certificate is a packing: w >= 0, sum over each out-neighborhood at
    most 1, total weight > k. Any cover y would satisfy
    sum(w) <= sum_v w_v * y(N_in(v)) <= sum(y) <= k, a contradiction."""
    G = outcome_graph(inst, outcome)
    w = outcome.certificate
    assert all(val >= 0 for val in w)
    for u in range(inst.n):
        assert sum(w[v] for v in out_nbr(G, u)) <= 1
    assert sum(w) > inst.k
    assert outcome.bound == sum(w)


# ---------------------------------------------------------------------------
# solve_lp


def test_two_points_k1_feasible_at_one():
    outcome = solve_lp(two_points(), 1, KC)
    assert outcome.feasible
    assert outcome.integral
    assert_kc_witness(two_points(), outcome)


def test_two_points_k1_infeasible_at_half():
    inst = two_points()
    outcome = solve_lp(inst, Fraction(1, 2), KC)
    assert not outcome.feasible
    assert outcome.bound == 2  # each point coverable only by itself
    # so the only cover opens both points, one more than k
    assert outcome.y == (1, 1)
    assert_kc_infeasibility_certificate(inst, outcome)


def test_kco_everything_outlier_feasible_at_zero():
    # z = n - 1: cover a single point at radius 0, outlier the rest
    inst = two_points(k=1, z=1)
    outcome = solve_lp(inst, 0, KCO)
    assert outcome.feasible
    assert outcome.bound >= 1
    assert_kco_witness(inst, outcome)


def test_kc_requires_symmetry():
    inst = Instance(((0, 1), (2, 0)), k=1, symmetric=False)
    with pytest.raises(AsymmetricUnsupported):
        solve_lp(inst, 1, KC)
    outcome = solve_lp(inst, 2, ASYM_KC)
    assert outcome.feasible


def test_asym_kc_in_neighbor_coverage():
    # d(0,1) = 1 but d(1,0) = 5: at R=1 only point 0 can cover both
    inst = Instance(((0, 1), (5, 0)), k=1, symmetric=False)
    outcome = solve_lp(inst, 1, ASYM_KC)
    assert outcome.feasible
    assert outcome.y[0] == 1
    infeasible = solve_lp(inst, 0, ASYM_KC)
    assert not infeasible.feasible


def test_feasibility_monotone_in_radius():
    rng = random.Random(7)
    for formulation, z in ((KC, 0), (KCO, 2)):
        inst = random_metric_instance(rng, 8, k=2, z=z)
        cands = inst.distinct_distances()
        feas = [solve_lp(inst, r, formulation).feasible for r in cands]
        assert feas[-1]
        first = feas.index(True)
        assert all(feas[first:])


# ---------------------------------------------------------------------------
# the instance picks its relaxation

TRIANGLE = ((0, 1, 3), (1, 0, 2), (3, 2, 0))
OWN_RELAXATION = {
    "symmetric, z = 0": (Instance(TRIANGLE, k=1), KC),
    "symmetric, z = 1": (Instance(TRIANGLE, k=1, z=1), KCO),
    "asymmetric, z = 0": (Instance(((0, 1, 3), (2, 0, 2), (3, 1, 0)), k=1, symmetric=False),
                          ASYM_KC),
}
RELAXED = {
    "certify": certify,
    "min_feasible_radius": min_feasible_radius,
    "solve_lp": lambda inst, *given: solve_lp(inst, max(inst.distinct_distances()), *given),
}
# brute force gives radius 1 (centers 0 and 2, point 3 an outlier); asym-KC,
# which ignores z, would give 5
ASYMMETRIC_WITH_OUTLIER = Instance(
    ((0, 1, 5, 50), (2, 0, 5, 50), (5, 5, 0, 50), (50, 50, 50, 0)), k=2, z=1, symmetric=False)


@pytest.mark.parametrize("relaxed", RELAXED)
@pytest.mark.parametrize("case", OWN_RELAXATION)
@pytest.mark.parametrize("given", [KC, ASYM_KC, KCO])
def test_only_the_instance_s_own_relaxation_is_accepted(relaxed, case, given):
    inst, own = OWN_RELAXATION[case]
    run = RELAXED[relaxed]
    assert formulation_of(inst) == own
    if given == own:
        assert run(inst, given) == run(inst)
    elif given in (KC, KCO) and not inst.symmetric:
        with pytest.raises(AsymmetricUnsupported, match=f"^{given} is defined for symmetric "):
            run(inst, given)
    else:
        with pytest.raises(ValueError, match=f"relaxation is {own}, not '{given}'$") as caught:
            run(inst, given)
        assert caught.type is ValueError


@pytest.mark.parametrize("relaxed", RELAXED)
@pytest.mark.parametrize("given", [None, KC, ASYM_KC, KCO])
def test_an_asymmetric_instance_with_outliers_is_refused(relaxed, given):
    inst = ASYMMETRIC_WITH_OUTLIER
    assert brute_force(inst, KCENTER).cost == 1
    with pytest.raises(AsymmetricUnsupported, match=r"\(z = 1\); use solve --method oracle$"):
        formulation_of(inst)
    with pytest.raises(AsymmetricUnsupported, match=r"\(z = 1\); use solve --method oracle$"):
        RELAXED[relaxed](inst, *([] if given is None else [given]))


def test_certify_reads_its_relaxation_from_the_instance():
    """certify(inst) and certify(inst, its own relaxation) agree on every
    field, the fractional witness's included."""
    rng = random.Random(33)
    for _ in range(60):
        n = rng.randint(4, 10)
        directed = rng.random() < 1 / 3
        z = 0 if directed else rng.choice([0, 0, 1, 2])
        numbers = rng.choice(["int", "fraction", "float"])
        inst = encoded_metric(rng, n, rng.randint(1, n - z - 1), z, numbers, directed)
        got, want = certify(inst), certify(inst, formulation_of(inst))
        for f in fields(want):
            assert getattr(got, f.name) == getattr(want, f.name), f.name


# ---------------------------------------------------------------------------
# min_feasible_radius


def test_min_radius_all_centers_is_zero():
    inst = uniform_instance(4, 4)
    r, outcome = min_feasible_radius(inst, KC)
    assert r == 0
    assert outcome.integral


def test_min_radius_line(line4):
    r, outcome = min_feasible_radius(line4, KC)
    assert r == 1
    assert outcome.feasible
    assert outcome.integral
    assert_kc_witness(line4, outcome)


def test_min_radius_matches_oracle_on_planted():
    for seed in range(6):
        inst, _ = generate(GeneratorConfig(n=10, k=3, seed=seed))
        res = brute_force(inst, KCENTER)
        r, outcome = min_feasible_radius(inst, KC)
        assert r == res.cost
        assert outcome.feasible


def test_min_radius_float_instance():
    coords = [0.0, 1.5, 10.25, 11.75]
    dist = tuple(tuple(abs(a - b) for b in coords) for a in coords)
    inst = Instance(dist, k=2)
    assert not inst.exact
    r, outcome = min_feasible_radius(inst, KC)
    assert r == pytest.approx(1.5)
    assert outcome.feasible


def test_no_feasible_candidate_radius_is_a_value_error():
    # validate_metric reports an off-diagonal NaN, but Instance takes it, and
    # no threshold graph holds the NaN pairs: no single center covers the
    # four points at any candidate radius, NaN (the largest) included
    nan = float("nan")
    inst = Instance([[0, 2, 1, nan], [2, 0, nan, 1], [1, nan, 0, 2], [nan, 1, 2, 0]], 1)
    for search in (min_feasible_radius, certify):
        with pytest.raises(ValueError, match=r"^no kc relaxation is feasible at any candidate "
                                             r"radius, the largest being nan$"):
            search(inst, KC)



# ---------------------------------------------------------------------------
# extract_integral and certify


def test_extract_direct_rounding(line4):
    _, outcome = min_feasible_radius(line4, KC)
    clus = extract_integral(line4, outcome)
    assert clus is not None
    assert clus.partition_key()[0] == frozenset({frozenset({0, 1}), frozenset({2, 3})})


def test_extract_fractional_gap_instance_absent():
    inst = ring_union_instance([4, 4], k=3)
    outcome = solve_lp(inst, 1, KC)
    assert outcome.feasible
    assert not outcome.integral
    assert outcome.bound == Fraction(8, 3)
    assert extract_integral(inst, outcome) is None


def test_certify_planted_optimal():
    inst, planted = generate(GeneratorConfig(n=12, k=3, seed=9))
    res = brute_force(inst, KCENTER)
    verdict = certify(inst, KC)
    assert verdict.kind == OPTIMAL
    assert verdict.lp_radius == res.cost
    assert verdict.clustering.partition_key() == res.best.partition_key()
    assert cost(inst, verdict.clustering, KCENTER) == verdict.lp_radius


def test_certify_single_cluster_min_eccentricity():
    rng = random.Random(11)
    inst = random_metric_instance(rng, 7, k=1)
    verdict = certify(inst, KC)
    assert verdict.kind == OPTIMAL
    expected = min(max(inst.dist[c][v] for v in range(7)) for c in range(7))
    assert verdict.lp_radius == expected


def test_certify_gap_instance_not_2pr():
    inst = ring_union_instance([4, 4], k=3)
    verdict = certify(inst, KC)
    assert verdict.kind == NOT_2PR
    assert verdict.clustering is None
    witness = verdict.fractional_witness
    assert witness.feasible and not witness.integral
    res = brute_force(inst, KCENTER)
    assert res.cost > verdict.lp_radius  # genuine integrality gap
    assert not res.unique


def test_certify_kco_planted():
    inst, planted = generate(GeneratorConfig(n=12, k=2, z=2, seed=4, mode="outlier"))
    res = brute_force(inst, KCENTER)
    verdict = certify(inst, KCO)
    assert verdict.kind == OPTIMAL
    assert verdict.lp_radius == res.cost
    assert verdict.clustering.partition_key() == res.best.partition_key()
    assert verdict.clustering.outliers == res.best.outliers


# A KCO instance whose search ends on a 0/1 cover at R* = 4, y = 1 at points
# 1 and 2, both within 4 of point 0 (draw 820, from 0, of ROADMAP's 3000 draws)
DOUBLE_SERVICE = Instance(((0, 4, 4, 8, 9, 8), (4, 0, 8, 8, 11, 10), (4, 8, 0, 4, 5, 4),
                           (8, 8, 4, 0, 8, 7), (9, 11, 5, 8, 0, 1), (8, 10, 4, 7, 1, 0)),
                          k=2, z=1)


def test_kco_zero_one_cover_serving_a_point_twice_is_integral():
    """A 0/1 cover at R* is an integral optimum even when a point has two
    centers within R*, since the point can be assigned to either. Component
    recovery fails here, and the cover's centers 1 and 2, with point 4 an
    outlier, cost R* = 4, the brute-force optimum."""
    inst = DOUBLE_SERVICE
    r_star, outcome = min_feasible_radius(inst)
    G = build_threshold_graph(inst, r_star)
    assert r_star == 4 and outcome.y == (0, 1, 1, 0, 0, 0) and outcome.integral
    assert (np.array(outcome.y) @ G).tolist() == [2, 1, 1, 1, 0, 1]
    assert lp._component_clustering(inst, G) is None
    verdict = certify(inst)
    assert (verdict.kind, verdict.route, verdict.lp_radius) == (OPTIMAL, lp.SEARCH, 4)
    assert verdict.clustering.centers == (1, 2) and verdict.clustering.outliers == {4}
    assert brute_force(inst, KCENTER).cost == 4


def test_no_not_2pr_witness_is_zero_one():
    """On 300 KCO draws (n <= 10; int, Fraction and float) and 150 KC and
    asym-KC draws, no NOT_2PR witness has a 0/1 y, and every OPTIMAL radius
    is the brute-force optimum. Some OPTIMAL verdicts rest on a 0/1 cover at
    R* that serves a point twice, where component recovery fails."""
    rng = random.Random(39)
    kinds, double = {OPTIMAL: 0, NOT_2PR: 0}, 0
    for i in range(450):
        n = rng.randint(4, 10)
        formulation = KCO if i < 300 else rng.choice([KC, ASYM_KC])
        z = rng.randint(1, 2) if formulation == KCO else 0
        k = rng.randint(1, min(n // 3, n - z - 1))
        numbers = rng.choice(["int", "fraction", "float"])
        inst = encoded_metric(rng, n, k, z, numbers, formulation == ASYM_KC)
        verdict = certify(inst)
        kinds[verdict.kind] += 1
        if verdict.kind == NOT_2PR:
            witness = verdict.fractional_witness
            assert not witness.integral and not set(witness.y) <= {0, 1}
            continue
        assert abs(verdict.lp_radius - brute_force(inst, KCENTER).cost) <= inst.tol
        if verdict.route == lp.SEARCH and z:
            outcome = solve_lp(inst, verdict.lp_radius)
            G = build_threshold_graph(inst, verdict.lp_radius)
            double += (outcome.integral and max(np.array(outcome.y) @ G) >= 2
                       and lp._component_clustering(inst, G) is None)
    assert kinds[NOT_2PR] > 0 and double > 0


def test_kco_infeasible_below_optimum_with_accounting():
    """Coverage accounting from the infeasibility argument: on a resilient
    outlier instance below the optimal radius, outliers only cover outliers
    (sparsely) and deficient clusters cannot compensate, so total coverage
    stays below n - z for any admissible (x, y); the solver must agree."""
    inst, planted = generate(GeneratorConfig(n=12, k=2, z=2, seed=4, mode="outlier"))
    r_star, _ = min_feasible_radius(inst, KCO)
    cands = [r for r in inst.distinct_distances() if r < r_star]
    assert cands
    for R in (cands[0], cands[len(cands) // 2], cands[-1]):
        outcome = solve_lp(inst, R, KCO)
        assert not outcome.feasible
        assert outcome.bound < inst.n - inst.z
        # rebuild the best admissible coverage for the returned y and walk the
        # accounting: cov(Z) < y(Z) * n_min, cov(C_i) <= n_i * y(C_i) when
        # deficient, total < n - z
        G = build_threshold_graph(inst, R)
        y = outcome.y
        clusters = planted.clusters()
        sizes = [len(c) for c in clusters]
        n_min = min(sizes)
        outliers = planted.outliers
        cov = [min(1, sum(y[u] for u in in_nbr(G, v))) for v in range(inst.n)]
        b = sum(y[u] for u in outliers)
        cov_z = sum(cov[v] for v in outliers)
        if b > 0:
            assert cov_z < b * n_min
        else:
            assert cov_z == 0
        total = 0
        for members, size in zip(clusters, sizes):
            a_i = sum(y[u] for u in members)
            cov_i = sum(cov[v] for v in members)
            if a_i < 1:
                assert cov_i <= size * a_i
            total += cov_i
        assert total + cov_z < inst.n - inst.z


def test_asym_certify_planted():
    inst, _ = generate(GeneratorConfig(n=10, k=3, seed=6, mode="asymmetric"))
    res = brute_force(inst, KCENTER)
    verdict = certify(inst, ASYM_KC)
    assert verdict.kind == OPTIMAL
    assert verdict.lp_radius == res.cost
    assert verdict.clustering.partition_key() == res.best.partition_key()


def test_separation_properties_on_oracle_optimum():
    # on resilient symmetric instances the optimal clusters are separated by
    # more than the radius, and intra distances stay below inter distances
    for seed in (0, 1, 2):
        inst, _ = generate(GeneratorConfig(n=10, k=3, seed=seed))
        res = brute_force(inst, KCENTER)
        from resilient_cluster import verify_planted

        assert verify_planted(inst, res.best, KCENTER) == []


def test_precision_failure_is_a_typed_error_naming_the_radius(monkeypatch, line4):
    from resilient_cluster import lp as lp_mod
    from resilient_cluster.simplex import SolverPrecisionExceeded

    def stalled(c, A, b):
        raise SolverPrecisionExceeded("injected")

    monkeypatch.setattr(lp_mod, "maximize", stalled)
    with pytest.raises(SolverPrecisionExceeded, match=r"^at radius \d+: injected$"):
        lp_mod.min_feasible_radius(line4, KC)


def test_unconfirmable_basis_names_the_radius_and_the_reason(monkeypatch, line4):
    """A final basis with a repeated column (determinant 0), or one whose
    float determinant is not finite, cannot give a vertex over its
    determinant: the probe raises naming the radius and the determinant."""
    from resilient_cluster import lp as lp_mod
    from resilient_cluster.simplex import OPTIMAL as SIMPLEX_OPTIMAL
    from resilient_cluster.simplex import SimplexResult, SolverPrecisionExceeded

    with monkeypatch.context() as mp:
        mp.setattr(lp_mod, "maximize", lambda c, A, b: SimplexResult(SIMPLEX_OPTIMAL, (0, 0, 6, 7)))
        with pytest.raises(SolverPrecisionExceeded,
                           match=r"^at radius 1: the float basis has determinant 0$"):
            solve_lp(line4, 1, KC)
    for det in (math.inf, math.nan):
        with monkeypatch.context() as mp:
            mp.setattr(np.linalg, "det", lambda M: det)
            with pytest.raises(SolverPrecisionExceeded,
                               match=rf"^at radius 1: the float basis has determinant {det}$"):
                solve_lp(line4, 1, KC)


# ---------------------------------------------------------------------------
# d = 1 on the edges of G(n, p), 2 elsewhere, k = the fractional cover at
# radius 1 rounded up: the search route, with LP optima of large denominator


@pytest.mark.parametrize("seed,k,bound,scale", [
    # Bland's rule alone cycles in float at radius 1; Dantzig's converges
    pytest.param(44, 10, Fraction(1407, 152), 1, id="s44"),
    # the optimal basis has determinant 1669313, the bound's denominator
    pytest.param(83, 4, Fraction(6047901, 1669313), 1, id="s83"),
    # the same graphs with every distance halved: float instances
    pytest.param(44, 10, Fraction(1407, 152), 0.5, id="s44-float"),
    pytest.param(83, 4, Fraction(6047901, 1669313), 0.5, id="s83-float"),
])
def test_graph_metric_lp_optimum_is_confirmed_exactly(seed, k, bound, scale):
    """The LP at a radius reads only the threshold graph, so halving every
    distance (a float instance) leaves the exact optimum as it is."""
    inst = graph_metric_instance(seed, k)
    if scale != 1:
        inst = inst.replace(dist=[[d * scale for d in row] for row in inst.dist])
        assert not inst.exact
    assert inst.n == 50
    r_star, outcome = min_feasible_radius(inst, KC)
    assert r_star == scale and isinstance(outcome.bound, Fraction)
    assert outcome.bound == bound
    verdict = certify(inst, KC)
    assert verdict.kind == NOT_2PR and verdict.lp_radius == scale
    assert isinstance(verdict.fractional_witness.bound, Fraction)
    assert verdict.fractional_witness.bound == bound


def search_instances(family):
    """(instance, formulation) pairs for the search-cache test: the graph
    metrics above, or random closed metrics (directed for asym-KC)."""
    if family in ("s44", "s83"):
        return [(graph_metric_instance(int(family[1:]), 10 if family == "s44" else 4), KC)]
    rng = random.Random(3)
    pairs = []
    for formulation in (KC, ASYM_KC, KCO):
        for _ in range(30):
            n = rng.randint(3, 12)
            k, z = rng.randint(1, 3), rng.randint(1, 2) if formulation == KCO else 0
            if k + z >= n:
                continue
            make = (random_directed_metric_instance if formulation == ASYM_KC
                    else random_metric_instance)
            pairs.append((make(rng, n, k, z=z, high=rng.choice([5, 60])), formulation))
    return pairs


@pytest.mark.parametrize("family,wrong", [
    ("s44", None), ("s83", None), ("random", None),
    # a float solve that ends on the all-slack basis at R* or just below
    # fails its check there, and the search raises naming that radius
    ("planted", "at R*"), ("planted", "below R*"),
])
def test_search_solves_and_confirms_each_radius_once(monkeypatch, family, wrong):
    """Within one min_feasible_radius call the probe cache holds each radius
    once: no radius is float-solved twice, and none is confirmed twice."""
    from resilient_cluster import lp as lp_mod
    from resilient_cluster.simplex import SolverPrecisionExceeded

    lie = None
    if family == "planted":
        inst = generate(GeneratorConfig(n=16, k=3, seed=1))[0]
        r_star, _ = min_feasible_radius(inst, KC)
        below = max(r for r in inst.distinct_distances() if r < r_star)
        lie = r_star if wrong == "at R*" else below
        pairs = [(inst, KC)]
    else:
        pairs = search_instances(family)
    floats, confirms = [], []
    solve, float_solve = lp_mod.solve_lp, lp_mod.maximize

    def counted_solve(inst_, R, formulation):
        confirms.append(R)
        return solve(inst_, R, formulation)

    def counted_float(c, A, b):
        R = confirms[-1]
        floats.append(R)
        res = float_solve(c, A, b)
        all_slack = tuple(range(len(c), len(c) + len(b)))
        return replace(res, basis=all_slack) if R == lie else res

    monkeypatch.setattr(lp_mod, "solve_lp", counted_solve)
    monkeypatch.setattr(lp_mod, "maximize", counted_float)
    for inst, formulation in pairs:
        floats.clear()
        confirms.clear()
        if lie is None:
            lp_mod.min_feasible_radius(inst, formulation)
        else:
            reason = "the vertex of the float basis: dual column "
            with pytest.raises(SolverPrecisionExceeded, match=rf"^at radius {lie}: {reason}"):
                lp_mod.min_feasible_radius(inst, formulation)
            assert confirms[-1] == lie and len(confirms) > 2
        assert len(set(floats)) == len(floats) and len(set(confirms)) == len(confirms)
        assert confirms and set(confirms) <= set(floats)


def highs_value(inst, R, formulation):
    """The optimum of the reduced LP at R by HiGHS, written from G: the
    packing max sum(p) s.t. G p <= 1, or for KCO the bounded coverage
    max sum(t) s.t. t_v <= y(N_in(v)), t <= 1, sum(y) <= k."""
    from scipy.optimize import linprog

    G = build_threshold_graph(inst, R).astype(float)
    n = inst.n
    if formulation != KCO:
        res = linprog(-np.ones(n), A_ub=G, b_ub=np.ones(n), method="highs")
    else:
        A = np.block([[-G.T, np.eye(n)], [np.zeros((1, n)) + 1, np.zeros((1, n))]])
        b = np.concatenate([np.zeros(n), [inst.k]])
        bounds = [(0, None)] * n + [(0, 1)] * n
        res = linprog(np.concatenate([np.zeros(n), -np.ones(n)]), A_ub=A, b_ub=b,
                      bounds=bounds, method="highs")
    assert res.status == 0
    return -res.fun


@pytest.mark.parametrize("formulation,n,z", [(KC, 80, 0), (KCO, 60, 3)], ids=["kc", "kco"])
@pytest.mark.parametrize("seed", range(10))
def test_unplanted_metrics_get_a_verdict(formulation, n, z, seed):
    """Every unplanted draw gets a verdict from the search, and the exact LP
    optimum at R* (feasible) and at the candidate below (infeasible) is the
    one HiGHS finds."""
    inst = unplanted_instance(seed, n, z)
    verdict = certify(inst, formulation)
    assert verdict.kind in (OPTIMAL, NOT_2PR)
    r_star = verdict.lp_radius
    below = max(r for r in inst.distinct_distances() if r < r_star)
    at, under = solve_lp(inst, r_star, formulation), solve_lp(inst, below, formulation)
    assert at.feasible and not under.feasible
    for outcome in (at, under):
        assert isinstance(outcome.bound, Fraction)
        assert float(outcome.bound) == pytest.approx(
            highs_value(inst, outcome.radius, formulation), abs=1e-7)


@pytest.mark.parametrize("formulation,z", [(KC, 0), (KCO, 2)])
def test_certifier_audit_on_arbitrary_instances(formulation, z):
    """Soundness on arbitrary inputs, not just planted ones.

    OPTIMAL must always come with radius equal to the brute-force optimum
    (the LP radius lower-bounds it and the extracted clustering attains it);
    NOT_2PR must come with a verifiable symptom: a genuine integrality gap,
    a non-unique optimum, or a violated separation property.
    """
    from resilient_cluster import verify_planted

    rng = random.Random(99)
    verdicts = {OPTIMAL: 0, NOT_2PR: 0}
    for _ in range(60):
        n = rng.randint(4, 9)
        k = rng.randint(2, 3)
        if k + z >= n:
            continue
        inst = random_metric_instance(rng, n, k, z=z)
        res = brute_force(inst, KCENTER)
        verdict = certify(inst, formulation)
        verdicts[verdict.kind] += 1
        if verdict.kind == OPTIMAL:
            assert verdict.lp_radius == res.cost
            assert cost(inst, verdict.clustering, KCENTER) == res.cost
            assert verdict.clustering.outlier_count <= inst.z
        else:
            gap = res.cost > verdict.lp_radius
            ambiguous = not res.unique
            separated = verify_planted(inst, res.best, KCENTER) == []
            assert gap or ambiguous or not separated
    # random closure metrics are benign for plain coverage, so OPTIMAL must
    # dominate; the NOT_2PR branch is exercised by the gap-instance tests
    assert verdicts[OPTIMAL] > 0


def test_certifier_audit_float_instances():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(4, 8)
        exact = random_metric_instance(rng, n, k=2)
        inst = Instance(
            tuple(tuple(x * 1.0 for x in row) for row in exact.dist), k=2
        )
        assert not inst.exact
        res = brute_force(inst, KCENTER)
        verdict = certify(inst, KC)
        if verdict.kind == OPTIMAL:
            assert verdict.lp_radius == pytest.approx(res.cost, abs=1e-9)

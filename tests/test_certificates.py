"""Tests for the exact check behind every certifier verdict.

The one check, LP duality on the reduced LP, takes a rational primal, dual,
or both, and returns a reason, or None when they prove what they claim.
Corrupting one entry must make it return a reason that names the failed
side. Each probe rests on the vertex of one float basis: a corrupted
numerator or a lying basis raises SolverPrecisionExceeded, naming the
radius and the failed side.
"""

import dataclasses
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from itertools import chain
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilient_cluster import (
    ASYM_KC,
    KC,
    KCENTER,
    KCO,
    NOT_2PR,
    OPTIMAL,
    GeneratorConfig,
    Instance,
    brute_force,
    build_threshold_graph,
    certify,
    generate,
    min_feasible_radius,
    solve_lp,
    verify_planted,
)
from resilient_cluster import lp
from resilient_cluster.core import integer_form
from resilient_cluster.simplex import SolverPrecisionExceeded

import scalar_reference as reference
from conftest import encoded_metric, random_directed_metric_instance, random_metric_instance

PLANTED = {
    KC: dict(mode="symmetric", z=0),
    ASYM_KC: dict(mode="asymmetric", z=0),
    KCO: dict(mode="outlier", z=2),
}


def planted(formulation, n=16, k=3, seed=1):
    inst, _ = generate(GeneratorConfig(n=n, k=k, seed=seed, **PLANTED[formulation]))
    return inst


def boundary(inst, formulation):
    """R* and the candidate radius just below it."""
    r_star, _ = min_feasible_radius(inst, formulation)
    below = max(r for r in inst.distinct_distances() if r < r_star)
    return r_star, below


# ---------------------------------------------------------------------------
# each confirmed pair passes the duality check as solved, and fails with one
# entry corrupted, naming the failed side: primal, dual, or value


def with_entry(values, i, new):
    return values[:i] + [new] + values[i + 1 :]


def over_common_denominator(*vectors):
    """The rationals of each vector as integers over their least common
    denominator d, at the width _basis_solution gives them, and d."""
    d = math.lcm(*(Fraction(v).denominator for v in chain(*vectors)))
    return *(integer_form([int(v * d) for v in vec], len(vec) + 1)[0] for vec in vectors), d


def pair_reason(inst, R, y, certificate):
    """Why the confirmation at R rejects the pair (y, certificate), or None.
    The pair goes in as the reduced LP's primal and duals over a common
    denominator: (certificate, y) for KC and asym-KC, and for KCO (y and n
    zeros for t, which the check rebuilds, certificate). An accepted pair
    comes back as the outcome's y and certificate."""
    G = build_threshold_graph(inst, R)
    x, duals = (list(y) + [0] * inst.n, certificate) if inst.z else (certificate, y)
    checked = lp._exact_outcome(inst, G, R, lp._reduced_lp(inst, G),
                                *over_common_denominator(x, duals))
    if isinstance(checked, str):
        return checked
    assert (checked.y, checked.certificate) == (tuple(y), tuple(certificate))
    return None


@pytest.mark.parametrize("formulation", [KC, ASYM_KC, KCO])
def test_packing_certificate_rejects_a_corrupted_entry(formulation):
    """Below R* the certificate proves the relaxation infeasible: the
    packing (the reduced LP's primal for KC, asym-KC) or the KCO dual
    (alpha, beta, gamma)."""
    inst = planted(formulation)
    _, below = boundary(inst, formulation)
    outcome = solve_lp(inst, below, formulation)
    assert isinstance(outcome.bound, Fraction) and not outcome.feasible
    y, cert = list(outcome.y), list(outcome.certificate)

    def reason(certificate):
        return pair_reason(inst, below, y, certificate)

    assert reason(cert) is None
    n = inst.n
    if formulation == KCO:
        assert len(cert) == 2 * n + 1
        for v in range(n):
            beta_cut = with_entry(cert, n + v, cert[n + v] - 1)
            assert reason(beta_cut).startswith("dual ")
        gamma_cut = with_entry(cert, 2 * n, cert[-1] - Fraction(1, 2))
        assert reason(gamma_cut).startswith("dual column ")
        expensive = with_entry(cert, 2 * n, cert[-1] + n)
        assert reason(expensive).startswith("value: ")
        return
    v = max(range(n), key=lambda u: cert[u])
    overfull = with_entry(cert, v, cert[v] + 1)
    assert reason(overfull).startswith("primal row ")
    negative = with_entry(cert, v, Fraction(-1))
    assert reason(negative) == f"primal entry x_{v} is negative"
    short = [Fraction(0)] * n
    assert reason(short).startswith("value: ")


@pytest.mark.parametrize("formulation", [KC, ASYM_KC, KCO])
def test_covering_optimum_pair_rejects_a_corrupted_entry(formulation):
    """At R* the cover y (for KCO with t_v = min(1, y(N_in(v)))) and the
    certificate have equal values, which proves both optimal."""
    inst = planted(formulation)
    r_star, _ = boundary(inst, formulation)
    outcome = solve_lp(inst, r_star, formulation)
    y, cert = list(outcome.y), list(outcome.certificate)

    def reason(y, certificate):
        return pair_reason(inst, r_star, y, certificate)

    assert reason(y, cert) is None
    if formulation == KCO:
        for u in range(inst.n):
            negative = with_entry(y, u, Fraction(-1, 2))
            assert reason(negative, cert) == f"primal entry x_{u} is negative"
        # the last primal row is sum(y) <= k
        assert reason([Fraction(1)] * inst.n, cert).startswith(f"primal row {2 * inst.n}: ")
        costly = with_entry(cert, 2 * inst.n, cert[-1] + 1)
        assert reason(y, costly).startswith("value: ")
        return
    assert outcome.bound == sum(y) == sum(cert)
    for u in range(inst.n):
        raised = with_entry(y, u, y[u] + 1)
        assert reason(raised, cert).startswith("value: ")
    center = y.index(1)
    uncovered = with_entry(y, center, Fraction(0))
    assert reason(uncovered, cert).startswith("dual column ")
    overfull = with_entry(cert, center, cert[center] + 1)
    assert reason(y, overfull).startswith("primal row ")


def test_check_lp_reads_values_past_int64():
    """Small numerators over a common denominator past 2^63 put den * b and
    den * c in Python ints, and the check stays exact; so does KCO's
    t_v = min(1, y(N_in(v))) in numerators."""
    c, A, b = [1, 1], np.array([[1, 1], [1, 0]]), [1, 1]
    p, q = 2**32 + 1, 2**32 - 1
    small = integer_form([Fraction(1, p), Fraction(1, q)], 3, None)
    assert small[0].dtype == np.int64 and small[1] >= 2**63
    assert lp._check_lp(c, A, b, x=small) is None
    assert lp._check_lp(c, A, b, y=small).startswith("dual column 0: ")
    one = integer_form([Fraction(1), Fraction(0)], 3, None)
    assert lp._check_lp(c, A, b, x=small, y=one).startswith("value: ")
    wide = integer_form([Fraction(1, p), 1 - Fraction(1, p) + Fraction(1, q)], 3, None)
    assert lp._check_lp(c, A, b, x=wide).startswith("primal row 0: ")
    inst = Instance(((0, 1), (1, 0)), 1, 1)
    y = [Fraction(1, p), Fraction(1, q)]
    X, Y, d = over_common_denominator(y + [0, 0], [0, 0, 1, 1, 0])
    assert d == p * q and X.dtype == np.int64 and Y.dtype == object
    G = np.eye(2, dtype=bool)
    reason = lp._exact_outcome(inst, G, 0, lp._reduced_lp(inst, G), X, Y, d)
    assert reason == f"value: c.x = {sum(y)} differs from b.y = 2"


# ---------------------------------------------------------------------------
# each probe rests on one basis: its vertex is checked once, and a corrupted
# or lying basis raises SolverPrecisionExceeded naming the radius


def count_solves(monkeypatch, corrupt_at=None, corrupt=None):
    """Wrap lp.solve_lp to note the radius of each probe, and
    lp._basis_solution to record that radius for each basis solved; at
    ``corrupt_at`` the numerators (d x, d duals) pass through
    ``corrupt(X, Y)`` first, where d must be the basis's |det| by the
    Bareiss reference."""
    real_solve, real_basis = lp.solve_lp, lp._basis_solution
    basis_radii, probing = [], []

    def solve(inst, R, formulation=None):
        probing[:] = [R]
        return real_solve(inst, R, formulation)

    def basis(c, A, b, basis):
        basis_radii.extend(probing)
        X, Y, d = real_basis(c, A, b, basis)
        if probing == [corrupt_at]:
            assert d == reference.basis_determinant(A, basis)
            corrupt(X, Y)
        return X, Y, d

    monkeypatch.setattr(lp, "solve_lp", solve)
    monkeypatch.setattr(lp, "_basis_solution", basis)
    return basis_radii


# (side of the reduced LP, step) -> the start of the check's reason when the
# largest entry's numerator over d moves by the step
CORRUPTIONS = {
    ("primal", 1): "primal row ",
    ("primal", -1): "value: ",
    ("dual", 1): "value: ",
    ("dual", -1): "dual column ",
}


def corrupt_numerator(n, side, step):
    """Move the numerator over d of the largest entry of the primal x (for
    KCO its first n entries, the cover, since t is rebuilt from it) or of
    the duals by ``step``."""

    def corrupt(X, Y):
        v = X if side == "primal" else Y
        j = max(range(n if side == "primal" else len(v)), key=v.__getitem__)
        v[j] += step

    return corrupt


def rejected_at(radius, reason):
    """pytest.raises for a SolverPrecisionExceeded that names ``radius`` and
    starts its reason with ``reason``."""
    return pytest.raises(SolverPrecisionExceeded,
                         match=rf"^at radius {re.escape(str(radius))}: {re.escape(reason)}")


def greedy_misses(monkeypatch):
    monkeypatch.setattr(lp, "_greedy_packing", lambda D, start, size: None)


@pytest.mark.parametrize("formulation", [KC, ASYM_KC, KCO])
@pytest.mark.parametrize("side", ["at R*", "below R*"])
def test_corrupted_basis_numerator_names_the_radius_and_side(monkeypatch, formulation, side):
    """One rounded numerator d x_j or d y_i moved by +1 or -1, on the primal
    and on the dual side, fails the check at that radius, and the search
    raises naming the radius and the failed side; no radius is solved twice."""
    inst = planted(formulation)
    r_star, below = boundary(inst, formulation)
    radius = r_star if side == "at R*" else below
    for (lp_side, step), reason in CORRUPTIONS.items():
        with monkeypatch.context() as mp:
            basis_radii = count_solves(mp, radius, corrupt_numerator(inst.n, lp_side, step))
            with rejected_at(radius, f"the vertex of the float basis: {reason}"):
                lp.min_feasible_radius(inst, formulation)
        assert basis_radii[-1] == radius
        assert len(set(basis_radii)) == len(basis_radii)


@pytest.mark.parametrize("formulation", [KC, ASYM_KC, KCO])
@pytest.mark.parametrize("corrupted", [False, True])
def test_each_probe_builds_its_reduced_lp_once(monkeypatch, formulation, corrupted):
    """solve_lp builds (c, A, b) once and hands it to the float solve, to the
    basis solve and to the check, whether the check accepts or rejects."""
    inst = planted(formulation)
    radius, _ = boundary(inst, formulation)
    corrupt = corrupt_numerator(inst.n, "primal", 1)
    basis_radii = count_solves(monkeypatch, radius if corrupted else None, corrupt)
    real, built = lp._reduced_lp, []
    monkeypatch.setattr(lp, "_reduced_lp", lambda *args: built.append(args) or real(*args))
    if corrupted:
        with rejected_at(radius, "the vertex of the float basis: primal row "):
            lp.solve_lp(inst, radius, formulation)
    else:
        assert lp.solve_lp(inst, radius, formulation).feasible
    assert len(built) == 1
    assert basis_radii == [radius]


def test_certify_falls_back_to_the_search_when_the_greedy_misses(monkeypatch):
    """With the packing route off the search answers, with the packing
    route's verdict; its probe at R* rests on its one basis, so a corrupted
    numerator there raises."""
    inst = planted(KC)
    packed = certify(inst, KC)
    assert packed.route == lp.PACKING
    greedy_misses(monkeypatch)
    basis_radii = count_solves(monkeypatch)
    verdict = lp.certify(inst, KC)
    assert verdict.route == lp.SEARCH and verdict.packing is None
    assert verdict.kind == packed.kind == OPTIMAL
    assert verdict.lp_radius == packed.lp_radius
    assert verdict.clustering == packed.clustering
    assert packed.lp_radius in basis_radii and len(set(basis_radii)) == len(basis_radii)
    with monkeypatch.context() as mp:
        count_solves(mp, packed.lp_radius, corrupt_numerator(inst.n, "dual", -1))
        with rejected_at(packed.lp_radius, "the vertex of the float basis: dual column "):
            lp.certify(inst, KC)


@pytest.mark.parametrize("numbers", ["int", "float"])
@pytest.mark.parametrize("side", ["at R*", "below R*"])
def test_float_probe_that_moves_the_boundary_is_overruled(monkeypatch, numbers, side):
    """A float solve that ends on a basis whose vertex wrongly puts R* past
    k, or the candidate below within k, fails its exact check there, and
    the search raises naming that radius rather than move the boundary. At
    R* the lie is the basis of every column p_v off the planted centers
    with the centers' slacks (value n - k > k), below R* the all-slack
    basis (value 0). A float instance (distances divided by 7) takes the
    same check."""
    inst, planted_clustering = generate(GeneratorConfig(n=16, k=3, seed=1))
    if numbers == "float":
        inst = inst.replace(dist=[[d / 7 for d in row] for row in inst.dist])
        assert not inst.exact
    greedy_misses(monkeypatch)
    expected = certify(inst, KC)
    assert expected.lp_radius == (996 if numbers == "int" else 996 / 7)
    assert expected.clustering.partition_key() == planted_clustering.partition_key()
    r_star, below = boundary(inst, KC)
    n, centers = inst.n, set(planted_clustering.centers)
    if side == "at R*":
        lie = [n + u if u in centers else u for u in range(n)]
        wrong_at, reason = r_star, "primal row "
    else:
        lie = list(range(n, 2 * n))
        wrong_at, reason = below, "dual column "
    G = build_threshold_graph(inst, wrong_at)
    c, A, b = lp._reduced_lp(inst, G)
    lie_value = sum(reference.basis_solution(c, A, b, lie)[0])
    assert (lie_value <= inst.k) != (solve_lp(inst, wrong_at, KC).feasible)
    basis_radii = count_solves(monkeypatch)
    real_solve, real_float = lp.solve_lp, lp.maximize
    solving = []

    def solve(inst_, R, formulation):
        solving[:] = [R]
        return real_solve(inst_, R, formulation)

    def wrong(c, A, b):
        res = real_float(c, A, b)
        return dataclasses.replace(res, basis=tuple(lie)) if solving == [wrong_at] else res

    monkeypatch.setattr(lp, "solve_lp", solve)
    monkeypatch.setattr(lp, "maximize", wrong)
    with rejected_at(wrong_at, f"the vertex of the float basis: {reason}"):
        lp.certify(inst, KC)
    assert basis_radii[-1] == wrong_at and len(set(basis_radii)) == len(basis_radii)


@pytest.mark.parametrize("formulation", [KC, ASYM_KC, KCO])
@pytest.mark.parametrize("n", [16, 32])
def test_planted_certify_never_pivots_exactly(monkeypatch, formulation, n):
    """With the packing route off, every float solve of the search is
    confirmed by the vertex of its one basis: each probed radius solves
    one basis, and nothing is solved again."""
    greedy_misses(monkeypatch)
    basis_radii = count_solves(monkeypatch)
    inst = planted(formulation, n=n, seed=n)
    assert inst.exact
    verdict = certify(inst, formulation)
    assert verdict.kind == OPTIMAL
    assert basis_radii and len(set(basis_radii)) == len(basis_radii)


# ---------------------------------------------------------------------------
# the packing route: a 0/1 packing and a clustering, checked, with no LP


def zero_one(inst, points):
    p = [0] * inst.n
    for u in points:
        p[u] = 1
    return p


SCALE = {"int": lambda d: d, "fraction": lambda d: Fraction(d, 7), "float": lambda d: d / 3}


def random_instance(rng, formulation, numbers, n, k, z):
    """A random closed metric (directed for asym-KC), its distances as
    ``numbers``: int, Fraction or float."""
    make = random_directed_metric_instance if formulation == ASYM_KC else random_metric_instance
    base = make(rng, n, k, z=z, high=rng.choice([5, 60]))
    scale = SCALE[numbers]
    return Instance(tuple(tuple(scale(d) for d in row) for row in base.dist),
                    k, z, symmetric=base.symmetric)


def overlapping(G, points):
    """``points`` with its last point swapped for one that shares an
    in-neighbour with the first."""
    first = points[0]
    shared = next(w for w in np.flatnonzero(G[first]).tolist() if w != first)
    return list(points[:-1]) + [shared]


def rejection(formulation):
    """How an overlapping set fails: the packing exceeds 1 on some
    out-neighbourhood (a primal row), or the KCO dual's gamma = 1 is below
    one (a dual column)."""
    return "dual column " if formulation == KCO else "primal row "


@pytest.mark.parametrize("formulation", [KC, ASYM_KC, KCO])
def test_checkers_accept_a_zero_one_packing_and_reject_an_overlap(formulation):
    inst = planted(formulation, n=16, seed=16)
    verdict = certify(inst, formulation)
    assert verdict.route == lp.PACKING
    packing = verdict.packing
    r_star, below = boundary(inst, formulation)
    assert packing.radius == below and verdict.lp_radius == r_star
    assert len(packing.points) == inst.k + 1 + (inst.z if formulation == KCO else 0)
    G = build_threshold_graph(inst, packing.radius)
    c, A, b = lp._reduced_lp(inst, G)
    p = np.array(zero_one(inst, packing.points))
    if formulation == KCO:
        dual = np.concatenate([p, 1 - p, [1]])
        assert lp._check_lp(c, A, b, y=(dual, 1)) is None
        assert lp._dot(b, dual) == inst.n - inst.z - 1
    else:
        assert lp._check_lp(c, A, b, x=(p, 1)) is None
        assert lp._dot(c, p) == inst.k + 1
    assert lp._packing_reason(inst, G, packing.points) is None
    overlap = overlapping(G, packing.points)
    assert lp._packing_reason(inst, G, overlap).startswith(rejection(formulation))
    short = lp._packing_reason(inst, G, packing.points[:-1])
    target = f"below n - z = {inst.n - inst.z}" if formulation == KCO else f"above k = {inst.k}"
    assert short.startswith("value: ") and short.endswith(target)


@pytest.mark.parametrize("formulation", [KC, ASYM_KC, KCO])
def test_overlapping_greedy_packing_is_rejected(monkeypatch, formulation):
    """Every pass hands the check a set with a real overlap at the radius it
    checks; it rejects the set, and the search answers."""
    inst = planted(formulation)
    real, real_reason = lp._greedy_packing, lp._packing_reason
    greedy_misses(monkeypatch)
    expected = certify(inst, formulation)
    overlaps, reasons = [], []

    def overlap(D, start, size):
        points, m = real(D, start, size)
        below = max(r for r in inst.distinct_distances() if r < m)
        points = overlapping(build_threshold_graph(inst, below), points)
        overlaps.append(points)
        return points, m

    def reason(inst_, G, points):
        reasons.append((points, real_reason(inst_, G, points)))
        return reasons[-1][1]

    monkeypatch.setattr(lp, "_greedy_packing", overlap)
    monkeypatch.setattr(lp, "_packing_reason", reason)
    verdict = lp.certify(inst, formulation)
    assert len(overlaps) == 2
    assert [points for points, _ in reasons] == overlaps
    assert all(why.startswith(rejection(formulation)) for _, why in reasons)
    assert verdict.route == lp.SEARCH and verdict.packing is None
    assert verdict == expected


NUMBERS = ["int", "fraction", "float", "int past 2^63"]


def encoded_instance(rng, numbers, directed, n):
    """A random closed metric with many ties, its entries as ``numbers``."""
    k = rng.randint(1, n)
    if numbers != "int past 2^63":
        return encoded_metric(rng, n, k, 0, numbers, directed)
    base = encoded_metric(rng, n, k, 0, "int", directed)
    inst = Instance(tuple(tuple(d * 2**64 for d in row) for row in base.dist), k,
                    symmetric=base.symmetric)
    assert inst._array.dtype == object
    return inst


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10_000), numbers=st.sampled_from(NUMBERS),
       directed=st.booleans(), self_distance=st.booleans())
def test_conflict_radius_is_the_shared_in_neighbour_rule(seed, numbers, directed,
                                                         self_distance):
    """c(u, v) <= R (+ tol) iff u and v share an in-neighbour in G_R, at
    every candidate radius. Every point is its own in-neighbour even when
    its distance to itself is above zero; then only u != v is compared."""
    rng = random.Random(seed)
    inst = encoded_instance(rng, numbers, directed, rng.randint(2, 9))
    n = inst.n
    if self_distance:
        inst = inst.replace(dist=tuple(
            tuple(row[(u + 1) % n] if v == u else d for v, d in enumerate(row))
            for u, row in enumerate(inst.dist)))
    others = ~np.eye(n, dtype=bool) if self_distance else np.ones((n, n), dtype=bool)
    rows = [lp._conflict_row(inst._array, u) for u in inst.points]
    for R in inst.distinct_distances():
        G = build_threshold_graph(inst, R)
        for u in inst.points:
            blocked = G[G[:, u]].any(axis=0)
            assert ((rows[u] <= R + inst.tol) == blocked)[others[u]].all()


def test_asymmetric_planted_instance_takes_the_packing_route():
    """Point 0 as the only start missed this instance; the farthest-first
    pass in conflict radius packs it."""
    inst = planted(ASYM_KC)
    verdict = certify(inst, ASYM_KC)
    assert verdict.route == lp.PACKING
    assert verdict.packing == lp.Packing(radius=980, points=(2, 4, 6, 9))
    assert verdict.lp_radius == 996 == brute_force(inst, KCENTER).cost


@pytest.mark.parametrize("formulation", [KC, KCO])
@pytest.mark.parametrize("n", [16, 32])
def test_planted_certify_solves_no_lp(monkeypatch, formulation, n):
    real = lp.solve_lp
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(lp, "solve_lp", counted)
    inst = planted(formulation, n=n, seed=n)
    verdict = certify(inst, formulation)
    assert verdict.kind == OPTIMAL and verdict.route == lp.PACKING
    assert calls == []


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 10_000), formulation=st.sampled_from([KC, ASYM_KC, KCO]),
       numbers=st.sampled_from(["int", "fraction", "float"]))
def test_packing_route_radius_is_the_searched_and_the_brute_force_one(seed, formulation,
                                                                      numbers):
    rng = random.Random(seed)
    n = rng.randint(4, 9)
    z = rng.randint(1, 2) if formulation == KCO else 0
    inst = random_instance(rng, formulation, numbers, n, rng.randint(1, n - z - 1), z)
    verdict = lp._packing_route(inst)
    if verdict is None:
        return
    r_star = verdict.lp_radius
    best = brute_force(inst, KCENTER)
    assert r_star == min_feasible_radius(inst, formulation)[0]
    assert r_star == best.cost == lp.cost(inst, verdict.clustering, KCENTER)
    assert verdict.packing.radius == max(r for r in inst.distinct_distances() if r < r_star)
    # the search gives the same verdict and the same partition, second
    # optimum or not: it runs the same component recovery at the same R*
    # before it rounds a vertex
    with mock.patch.object(lp, "_packing_route", lambda inst_: None):
        searched = certify(inst, formulation)
    assert searched.route == lp.SEARCH
    assert (searched.kind, searched.lp_radius) == (verdict.kind, r_star)
    assert searched.clustering.partition_key() == verdict.clustering.partition_key()


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10_000), formulation=st.sampled_from([KC, ASYM_KC, KCO]),
       numbers=st.sampled_from(["int", "fraction", "float"]))
def test_component_recovery_matches_the_scalar_reference(seed, formulation, numbers):
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    z = rng.randint(1, n - 1) if formulation == KCO else 0
    inst = random_instance(rng, formulation, numbers, n, rng.randint(1, n - z), z)
    for R in inst.distinct_distances():
        got = lp._component_clustering(inst, build_threshold_graph(inst, R))
        assert got == reference.component_clustering(inst, R, formulation)


# ---------------------------------------------------------------------------
# the threshold graph as one comparison


def set_based_graph(inst, R):
    n, tol = inst.n, inst.tol
    out_nbr = [frozenset(u for u in range(n) if u == v or inst.dist[v][u] <= R + tol)
               for v in range(n)]
    in_nbr = [frozenset(u for u in range(n) if u == v or inst.dist[u][v] <= R + tol)
              for v in range(n)]
    return out_nbr, in_nbr


@pytest.mark.parametrize("numbers", ["int", "fraction", "float"])
@pytest.mark.parametrize("mode", ["symmetric", "asymmetric"])
def test_threshold_graph_matches_set_definition(numbers, mode):
    base, _ = generate(GeneratorConfig(n=14, k=3, seed=4, mode=mode))
    scale = SCALE[numbers]
    inst = Instance(tuple(tuple(scale(d) for d in row) for row in base.dist),
                    base.k, symmetric=base.symmetric)
    assert inst.exact == (numbers != "float")
    cands = inst.distinct_distances()
    # every candidate is a distance, so pairs at exactly R are on the boundary
    radii = cands[:: max(1, len(cands) // 12)] + [cands[-1]]
    if numbers != "float":
        radii += [Fraction(7, 2), Fraction(1, 3)]
    for R in radii:
        G = build_threshold_graph(inst, R)
        out_nbr, in_nbr = set_based_graph(inst, R)
        assert [frozenset(np.flatnonzero(row).tolist()) for row in G] == out_nbr
        assert [frozenset(np.flatnonzero(col).tolist()) for col in G.T] == in_nbr


def test_distance_array_is_cached_and_private():
    inst = Instance(((0, 3), (3, 0)), k=1)
    other = Instance(((0, 3), (3, 0)), k=1)
    assert inst._array is inst._array
    assert inst._array.dtype.kind == "i"
    assert inst == other and hash(inst) == hash(other)
    assert "_array" not in repr(inst)
    assert Instance(((0, Fraction(1, 2)), (Fraction(1, 2), 0)), k=1)._array.dtype == object
    assert Instance(((0, 2**70), (2**70, 0)), k=1)._array.dtype == object
    # int64 only while every |entry| < 2**61: twice a sum of two entries fits
    assert Instance(((0, 2**61 - 1), (2**61 - 1, 0)), k=1)._array.dtype == np.int64
    assert Instance(((0, 2**61), (2**61, 0)), k=1)._array.dtype == object
    assert Instance(((0, -(2**61)), (1, 0)), k=1)._array.dtype == object
    assert Instance(((0, 0.5), (0.5, 0)), k=1)._array.dtype.kind == "f"


# ---------------------------------------------------------------------------
# certify against the oracle and under relabelling


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), formulation=st.sampled_from([KC, KCO]))
def test_certify_radius_against_brute_force(seed, formulation):
    rng = random.Random(seed)
    n = rng.randint(4, 9)
    z = rng.randint(1, 2) if formulation == KCO else 0
    k = rng.randint(1, n - z - 1)
    inst = random_metric_instance(rng, n, k, z=z, high=rng.choice([5, 60]))
    best = brute_force(inst, KCENTER).cost
    verdict = certify(inst, formulation)
    if verdict.kind == OPTIMAL:
        assert verdict.lp_radius == best
    else:
        assert verdict.kind == NOT_2PR
        assert verdict.lp_radius <= best


def relabelled(inst, perm):
    """perm[u] is the new label of point u."""
    n = inst.n
    dist = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(n):
            dist[perm[u]][perm[v]] = inst.dist[u][v]
    return Instance(tuple(map(tuple, dist)), inst.k, inst.z)


def moved_partition(clus, perm):
    blocks, outliers = clus.partition_key()
    return (frozenset(frozenset(perm[u] for u in b) for b in blocks),
            frozenset(perm[u] for u in outliers))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), formulation=st.sampled_from([KC, KCO]))
def test_certify_relabelling_relabels_the_output(seed, formulation):
    rng = random.Random(seed)
    n = rng.randint(4, 9)
    z = rng.randint(1, 2) if formulation == KCO else 0
    k = rng.randint(1, n - z - 1)
    inst = random_metric_instance(rng, n, k, z=z, high=rng.choice([5, 60]))
    perm = list(range(n))
    rng.shuffle(perm)
    before = certify(inst, formulation)
    after = certify(relabelled(inst, perm), formulation)
    assert after.lp_radius == before.lp_radius
    best = brute_force(inst, KCENTER)
    if after.kind != before.kind:
        # Integral recovery is a heuristic off the resilient class: its route
        # (the simplex vertex, the padding of centers) depends on the labels,
        # so OPTIMAL and NOT_2PR can both be true of one instance. Both only
        # ever happen on an instance that is not 2-perturbation resilient.
        assert not best.unique or verify_planted(inst, best.best, KCENTER) != []
    elif before.kind == OPTIMAL:
        if best.unique:
            assert after.clustering.partition_key() == moved_partition(before.clustering, perm)
    else:
        assert after.fractional_witness.bound == before.fractional_witness.bound


# ---------------------------------------------------------------------------
# the verdict check survives python -O


def test_certify_cost_check_exits_4_under_python_O(tmp_path):
    inst = planted(KC, n=12)
    path = tmp_path / "inst.json"
    path.write_text('{"k": %d, "dist": %s}' % (inst.k, [list(row) for row in inst.dist]))
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH", "")) if p)
    script = (
        "import sys\n"
        "if __debug__: sys.exit('not running under -O')\n"
        "from resilient_cluster import cli, lp\n"
        "real = lp.cost\n"
        "lp.cost = lambda inst, clus, obj: real(inst, clus, obj) + 1\n"
        "route = lp._packing_route\n"
        "answered = []\n"
        "lp._packing_route = lambda *a: answered.append(route(*a)) or answered[-1]\n"
        f"code = cli.main(['certify', '--input', {str(path)!r}])\n"
        "sys.exit(code if len(answered) == 1 and answered[0] else 'the packing route missed')\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 4, proc.stderr
    assert "internal error" in proc.stderr

"""Tests for the float tableau simplex: hand cases, exact strong duality at
its final basis, scipy cross-check, and a float cycle it must break. The
simplex returns only its final basis; each value below is that basis's
vertex, solved exactly by the Bareiss reference or by lp._basis_solution,
which must agree with the reference entry for entry."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from resilient_cluster import lp, simplex
from resilient_cluster.core import integer_form
from resilient_cluster.simplex import OPTIMAL, UNBOUNDED, maximize

import scalar_reference as reference
from conftest import graph_metric_instance, unplanted_instance


def solved(c, A, b):
    """The vertex x of the simplex's final basis on an integer LP and its
    value c.x, exactly, by the Bareiss reference."""
    res = maximize(c, A, b)
    assert res.status == OPTIMAL
    x, _ = reference.basis_solution(c, A, b, res.basis)
    return x, sum(cj * v for cj, v in zip(c, x))


def test_small_hand_lp():
    # max x + y s.t. x <= 2, y <= 3, x + y <= 4
    x, value = solved([1, 1], [[1, 0], [0, 1], [1, 1]], [2, 3, 4])
    assert value == 4
    assert sum(x) == 4


def test_degenerate_lp_terminates():
    # redundant constraints force degenerate pivots; the solve must exit
    _, value = solved([1], [[1], [1], [1]], [1, 1, 1])
    assert value == 1


def test_unbounded_detected():
    res = maximize([1, 0], [[0, 1]], [1])
    assert res.status == UNBOUNDED


def test_negative_rhs_rejected():
    with pytest.raises(ValueError):
        maximize([1], [[1]], [-1])


@pytest.mark.parametrize("part", ["c", "A", "b"])
def test_non_finite_entry_rejected(part):
    """A NaN or infinite entry anywhere in the LP is refused: a NaN reduced
    cost would otherwise be taken as the largest."""
    for bad in (math.nan, math.inf, -math.inf):
        lp_parts = {"c": [1, 1], "A": [[1, 0], [0, 1]], "b": [1, 1]}
        if part == "A":
            lp_parts["A"][1][0] = bad
        else:
            lp_parts[part][0] = bad
        with pytest.raises(ValueError, match="finite"):
            maximize(lp_parts["c"], lp_parts["A"], lp_parts["b"])


def test_fractional_packing_value():
    # fractional matching on a triangle: each edge variable in [0,1], vertex
    # capacities 1; optimum 3/2
    A = [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
    x, value = solved([1, 1, 1], A, [1, 1, 1])
    assert value == Fraction(3, 2)
    assert all(v == Fraction(1, 2) for v in x)


def _random_lp(rng):
    nv = rng.randint(1, 5)
    m = rng.randint(1, 6)
    A = [[rng.randint(0, 6) for _ in range(nv)] for _ in range(m)]
    # box rows keep the problem bounded
    for j in range(nv):
        row = [0] * nv
        row[j] = 1
        A.append(row)
    b = [rng.randint(0, 12) for _ in range(m)] + [rng.randint(1, 9) for _ in range(nv)]
    c = [rng.randint(-3, 6) for _ in range(nv)]
    return c, A, b


@pytest.mark.parametrize("seed", range(30))
def test_exact_strong_duality(seed):
    """The float solve's final basis, solved exactly, is an optimal vertex:
    exactly primal and dual feasible with equal objectives."""
    rng = random.Random(seed)
    c, A, b = _random_lp(rng)
    res = maximize(c, A, b)
    assert res.status == OPTIMAL
    x, y = lp._basis_solution(c, A, b, res.basis)
    assert all(type(v) is Fraction for v in x + y)
    # primal feasibility
    for row, bi in zip(A, b):
        assert sum(a * v for a, v in zip(row, x)) <= bi
    assert all(v >= 0 for v in x)
    # dual feasibility and exact strong duality
    assert all(v >= 0 for v in y)
    for j in range(len(c)):
        assert sum(y[i] * A[i][j] for i in range(len(A))) >= c[j]
    value = sum(cj * v for cj, v in zip(c, x))
    assert sum(v * bi for v, bi in zip(y, b)) == value
    ref = linprog([-v for v in c], A_ub=A, b_ub=b, method="highs")
    assert value == pytest.approx(-ref.fun, abs=1e-9)


@pytest.mark.parametrize("seed", range(30))
def test_basis_solution_matches_the_bareiss_reference(seed):
    """On the general-integer LPs above, the float solve over the basis's
    determinant gives the exact vertex and duals, entry for entry."""
    c, A, b = _random_lp(random.Random(seed))
    res = maximize(c, A, b)
    assert lp._basis_solution(c, A, b, res.basis) == reference.basis_solution(c, A, b, res.basis)


def test_basis_solution_matches_the_bareiss_reference_on_graph_probes(monkeypatch):
    """Every probe that certify solves on the graph metrics (seeds 0-119,
    k = 2 and 3), s83's determinant of 1669313 among them, gives the same
    vertex and duals as the Bareiss reference."""
    real, probes = lp._basis_solution, []

    def recorded(c, A, b, basis):
        probes.append((c, A, b, basis, real(c, A, b, basis)))
        return probes[-1][-1]

    monkeypatch.setattr(lp, "_basis_solution", recorded)
    for seed in range(120):
        for k in (2, 3):
            lp.certify(graph_metric_instance(seed, k))
    assert len(probes) > 100
    for c, A, b, basis, got in probes:
        assert got == reference.basis_solution(c, A, b, basis)


@pytest.mark.parametrize("seed", range(20))
def test_bareiss_solve_is_exact(seed):
    """Integer elimination solves M x = rhs exactly; seeds 9 and 14 draw a
    singular M, which it reports as None."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 10))
    M = rng.integers(-3, 4, size=(m, m)) * (rng.random((m, m)) < 0.6)
    rhs = rng.integers(-5, 6, size=m)
    solution = reference.bareiss_solve(M, rhs)
    if np.linalg.matrix_rank(M) < m:
        assert solution is None
        return
    v, d = solution
    x = [Fraction(a, d) for a in v]
    assert [sum(int(a) * xj for a, xj in zip(row, x)) for row in M] == rhs.tolist()


@pytest.mark.parametrize("seed", range(20))
def test_matches_scipy_linprog(seed):
    rng = random.Random(1000 + seed)
    c, A, b = _random_lp(rng)
    _, value = solved(c, A, b)
    ref = linprog([-v for v in c], A_ub=A, b_ub=b, method="highs")
    assert ref.status == 0
    assert value == pytest.approx(-ref.fun, abs=1e-7)


def test_float_bland_cycle_is_broken():
    """On this packing LP (G(n, p) at radius 1, seed 44) float Bland's rule
    alone cycles past its budget; Dantzig's rule, which the solve takes
    first, converges, and the basis it ends on is exactly optimal."""
    inst = graph_metric_instance(44, k=10)
    G = lp.build_threshold_graph(inst, 1)
    c, A, b = lp._reduced_lp(inst, G)
    res = maximize(c, A, b)
    assert res.status == OPTIMAL
    x, y = lp._basis_solution(c, A, b, res.basis)
    assert sum(x) == sum(y) == Fraction(1407, 152)
    assert lp._check_lp(c, A, b, integer_form(x, len(x) + 1, None),
                        integer_form(y, len(y) + 1, None)) is None


BEALE = ([Fraction(3, 4), -20, Fraction(1, 2), -6],
         [[1 / 4, -8, -1, 9], [1 / 2, -12, -1 / 2, 3], [0, 0, 1, 0]], [0, 0, 1])


def test_dantzig_cycle_falls_back_to_bland():
    """Beale's LP: Dantzig's rule, ties to the lowest basic index, cycles on
    it for the whole first budget of 2350 pivots; Bland's rule then
    finishes at the optimum 5/4. Its vertex is read exactly with the rows
    scaled to integers (by 4, 2 and 1), which leaves x as it is."""
    c = BEALE[0]
    res = maximize(*BEALE)
    assert res.status == OPTIMAL
    x, _ = reference.basis_solution([3, -80, 2, -24],
                                    [[1, -32, -4, 36], [1, -24, -1, 6], [0, 0, 1, 0]],
                                    [0, 0, 1], res.basis)
    assert sum(cj * v for cj, v in zip(c, x)) == Fraction(5, 4)


def test_pivots_match_the_reference_loop(monkeypatch):
    """The tableau loop returns the reference loop's status and basis on the
    random LPs above, Beale's LP, the seed-44 graph LP and every probe that
    certify solves on the graph draws (seeds 0-119, k = 2 and 3) and on an
    unplanted KC and KCO metric; both forms of the rank-1 update run."""
    lps = [_random_lp(random.Random(seed)) for seed in (*range(30), *range(1000, 1020))]
    lps.append(BEALE)
    inst = graph_metric_instance(44, k=10)
    lps.append(lp._reduced_lp(inst, lp.build_threshold_graph(inst, 1)))
    real = lp.maximize

    def recorded(c, A, b):
        lps.append((c, A, b))
        return real(c, A, b)

    monkeypatch.setattr(lp, "maximize", recorded)
    for seed in range(120):
        for k in (2, 3):
            lp.certify(graph_metric_instance(seed, k))
    for z in (0, 3):
        lp.certify(unplanted_instance(0, 60, z))
    monkeypatch.undo()

    forms = set()
    touched_rows = simplex._touched_rows

    def spied(f):
        rows = touched_rows(f)
        forms.add("all" if isinstance(rows, slice) else "nonzero")
        return rows

    monkeypatch.setattr(simplex, "_touched_rows", spied)
    assert len(lps) > 200
    for c, A, b in lps:
        assert maximize(c, A, b) == reference.maximize_reference(c, A, b)
    assert forms == {"all", "nonzero"}


def test_overflowing_ratios_tie_as_in_the_reference_loop():
    """Both eligible ratios overflow to inf, the fill of the ineligible row
    0: the eligible rows alone tie, and row 1, of the lower basic index,
    leaves as in the reference loop."""
    c, A, b = [1], [[0], [2e-9], [3e-9]], [1, 1e300, 1e300]
    with np.errstate(over="ignore"):
        res = maximize(c, A, b)
        assert res == reference.maximize_reference(c, A, b)
    assert res.basis == (1, 0, 3)

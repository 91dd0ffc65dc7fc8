"""Tests for the float tableau simplex: hand cases, exact strong duality at
its final basis, scipy cross-check, and a float cycle it must break."""

import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from resilient_cluster import lp
from resilient_cluster.core import integer_form
from resilient_cluster.simplex import OPTIMAL, UNBOUNDED, SimplexResult, maximize

from conftest import graph_metric_instance


def test_small_hand_lp():
    # max x + y s.t. x <= 2, y <= 3, x + y <= 4
    res = maximize([1, 1], [[1, 0], [0, 1], [1, 1]], [2, 3, 4])
    assert res.status == OPTIMAL
    assert res.value == 4
    assert sum(res.x) == 4


def test_degenerate_lp_terminates():
    # redundant constraints force degenerate pivots; the solve must exit
    res = maximize([1], [[1], [1], [1]], [1, 1, 1])
    assert res.status == OPTIMAL
    assert res.value == 1


def test_unbounded_detected():
    res = maximize([1, 0], [[0, 1]], [1])
    assert res.status == UNBOUNDED


def test_negative_rhs_rejected():
    with pytest.raises(ValueError):
        maximize([1], [[1]], [-1])


def test_fractional_packing_value():
    # fractional matching on a triangle: each edge variable in [0,1], vertex
    # capacities 1; optimum 3/2
    A = [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
    res = maximize([1, 1, 1], A, [1, 1, 1])
    assert res.value == Fraction(3, 2)
    assert all(x == Fraction(1, 2) for x in res.x)


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
    assert value == pytest.approx(res.value, abs=1e-9)


@pytest.mark.parametrize("seed", range(20))
def test_bareiss_solve_is_exact(seed):
    """Integer elimination solves M x = rhs exactly; seeds 9 and 14 draw a
    singular M, which it reports as None."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 10))
    M = rng.integers(-3, 4, size=(m, m)) * (rng.random((m, m)) < 0.6)
    rhs = rng.integers(-5, 6, size=m)
    solved = lp._bareiss_solve(M, rhs)
    if np.linalg.matrix_rank(M) < m:
        assert solved is None
        return
    v, d = solved
    x = [Fraction(a, d) for a in v]
    assert [sum(int(a) * xj for a, xj in zip(row, x)) for row in M] == rhs.tolist()


@pytest.mark.parametrize("seed", range(20))
def test_matches_scipy_linprog(seed):
    rng = random.Random(1000 + seed)
    c, A, b = _random_lp(rng)
    res = maximize(c, A, b)
    assert res.status == OPTIMAL
    ref = linprog([-v for v in c], A_ub=A, b_ub=b, method="highs")
    assert ref.status == 0
    assert res.value == pytest.approx(-ref.fun, abs=1e-7)


def test_float_bland_cycle_is_broken():
    """On this packing LP (G(n, p) at radius 1, seed 44) float Bland's rule
    alone cycles past its budget; Dantzig's rule, which the solve takes
    first, converges, and the basis it ends on is exactly optimal."""
    inst = graph_metric_instance(44, k=10)
    G = lp.build_threshold_graph(inst, 1)
    c, A, b = lp._reduced_lp(G, lp.KC, inst.k)
    res = maximize(c, A, b)
    assert res.status == OPTIMAL
    x, y = lp._basis_solution(c, A, b, res.basis)
    assert sum(x) == sum(y) == Fraction(1407, 152)
    assert lp._check_lp(c, A, b, integer_form(x, len(x) + 1, None),
                        integer_form(y, len(y) + 1, None)) is None


def test_dantzig_cycle_falls_back_to_bland():
    """Beale's LP: Dantzig's rule, ties to the lowest basic index, cycles on
    it for the whole first budget of 2350 pivots; Bland's rule then
    finishes at the optimum 5/4."""
    res = maximize([3 / 4, -20, 1 / 2, -6],
                   [[1 / 4, -8, -1, 9], [1 / 2, -12, -1 / 2, 3], [0, 0, 1, 0]], [0, 0, 1])
    assert res.status == OPTIMAL
    assert abs(res.value - 5 / 4) < 1e-9

"""Dense-tableau simplex over floats or exact rationals, with Bland's rule.

Handles max c.x subject to A x <= b, x >= 0 with b >= 0 — the shape every LP
in this package takes once cast as a packing / bounded-coverage problem — so
the all-slack basis is feasible and no phase-1 is needed.

One numpy tableau serves both arithmetics. The dtype rule: float64 in float
mode, object (``Fraction`` entries) in exact mode; every pivot is the same
array expression either way. Bland's rule picks the first column with a
positive reduced cost and, among the rows of minimum ratio, the one whose
basic variable has the lowest index, which rules out cycling. In exact mode
every comparison and division is rational, so optimality is not a tolerance
statement. The certifier solves in float mode and checks the result exactly
(see :mod:`resilient_cluster.lp`); exact mode is its counted fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"

FLOAT_PIVOT_TOL = 1e-9

_to_fraction = np.frompyfunc(Fraction, 1, 1)


class SolverPrecisionExceeded(RuntimeError):
    """Floating-point pivoting degenerated; retry in exact arithmetic."""


@dataclass(frozen=True)
class SimplexResult:
    status: str
    x: tuple
    value: object
    duals: tuple  # y >= 0 with y.A >= c componentwise and y.b == value at optimum


def _as_array(values, exact: bool) -> np.ndarray:
    if exact:
        # bools and numpy integers become Python ints first: Fraction takes those
        return _to_fraction(np.asarray(values).astype(object))
    return np.asarray(values, dtype=np.float64)


def maximize(c, A, b, exact: bool = True) -> SimplexResult:
    try:
        c = _as_array(c, exact)
        rows = _as_array(A, exact)
        rhs = _as_array(b, exact)
    except ValueError as e:
        raise ValueError(f"inconsistent LP dimensions: {e}") from None
    m = len(rhs)
    nv = len(c)
    if m == 0:
        rows = rows.reshape(0, nv)
    if c.ndim != 1 or rhs.ndim != 1 or rows.shape != (m, nv):
        raise ValueError("inconsistent LP dimensions")
    tol = 0 if exact else FLOAT_PIVOT_TOL
    if (rhs < -tol).any():
        raise ValueError("rhs must be nonnegative (all-slack start)")
    zero, one = (Fraction(0), Fraction(1)) if exact else (0.0, 1.0)

    # rows 0..m-1 are the constraints, row m the reduced costs; the last
    # column is the right-hand side
    width = nv + m
    T = np.full((m + 1, width + 1), zero, dtype=rhs.dtype)
    T[:m, :nv] = rows
    T[np.arange(m), nv + np.arange(m)] = one
    T[:m, width] = np.where(rhs > 0, rhs, zero)
    T[m, :nv] = c
    zrow = T[m, :width]
    rhs_col = T[:m, width]
    basis = np.arange(nv, nv + m)

    max_iters = 2000 + 50 * (m + nv)
    iters = 0
    while True:
        positive = np.flatnonzero(zrow > tol)
        if not len(positive):
            break
        enter = positive[0]
        col = T[:m, enter]
        cand = np.flatnonzero(col > tol)
        if not len(cand):
            return SimplexResult(UNBOUNDED, (), None, ())
        ratios = rhs_col[cand] / col[cand]
        tied = cand[ratios == ratios.min()]
        leave = tied[np.argmin(basis[tied])]
        piv = T[leave, enter]
        inv = 1 / piv
        piv_row = T[leave] * inv
        T[leave] = piv_row
        f = T[:, enter].copy()
        f[leave] = 0
        hit = np.flatnonzero(f)
        T[hit] -= f[hit, None] * piv_row
        basis[leave] = enter
        iters += 1
        if iters > max_iters:
            if exact:
                raise RuntimeError("simplex failed to terminate under Bland's rule")
            raise SolverPrecisionExceeded(f"no convergence after {iters} pivots")

    x = np.full(nv, zero, dtype=T.dtype)
    basic = basis < nv
    x[basis[basic]] = rhs_col[basic]
    x = x.tolist()
    value = sum(cv * xv for cv, xv in zip(c.tolist(), x))
    duals = tuple((-zrow[nv:]).tolist())
    return SimplexResult(OPTIMAL, tuple(x), value, duals)

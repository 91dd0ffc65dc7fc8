"""Dense-tableau float64 simplex: Dantzig's rule, Bland's on a stall.

Handles max c.x subject to A x <= b, x >= 0 with b >= 0 — the shape every LP
in this package takes once cast as a packing / bounded-coverage problem — so
the all-slack basis is feasible and no phase-1 is needed.

Dantzig's rule enters the column with the largest reduced cost; among the
rows of minimum ratio the one whose basic variable has the lowest index
leaves. On the certifier's degenerate 0/1 packing LPs it takes far fewer
pivots than Bland's rule, but it can cycle. So after ``max_iters`` pivots
the first column with a positive reduced cost enters (Bland's rule, which
cannot cycle in exact arithmetic), and after as many again the solve gives
up with :class:`SolverPrecisionExceeded`. A solve that converges within the
first budget takes exactly Dantzig's pivots.

The result is the status and the final basis; nothing here is exact. The
certifier reads the basis's vertex and duals over its determinant and checks
them in rational arithmetic (see :mod:`resilient_cluster.lp`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"

FLOAT_PIVOT_TOL = 1e-9


class SolverPrecisionExceeded(RuntimeError):
    """A float solve could not be confirmed exactly: the simplex stalled or
    came back unbounded, its final basis B has a determinant below 1/2 or not
    finite, or the vertex and duals of B, rounded over d = |det B|, fail the
    exact check, as they do once the float error reaches 1 / (2d). The
    message names the radius and the reason."""


@dataclass(frozen=True)
class SimplexResult:
    status: str
    # the basic variable of each row: j < len(c) is x_j, len(c) + i the slack of row i
    basis: tuple


def maximize(c, A, b) -> SimplexResult:
    try:
        c = np.asarray(c, dtype=np.float64)
        rows = np.asarray(A, dtype=np.float64)
        rhs = np.asarray(b, dtype=np.float64)
    except ValueError as e:
        raise ValueError(f"inconsistent LP dimensions: {e}") from None
    m = len(rhs)
    nv = len(c)
    if m == 0:
        rows = rows.reshape(0, nv)
    if c.ndim != 1 or rhs.ndim != 1 or rows.shape != (m, nv):
        raise ValueError("inconsistent LP dimensions")
    tol = FLOAT_PIVOT_TOL
    if (rhs < -tol).any():
        raise ValueError("rhs must be nonnegative (all-slack start)")

    # rows 0..m-1 are the constraints, row m the reduced costs; the last
    # column is the right-hand side
    width = nv + m
    T = np.zeros((m + 1, width + 1))
    T[:m, :nv] = rows
    T[np.arange(m), nv + np.arange(m)] = 1.0
    T[:m, width] = np.where(rhs > 0, rhs, 0.0)
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
        # Dantzig's rule; past its budget, Bland's rule breaks a cycle
        enter = positive[np.argmax(zrow[positive])] if iters < max_iters else positive[0]
        col = T[:m, enter]
        cand = np.flatnonzero(col > tol)
        if not len(cand):
            return SimplexResult(UNBOUNDED, ())
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
        if iters > 2 * max_iters:
            raise SolverPrecisionExceeded(f"no convergence after {iters} pivots")

    return SimplexResult(OPTIMAL, tuple(basis.tolist()))

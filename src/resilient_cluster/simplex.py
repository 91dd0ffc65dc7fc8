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

Each pivot is one rank-1 update of the tableau T: the pivot row is
multiplied by the reciprocal of the pivot, and every other row i then has
f_i times that row subtracted, f the entering column with the pivot row's
entry zeroed. The update reads f alone to pick its form: when more than half
of f is nonzero it runs over all rows at once, else only over f's nonzero
rows. The two forms differ at most in the sign of a zero entry, which no
comparison sees, so the form decides no pivot. The entering column, the
ratio test and its ties, the rule switch and every float operation on the
tableau are those of the plainer loop that ``tests/scalar_reference.py``
keeps as ``maximize_reference``, which updates only f's nonzero rows on
every pivot; the tests hold the two to the same status and basis. Every
entry of c, A and b must be finite: a NaN would be taken for the largest
reduced cost.

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
    if not (np.isfinite(c).all() and np.isfinite(rows).all() and np.isfinite(rhs).all()):
        raise ValueError("LP entries must be finite")
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
    ratios = np.empty(m)

    max_iters = 2000 + 50 * (m + nv)
    iters = 0
    while True:
        # Dantzig's rule; past its budget, Bland's rule breaks a cycle
        enter = zrow.argmax()
        if not zrow[enter] > tol:
            break
        if iters >= max_iters:
            enter = (zrow > tol).argmax()
        f = T[:, enter].copy()
        col = f[:m]
        eligible = col > tol
        ratios.fill(np.inf)
        np.divide(rhs_col, col, out=ratios, where=eligible)
        least = ratios[ratios.argmin()]
        # the inf of a row that is not eligible ties only when no ratio is finite
        tied = (ratios == least if least < np.inf else eligible).nonzero()[0]
        if not len(tied):
            return SimplexResult(UNBOUNDED, ())
        leave = tied[basis[tied].argmin()]
        piv_row = T[leave]
        piv_row *= 1 / f[leave]
        f[leave] = 0
        touched = _touched_rows(f)
        T[touched] -= f[touched, None] * piv_row
        basis[leave] = enter
        iters += 1
        if iters > 2 * max_iters:
            raise SolverPrecisionExceeded(f"no convergence after {iters} pivots")

    return SimplexResult(OPTIMAL, tuple(basis.tolist()))


def _touched_rows(f):
    """The rows of a pivot's rank-1 update: all of them when more than half
    of f is nonzero, else f's nonzero rows."""
    return slice(None) if 2 * np.count_nonzero(f) > len(f) else f.nonzero()[0]

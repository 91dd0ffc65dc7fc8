"""Threshold-graph LP relaxations, the minimum-radius search, and the exact
check behind every verdict.

At a radius R the threshold graph G_R joins u to v when d(u, v) <= R (self
always included; on a float instance, within the instance's tolerance
``inst.tol``, which is relative to the largest distance).
:func:`build_threshold_graph` returns it as one boolean matrix ``G`` with
``G[u, v]`` true when u can serve v, and every stage below reads that matrix.

The instance picks its relaxation (:func:`formulation_of`), the one the paper
proves integral on its kind: KC when symmetric with z = 0, KCO when symmetric
with z > 0, asym-KC when asymmetric with z = 0; an asymmetric instance with
outliers has none and is refused. So each function below reads "outliers or
not" from ``inst.z``, and a ``formulation`` passed to :func:`certify`,
:func:`min_feasible_radius` or :func:`solve_lp` must be the instance's own.
The relaxations are solved through equivalent reduced forms, each a
primal/dual pair:

* plain / asymmetric (KC, asym-KC): the relaxation at R is feasible iff the
  fractional in-neighbor cover  min sum(y) s.t. y @ G >= 1, y >= 0  has value
  <= k. The simplex solves its packing dual  max sum(p) s.t. G @ p <= 1,
  p >= 0  (no phase-1 needed) and reads the cover y off the duals.
* outlier form (KCO): feasible iff the bounded coverage  max sum(t) s.t.
  t_v <= y(N_in(v)), t <= 1, sum(y) <= k, y >= 0  reaches n - z; at an optimum
  t_v = min(1, y(N_in(v))). Its dual is (alpha, beta, gamma) >= 0 with
  alpha + beta >= 1 and gamma >= G @ alpha, of value sum(beta) + k * gamma.

Every outcome carries both sides: the primal ``y`` and the dual
``certificate`` (the packing p, or alpha, beta and gamma concatenated).

How a verdict is proved. :func:`_reduced_lp` writes each relaxation once, as
max c.x s.t. A x <= b, x >= 0, and one exact duality check,
:func:`_check_lp`, judges every proof about it: a feasible primal bounds the
LP optimum from below, a feasible dual from above, and a pair of equal value
proves it, on integers over one common denominator.

:func:`certify` first tries the packing route, which needs no LP. The
conflict radius c(u, v) is the smallest radius at which u and v share an
in-neighbour. One farthest-first pass in conflict radius takes k + 1 points
(k + z + 1 for KCO), and m is the smallest conflict radius between two of
them. At the largest candidate below m their in-neighbourhoods are pairwise
disjoint, so one side of the reduced LP there proves the relaxation
infeasible: 1_S as a packing primal of value k + 1 > k, or for KCO the dual
alpha = 1_S, beta = 1 - alpha, gamma = 1 of value n - z - 1 < n - z
(Hochbaum and Shmoys' lower bound). :func:`_check_lp` must accept that side.
A clustering that component recovery builds at m then has cost R* = m, the
LP's and the integral optimum. When the check or the recovery fails, one
more pass starts at the last point taken; when that misses too, the search
below decides, and only the search answers NOT_2PR.

:func:`solve_lp` builds the reduced LP at one radius once, solves it in
float64 (:mod:`.simplex`) and checks the answer exactly: exactness comes from
checking, never from pivoting in rationals. The float solve hands over its
final basis B. For d = |det B|, d x_B and d y are integers (Cramer's rule), so
:func:`_basis_solution` solves B x_B = b and B^T y = c_B in float64 and rounds
d x_B and d y to integers, which is exact while the float error stays below
1 / (2d). Those integers over d must pass :func:`_check_lp` as an optimal
pair (for KCO the primal is y with t_v = min(1, y(N_in(v)))), which proves
the exact optimum ``bound``; no Fraction is built before. There is no second
attempt: a determinant below 1/2 or not finite, or a pair the check rejects (a
basis past that limit, say), raises :class:`.SolverPrecisionExceeded` naming
the radius and the reason. The LP at a radius reads only the 0/1 matrix G, so
this holds for int, Fraction and float instances alike.

:func:`min_feasible_radius` is one binary search over the candidate radii,
and every probe it reads is such a checked outcome. By monotonicity the
exact optimum at R* and the one at the candidate below pin R*. At R*
:func:`extract_integral` runs the packing route's component recovery first,
so both routes give the same partition.

An outcome is ``integral`` when it is feasible and y is 0/1, on every
relaxation: a 0/1 cover is an integral optimum, as each point can be assigned
to any center within R*. So a NOT_2PR witness is never integral.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial

import numpy as np

from .approx import farthest_first
from .core import (
    KCENTER,
    AsymmetricUnsupported,
    Clustering,
    Instance,
    InternalCheckFailed,
    completed_centers,
    cost,
    integer_form,
    voronoi,
)
from .simplex import OPTIMAL as SIMPLEX_OPTIMAL
from .simplex import SolverPrecisionExceeded, maximize

KC = "kc"
ASYM_KC = "asym-kc"
KCO = "kco"

OPTIMAL = "OPTIMAL"
NOT_2PR = "NOT_2PR"

PACKING = "packing"
SEARCH = "search"

@dataclass(frozen=True)
class LpOutcome:
    """The reduced relaxation at one radius.

    ``bound`` is the LP value, compared with k (KC, asym-KC) or n - z (KCO);
    ``y`` is the primal and ``certificate`` the dual solution (see the module
    docstring). Every outcome was checked exactly: its entries are
    Fractions, ``bound`` is the LP optimum and ``certificate`` proves it;
    ``integral`` means feasible with a 0/1 y, which no NOT_2PR witness has.
    """

    feasible: bool
    y: tuple
    integral: bool
    radius: object
    bound: object
    certificate: tuple
    _graph: np.ndarray = field(repr=False, compare=False)


@dataclass(frozen=True)
class Packing:
    """The lower bound of a packing-route proof: ``points`` have pairwise
    disjoint in-neighbourhoods in G_radius, so no center serves two of them
    within ``radius``. There are k + 1 of them (k + z + 1 for KCO), so every
    clustering with k centers (and at most z outliers) has a larger radius."""

    radius: object
    points: tuple


@dataclass(frozen=True)
class CertifierVerdict:
    """``route`` names what proved the verdict: :data:`PACKING` (a checked
    ``packing`` and a clustering, no LP) or :data:`SEARCH` (the LP search)."""

    kind: str
    clustering: Clustering | None
    lp_radius: object
    fractional_witness: LpOutcome | None
    route: str = SEARCH
    packing: Packing | None = None


def build_threshold_graph(inst: Instance, R) -> np.ndarray:
    """G_R as a boolean matrix: ``G[u, v]`` iff d(u, v) <= R + ``inst.tol``,
    or u == v. Row u lists u's out-neighbours, column v its in-neighbours.
    An int64 matrix is compared with floor(R), an exact int, for every finite
    R (numpy would round it and the matrix to float64); an infinite R keeps
    every pair, and a NaN only the diagonal."""
    if R < 0:
        raise ValueError("radius must be nonnegative")
    D = inst._array
    if D.dtype == np.int64 and R == R and R != math.inf:  # a NaN is not equal to itself
        R = math.floor(R)
    G = D <= R + inst.tol
    np.fill_diagonal(G, True)
    return G


def formulation_of(inst: Instance) -> str:
    """The relaxation of ``inst`` (see the module docstring). An asymmetric
    instance with z > 0 raises :class:`.AsymmetricUnsupported`."""
    if inst.symmetric:
        return KCO if inst.z else KC
    if inst.z:
        raise AsymmetricUnsupported("no LP relaxation is proved for an asymmetric instance "
                                    f"with outliers (z = {inst.z}); use solve --method oracle")
    return ASYM_KC


def _check_formulation(inst: Instance, formulation: str | None) -> str:
    """:func:`formulation_of` ``(inst)``, which a given ``formulation`` must be:
    KC or KCO on an asymmetric instance is AsymmetricUnsupported, else ValueError."""
    own = formulation_of(inst)
    if formulation is not None and formulation != own:
        if formulation in (KC, KCO) and not inst.symmetric:
            raise AsymmetricUnsupported(f"{formulation} is defined for symmetric instances; "
                                        f"use {ASYM_KC}")
        raise ValueError(f"this instance's relaxation is {own}, not {formulation!r}")
    return own


def solve_lp(inst: Instance, R, formulation: str | None = None) -> LpOutcome:
    """Feasibility of the instance's relaxation at radius R, with both LP
    sides, checked exactly whatever the instance's number type, so ``bound``
    is the LP optimum: the vertex and duals of the float solve's final basis
    (:func:`_basis_solution`) must pass :func:`_exact_outcome`, else
    :class:`SolverPrecisionExceeded` names the radius and the reason.
    """
    _check_formulation(inst, formulation)
    G = build_threshold_graph(inst, R)
    c, A, b = _reduced_lp(inst, G)
    try:
        res = maximize(c, A, b)
        if res.status != SIMPLEX_OPTIMAL:
            # the reduced LPs are bounded by construction: an unbounded float
            # solve is a rounding failure, as a stall is
            raise SolverPrecisionExceeded(f"the float solve came back {res.status}, "
                                          "but the reduced LP is bounded")
        exact = _exact_outcome(inst, G, R, (c, A, b), *_basis_solution(c, A, b, res.basis))
        if isinstance(exact, str):
            raise SolverPrecisionExceeded(f"the vertex of the float basis: {exact}")
    except SolverPrecisionExceeded as e:
        raise SolverPrecisionExceeded(f"at radius {R}: {e}") from None
    return exact


def _reduced_lp(inst: Instance, G: np.ndarray) -> tuple:
    """(c, A, b) of the reduced LP max c.x s.t. A x <= b, x >= 0 at the
    radius of G: the packing (KC, asym-KC), or the bounded coverage (KCO) over
    y_0..y_{n-1}, t_0..t_{n-1}."""
    n = len(G)
    if not inst.z:
        return [1] * n, G, [1] * n
    eye = np.eye(n, dtype=np.int64)
    A = np.zeros((2 * n + 1, 2 * n), dtype=np.int64)
    A[:n, :n] = -G.T.astype(np.int64)
    A[:n, n:] = eye
    A[n : 2 * n, n:] = eye
    A[2 * n, :n] = 1
    return [0] * n + [1] * n, A, [0] * n + [1] * n + [inst.k]


# ---------------------------------------------------------------------------
# the exact check: LP duality on the reduced LP


def _dot(w, V) -> int:
    """w . V in Python ints, which do not wrap."""
    return sum(map(operator.mul, w, V.tolist()))


def _check_lp(c, A, b, x=None, y=None) -> str | None:
    """None when x is feasible for max c.x s.t. A x <= b, x >= 0, y is
    feasible for its dual min b.y s.t. y A >= c, y >= 0, and, with both
    given, c.x = b.y, which proves both optimal; else the reason, naming the
    failed side. x and y are integer numerators over one denominator, as
    :func:`_basis_solution` gives them (terms len + 1). A has entries in
    {-1, 0, 1}, so A x and y A fit wherever x and y do; b and c are put over
    the same denominator at terms 2, in Python ints when den is past int64."""
    if x is not None:
        X, den = x
        if (X < 0).any():
            return f"primal entry x_{int(np.argmax(X < 0))} is negative"
        AX = A @ X
        over = np.flatnonzero(AX > integer_form(b, 2, den)[0])
        if len(over):
            i = int(over[0])
            return f"primal row {i}: A x = {Fraction(int(AX[i]), den)} exceeds b = {b[i]}"
    if y is not None:
        Y, den = y
        if (Y < 0).any():
            return f"dual entry y_{int(np.argmax(Y < 0))} is negative"
        YA = Y @ A
        under = np.flatnonzero(YA < integer_form(c, 2, den)[0])
        if len(under):
            j = int(under[0])
            return f"dual column {j}: y A = {Fraction(int(YA[j]), den)} is below c = {c[j]}"
    if x is not None and y is not None:
        primal, dual = Fraction(_dot(c, x[0]), x[1]), Fraction(_dot(b, y[0]), y[1])
        if primal != dual:
            return f"value: c.x = {primal} differs from b.y = {dual}"
    return None


def _feasible(inst: Instance, value) -> bool:
    """The LP value reaches n - z (KCO), or stays within k."""
    return value >= inst.n - inst.z if inst.z else value <= inst.k


def _exact_outcome(inst, G, R, reduced, X, Y, d) -> LpOutcome | str:
    """The exact outcome at R when :func:`_check_lp` accepts the primal X / d
    and duals Y / d of :func:`_basis_solution` as an optimal pair of
    ``reduced``, the (c, A, b) of :func:`_reduced_lp` at G, else the reason
    it does not. The cover y is the duals, or for KCO the first n primal
    entries, with t_v = min(1, y(N_in(v))) for the rest; 0/1 is integral."""
    c, A, b = reduced
    if inst.z:
        y, certificate = X[: inst.n], Y
        X = np.concatenate([y, np.minimum(y @ G, integer_form([1] * inst.n, 2, d)[0])])
    else:
        y, certificate = Y, X
    reason = _check_lp(c, A, b, (X, d), (Y, d))
    if reason is not None:
        return reason
    bound = Fraction(_dot(c, X), d)
    feasible = _feasible(inst, bound)
    integral = feasible and bool(((y == 0) | (y == d)).all())
    return LpOutcome(feasible, tuple(Fraction(v, d) for v in y.tolist()), integral, R, bound,
                     tuple(Fraction(v, d) for v in certificate.tolist()), G)


# ---------------------------------------------------------------------------
# the vertex of the float basis, exactly


def _basis_solution(c, A, b, basis) -> tuple[np.ndarray, np.ndarray, int]:
    """The vertex of the integer LP max c.x s.t. A x <= b, x >= 0 at a
    simplex basis, as (d x, d y, d): x from B x_B = b and the duals y from
    B^T y = c_B, where B holds the columns ``basis`` of [A | I], d = |det B|.

    By Cramer's rule d x_B and d y are integers, so both are solved in
    float64 and rounded, each held as :func:`.integer_form` gives it at terms
    len + 1. That is exact while the float error stays below 1 / (2d); past
    it the rounded pair may be wrong, and :func:`_check_lp` decides. A
    determinant below 1/2 or not finite raises SolverPrecisionExceeded."""
    A = np.asarray(A, dtype=np.float64)
    m, nv = A.shape
    basis = list(basis)
    B = np.concatenate([A, np.eye(m)], axis=1)[:, basis]
    c_B = np.concatenate([np.asarray(c, dtype=np.float64), np.zeros(m)])[basis]
    det = abs(np.linalg.det(B))
    if not 0.5 <= det < math.inf:  # a NaN compares false
        raise SolverPrecisionExceeded(f"the float basis has determinant {det:.6g}")
    d = round(det)
    x = np.zeros(nv + m)
    x[basis] = np.linalg.solve(B, b)
    X = [int(v) for v in np.rint(d * x[:nv]).tolist()]
    Y = [int(v) for v in np.rint(d * np.linalg.solve(B.T, c_B)).tolist()]
    return integer_form(X, nv + 1)[0], integer_form(Y, m + 1)[0], d


# ---------------------------------------------------------------------------
# radius search


def min_feasible_radius(inst: Instance, formulation: str | None = None) -> tuple[object, LpOutcome]:
    """Smallest candidate radius (distinct distance value) whose relaxation is
    feasible, with its outcome: one binary search over :func:`solve_lp`.

    Every probe is checked exactly and cached by candidate index, so no
    radius is solved twice. Once the search ends, the candidate below R* was
    probed infeasible and R* feasible, and by monotonicity these two facts
    pin R*. A probe that cannot be checked raises
    :class:`.SolverPrecisionExceeded`.
    """
    formulation = _check_formulation(inst, formulation)
    cands = inst.distinct_distances()
    probe = cache(lambda i: solve_lp(inst, cands[i], formulation))
    top = len(cands) - 1
    # every relaxation is feasible at the largest distance: the bisection leaves it out
    lo = bisect_left(range(top), True, key=lambda i: probe(i).feasible)
    outcome = probe(lo)
    if not outcome.feasible:  # a NaN distance can leave G_R incomplete
        raise ValueError(f"no {formulation} relaxation is feasible at any candidate "
                         f"radius, the largest being {cands[top]}")
    return cands[lo], outcome


def _undirected_components(G: np.ndarray) -> list[np.ndarray]:
    """Connected components of G with every edge taken both ways, each as a
    sorted index array, in the order of their lowest points."""
    U = G | G.T
    seen = np.zeros(len(G), dtype=bool)
    comps = []
    for s in range(len(G)):
        if seen[s]:
            continue
        comp = frontier = U[s].copy()
        while frontier.any():
            frontier = U[frontier].any(axis=0) & ~comp
            comp |= frontier
        seen |= comp
        comps.append(np.flatnonzero(comp))
    return comps


def _cluster_within_radius(inst: Instance, G: np.ndarray, centers: list[int]) -> Clustering | None:
    """Voronoi clustering of at most k ``centers``, completed to k by
    :func:`.completed_centers`, in which every point that no center reaches in
    G is an outlier, or None when that is more than z points."""
    chosen = completed_centers(inst, centers)
    outliers = np.flatnonzero(~G[chosen].any(axis=0)).tolist()
    if len(outliers) > inst.z:
        return None
    # every kept point has a center within R, and Voronoi picks the nearest
    return voronoi(inst, tuple(chosen), outliers)


def _component_clustering(inst: Instance, G: np.ndarray) -> Clustering | None:
    """Component recovery at the radius of G: each connected component must
    contain a point covering the whole component (its lowest such point is
    used); with outliers the k largest coverable components are kept and
    everything else must fit in the outlier budget."""
    comps = _undirected_components(G)
    # a point's out-neighbours lie in its own component, so it covers the
    # component iff it has as many out-neighbours as the component has points
    reach = G.sum(axis=1)
    coverers = []
    for comp in comps:
        hits = comp[reach[comp] == len(comp)]
        coverers.append(int(hits[0]) if len(hits) else None)
    if not inst.z:
        if len(comps) > inst.k or None in coverers:
            return None
        return _cluster_within_radius(inst, G, coverers)
    coverable = [(comp, c) for comp, c in zip(comps, coverers) if c is not None]
    coverable.sort(key=lambda item: (-len(item[0]), item[0][0]))
    centers = [c for _, c in coverable[: inst.k]]
    if not centers:
        return None
    return _cluster_within_radius(inst, G, centers)


def extract_integral(inst: Instance, outcome: LpOutcome) -> Clustering | None:
    """Recover an integral solution at the outcome's radius, if one is reachable.

    Component recovery (:func:`_component_clustering`) on the outcome's
    threshold graph runs first; in the asymmetric case a component's center
    must reach it along out-edges. The packing route recovers the same way at
    the same R*, so both routes give the same partition. Only when recovery
    fails are the centers of an ``integral`` outcome (a 0/1 y) taken.
    """
    if not outcome.feasible:
        return None
    G = outcome._graph
    clus = _component_clustering(inst, G)
    if clus is not None or not outcome.integral:
        return clus
    centers = [u for u, v in enumerate(outcome.y) if v == 1]
    if not 0 < len(centers) <= inst.k:
        return None
    return _cluster_within_radius(inst, G, centers)


# ---------------------------------------------------------------------------
# the packing route: OPTIMAL with no LP


def _conflict_row(D: np.ndarray, u: int) -> np.ndarray:
    """The conflict radius c(u, v) for every v: min over w of
    max(d(w, u), d(w, v)), with every point its own in-neighbour. u and v
    share an in-neighbour in G_R iff c(u, v) <= R (+ the tolerance)."""
    row = np.maximum(D[:, u, None], D).min(axis=0)
    np.minimum(row, D[u], out=row)
    np.minimum(row, D[:, u], out=row)
    return row


def _greedy_packing(D: np.ndarray, start: int, size: int) -> tuple[list[int], object] | None:
    """``size`` points taken farthest-first in conflict radius from
    ``start``, and m, the smallest conflict radius between two of them (so
    they pack at every radius below m); None when there are fewer than
    ``size`` points."""
    if size > len(D):
        return None
    points, gaps = farthest_first(partial(_conflict_row, D), start, size)
    m = min(gaps)
    return points, m.item() if isinstance(m, np.generic) else m


def _largest_below(D: np.ndarray, m):
    """The largest entry of D below m (the candidate radius just below m), or
    None when there is none."""
    below = D < m
    i = int(below.argmax())
    if not below.flat[i]:
        return None
    r = D.max(where=below, initial=D.flat[i])
    return r.item() if isinstance(r, np.generic) else r


def _packing_reason(inst: Instance, G: np.ndarray, points) -> str | None:
    """None iff :func:`_check_lp` accepts ``points`` as a 0/1 vector that
    proves the relaxation at the radius of G infeasible: the packing primal
    1_S of value |S| > k (KC, asym-KC), or the KCO dual alpha = 1_S,
    beta = 1 - alpha, gamma = 1 of value n - |S| + k < n - z."""
    c, A, b = _reduced_lp(inst, G)
    p = np.zeros(inst.n, dtype=np.int64)
    p[list(points)] = 1
    if inst.z:
        dual = np.concatenate([p, 1 - p, [1]])
        reason, value = _check_lp(c, A, b, y=(dual, 1)), _dot(b, dual)
    else:
        reason, value = _check_lp(c, A, b, x=(p, 1)), _dot(c, p)
    if reason is None and _feasible(inst, value):
        bound = f"below n - z = {inst.n - inst.z}" if inst.z else f"above k = {inst.k}"
        return f"value: {value} is not {bound}"
    return reason


def _packing_route(inst: Instance) -> CertifierVerdict | None:
    """An OPTIMAL verdict proved with no LP, or None.

    One farthest-first pass in conflict radius (:func:`_greedy_packing`)
    takes k + 1 points (k + z + 1 for KCO); m is the smallest conflict radius
    between two of them. Once the exact check accepts them as a packing at
    the candidate just below m, no clustering has a radius at or below that
    candidate, so a clustering from component recovery at m is optimal, and
    m is also the LP's R*. When the check or the recovery fails, one more
    pass starts at the last point taken; when that fails too, the route
    misses.
    """
    D = inst._array
    size = inst.k + 1 + inst.z
    start = 0
    for _ in range(2):
        found = _greedy_packing(D, start, size)
        if found is None:
            return None
        points, m = found
        below = _largest_below(D, m)
        if (below is not None
                and _packing_reason(inst, build_threshold_graph(inst, below), points) is None):
            clus = _component_clustering(inst, build_threshold_graph(inst, m))
            if clus is not None:
                packing = Packing(below, tuple(sorted(points)))
                return CertifierVerdict(OPTIMAL, clus, m, None, PACKING, packing)
        start = points[-1]
    return None


def certify(inst: Instance, formulation: str | None = None) -> CertifierVerdict:
    """The certifier's verdict: OPTIMAL with a clustering whose k-center cost
    is the LP radius R*, or NOT_2PR with the fractional outcome at R*.

    The packing route (:func:`_packing_route`) is tried first; when it
    misses, :func:`min_feasible_radius` finds R* and :func:`extract_integral`
    looks for a clustering there. On either route R* lower-bounds every
    solution, so a clustering of cost R* is provably optimal; its cost is
    checked against R* before OPTIMAL is returned. NOT_2PR, from the search
    only, proves the exact LP optimum at R* and at the candidate below, and
    that no clustering was recovered at R*, so its witness is not
    ``integral``; reading it as non-resilience rests on the paper's
    integrality theorem, not on a proven gap.
    """
    formulation = _check_formulation(inst, formulation)
    verdict = _packing_route(inst)
    if verdict is None:
        r_star, outcome = min_feasible_radius(inst, formulation)
        clus = extract_integral(inst, outcome)
        if clus is None:
            return CertifierVerdict(NOT_2PR, None, r_star, outcome)
        verdict = CertifierVerdict(OPTIMAL, clus, r_star, None)
    achieved = cost(inst, verdict.clustering, KCENTER)
    r_star = verdict.lp_radius
    if abs(achieved - r_star) > inst.tol:
        raise InternalCheckFailed(f"extracted clustering has radius {achieved}, "
                                  f"the LP radius is {r_star}")
    return verdict

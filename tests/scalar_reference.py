"""Scalar reference versions of the instance's reading of a matrix of rows
(the type of every entry scanned), the brute-force oracle, the perturbation
closure, the resilience falsifier, the metric check, Voronoi assignment,
Gonzalez's and Hochbaum and Shmoys' 2-approximations, component recovery, the
loader's matrix parse and Manhattan distances, Kruskal's spanning tree, the
objective's term matrix, the MST-DP's forward pass, the planted-instance
generator's distance assembly and its separation checks: one Python loop per
center set and per matrix entry, the arithmetic of the vectorized code in the
package done one number at a time (the DP reference one table row at a time,
and its reconstruction one join/separate case at a time). Tests compare the
package against them for equality, bit for bit on floats. The vertex and
duals of an LP basis come from fraction-free (Bareiss) elimination in
integers, the exact reference for the package's float solve over the
basis's determinant. The float simplex's reference gathers the rows a pivot
touches on every pivot, with the same pivot rule and the same arithmetic as
the package's loop, which picks between that and an update of all rows."""

from __future__ import annotations

import json
import math
import operator
import random
from fractions import Fraction
from itertools import chain, combinations

import numpy as np

from resilient_cluster import (
    DIRECTED,
    KCENTER,
    NOT_RESILIENT,
    OUTLIER,
    RESILIENT_UNREFUTED,
    UNDIRECTED,
    Clustering,
    FalsifierReport,
    Instance,
    InternalCheckFailed,
    InvalidPerturbation,
    OracleResult,
    PerturbationSpec,
    apply_perturbation,
    cost,
)
from resilient_cluster.core import (
    FLOAT_TOL,
    DiagonalViolation,
    PositivityViolation,
    SymmetryViolation,
    TriangleViolation,
)
from resilient_cluster.generator import (
    ASYMMETRIC,
    NON_RESILIENT,
    OUTLIER_MODE,
    SeparationViolation,
    _cluster_sizes,
)
from resilient_cluster.perturb import DEFAULT_BUDGET
from resilient_cluster.simplex import (
    FLOAT_PIVOT_TOL,
    OPTIMAL,
    UNBOUNDED,
    SimplexResult,
    SolverPrecisionExceeded,
)


def exact_array(values):
    """Exact numbers as int64 while every |value| < 2**61, else an object
    array of the Python numbers."""
    D = np.array(values)
    if D.dtype == object or (D.dtype == np.int64 and -(2**61) < D.min() and D.max() < 2**61):
        return D
    return np.array(values, dtype=object)


def read_rows(dist):
    """(rows, exact, array) of a square matrix of rows, read by scanning the
    type of every entry: numpy integers become ``int``; the matrix is exact
    when every entry is an ``int`` or ``Fraction`` but not a ``bool``, and
    otherwise every entry becomes a ``float``."""
    rows = tuple(tuple(row) for row in dist)
    kinds = set(map(type, chain.from_iterable(rows)))
    if any(issubclass(t, np.integer) for t in kinds):
        rows = tuple(tuple(int(x) if isinstance(x, np.integer) else x for x in row)
                     for row in rows)
        kinds = {int if issubclass(t, np.integer) else t for t in kinds}
    exact = all(issubclass(t, (int, Fraction)) and not issubclass(t, bool) for t in kinds)
    if not exact and kinds != {float}:
        rows = tuple(tuple(map(float, row)) for row in rows)
    return rows, exact, exact_array(rows) if exact else np.array(rows, dtype=np.float64)


def _evaluate(inst, obj, centers):
    """Voronoi distances to ``centers`` (ties: lowest center position), the z
    farthest points dropped (ties: lowest point first), then the objective.

    Returns (cost, dmin, amin, picked_outliers, boundary_tie).
    """
    dist = inst.dist
    n = inst.n
    z = inst.z
    rows = [dist[c] for c in centers]
    dmin = []
    amin = []
    for u in range(n):
        best_i = 0
        best_d = rows[0][u]
        for i in range(1, len(rows)):
            d = rows[i][u]
            if d < best_d:
                best_i, best_d = i, d
        dmin.append(best_d)
        amin.append(best_i)
    if z:
        ranked = sorted(range(n), key=lambda u: (-dmin[u], u))
        picked = tuple(ranked[:z])
        boundary_tie = abs(dmin[ranked[z]] - dmin[ranked[z - 1]]) <= inst.tol
    else:
        ranked = None
        picked = ()
        boundary_tie = False
    if obj.aggregate == "max":
        if z:
            value = obj.term(dmin[ranked[z]])
        else:
            value = max(obj.term(d) for d in dmin)
    else:
        dropped = frozenset(picked)
        value = 0
        for u in range(n):
            if u not in dropped:
                value += obj.term(dmin[u])
    return value, dmin, amin, picked, boundary_tie


def _build(inst, centers, amin, picked):
    dropped = frozenset(picked)
    assignment = tuple(OUTLIER if u in dropped else amin[u] for u in range(inst.n))
    return Clustering(assignment, centers)


def _close(a, b, tol):
    return abs(a - b) <= tol


def value_tol(inst, obj):
    """0 on exact instances, else FLOAT_TOL times the largest finite |term|."""
    if inst.exact:
        return 0
    terms = [abs(obj.term(d)) for row in inst.dist for d in row]
    return FLOAT_TOL * max((t for t in terms if math.isfinite(t)), default=0.0)


def brute_force(inst, obj):
    """Two passes over all center sets: the best value by the rule ``value <
    best - vtol``, then the first two distinct optimal partitions. Values are
    compared with the value tolerance of :func:`value_tol`, distances with
    ``inst.tol``."""
    n, k, z = inst.n, inst.k, inst.z
    tol = inst.tol
    vtol = value_tol(inst, obj)

    best_value = None
    for centers in combinations(range(n), k):
        value = _evaluate(inst, obj, centers)[0]
        if best_value is None or value < best_value - vtol:
            best_value = value

    best = None
    witness = None
    seen_keys = set()
    for centers in combinations(range(n), k):
        value, dmin, amin, picked, boundary_tie = _evaluate(inst, obj, centers)
        if not _close(value, best_value, vtol):
            continue
        clus = _build(inst, centers, amin, picked)
        key = clus.partition_key()
        if key not in seen_keys:
            seen_keys.add(key)
            if best is None:
                best = clus
            elif witness is None:
                witness = clus
        if witness is None and boundary_tie:
            # swap the last dropped point with the first kept tied point
            ranked = sorted(range(n), key=lambda u: (-dmin[u], u))
            alt_picked = tuple(ranked[: z - 1]) + (ranked[z],)
            alt = _build(inst, centers, amin, alt_picked)
            if alt.partition_key() not in seen_keys:
                seen_keys.add(alt.partition_key())
                witness = alt
        if witness is None:
            # a kept point that a second center serves at the same cost is an
            # alternative partition: equidistant (sum), or within the optimum
            # (max)
            dropped = frozenset(picked)
            for u in range(n):
                if u in dropped or u in centers:
                    continue
                if obj.aggregate == "max":
                    serving = [i for i, c in enumerate(centers)
                               if obj.term(inst.dist[c][u]) <= best_value + vtol]
                else:
                    serving = [i for i, c in enumerate(centers)
                               if _close(inst.dist[c][u], dmin[u], tol)]
                others = [i for i in serving if i != amin[u]]
                if others:
                    alt_assignment = list(clus.assignment)
                    alt_assignment[u] = others[0]
                    alt = Clustering(tuple(alt_assignment), centers)
                    if alt.partition_key() not in seen_keys:
                        seen_keys.add(alt.partition_key())
                        witness = alt
                    break
        if witness is not None:
            break
    return OracleResult(best=best, cost=best_value, unique=witness is None, tie_witness=witness)


def brute_force_kminus1_check(inst, result):
    if inst.k == 1:
        return False
    shrunk = inst.replace(k=inst.k - 1)
    for centers in combinations(range(inst.n), inst.k - 1):
        if _evaluate(shrunk, KCENTER, centers)[0] <= result.cost + inst.tol:
            return True
    return False


def perturbed_dist(inst, spec):
    """The capped, closed distance matrix as a tuple of tuples: edges checked
    and capped in order, then Floyd-Warshall over lists, then the band check."""
    n = inst.n
    dist = inst.dist
    tol = inst.tol
    ell = [list(row) for row in dist]
    for u, v in spec.edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) references a missing point")
        capped = min(dist[u][v], spec.cap)
        if 2 * capped < dist[u][v] - tol:
            raise InvalidPerturbation(
                f"cap {spec.cap} shortens edge ({u}, {v}) below half its length"
            )
        ell[u][v] = capped
        if spec.mode == UNDIRECTED:
            ell[v][u] = capped
    for w in range(n):
        row_w = ell[w]
        for u in range(n):
            duw = ell[u][w]
            row_u = ell[u]
            for v in range(n):
                alt = duw + row_w[v]
                if alt < row_u[v]:
                    row_u[v] = alt
    for u in range(n):
        for v in range(n):
            if ell[u][v] > dist[u][v] + tol or 2 * ell[u][v] < dist[u][v] - tol:
                raise InternalCheckFailed(
                    f"perturbed d({u}, {v}) = {ell[u][v]} left the band [d/2, d]"
                )
    return tuple(tuple(row) for row in ell)


def proof_shapes(inst, clus, r_hat):
    """The proof shapes of ``clus`` in order as (edge list, cap), repeats
    included: (a) one point into one cluster, (b) a point into the ball of
    radius 2*r_hat around it, (c) one center-to-point edge capped at each
    intra-cluster distance of the center."""
    dist = inst.dist
    clusters = clus.clusters()
    shapes = []
    for q in range(inst.n):
        for members in clusters:
            if q not in members:
                shapes.append(([(q, v) for v in members], r_hat))
    for p in range(inst.n):
        ball = [v for v in range(inst.n) if v != p and dist[p][v] <= 2 * r_hat]
        if ball:
            shapes.append(([(p, v) for v in ball], r_hat))
    for i, c in enumerate(clus.centers):
        caps = sorted({dist[c][p] for p in clusters[i] if p != c})
        for q in range(inst.n):
            if clus.assignment[q] != i:
                shapes.extend(([(c, q)], cap) for cap in caps)
    return shapes


def distinct_specs(inst, clus, r_hat):
    """Each proof shape once, in order, built as a ``PerturbationSpec`` and
    deduplicated on its normalised (edges, cap)."""
    mode = UNDIRECTED if inst.symmetric else DIRECTED
    specs = []
    seen = set()
    for edges, cap in proof_shapes(inst, clus, r_hat):
        spec = PerturbationSpec(tuple(edges), cap, mode)
        if spec.edges and (spec.edges, spec.cap) not in seen:
            seen.add((spec.edges, spec.cap))
            specs.append(spec)
    return specs


def falsify_resilience(inst, obj, budget=DEFAULT_BUDGET):
    """The falsifier's search with every shape applied: the
    :func:`distinct_specs` in order, each passed to ``apply_perturbation``,
    whose ``InvalidPerturbation`` marks an invalid shape, still counted in
    ``tried``; every solve is the scalar :func:`brute_force`."""
    base = brute_force(inst, obj)
    if not base.unique:
        mode = UNDIRECTED if inst.symmetric else DIRECTED
        return FalsifierReport(NOT_RESILIENT, (PerturbationSpec((), 0, mode), base.tie_witness))
    base_key = base.best.partition_key()
    specs = distinct_specs(inst, base.best, cost(inst, base.best, KCENTER))
    tried = invalid = 0
    for spec in specs[:budget]:
        tried += 1
        try:
            pert = apply_perturbation(inst, spec)
        except InvalidPerturbation:
            invalid += 1
            continue
        res = brute_force(pert, obj)
        if res.best.partition_key() != base_key:
            return FalsifierReport(NOT_RESILIENT, (spec, res.best), tried, invalid=invalid)
        if not res.unique:
            return FalsifierReport(NOT_RESILIENT, (spec, res.tie_witness), tried, invalid=invalid)
    return FalsifierReport(RESILIENT_UNREFUTED, None, tried, len(specs) > budget, invalid)


def validate_metric(inst):
    """Every violation, found by comparing the entries of ``inst.dist`` as
    given (int, Fraction or float) one triple at a time."""
    n = len(inst.dist)
    tol = inst.tol
    dist = inst.dist
    out = []
    for u in range(n):
        if not (-tol <= dist[u][u] <= tol):
            out.append(DiagonalViolation(u))
        for v in range(n):
            if u != v and not dist[u][v] > tol:
                out.append(PositivityViolation(u, v))
    if inst.symmetric:
        for u in range(n):
            for v in range(u + 1, n):
                if abs(dist[u][v] - dist[v][u]) > tol:
                    out.append(SymmetryViolation(u, v))
    for mid in range(n):
        row_mid = dist[mid]
        for u in range(n):
            d_u_mid = dist[u][mid]
            row_u = dist[u]
            for v in range(n):
                if inst.symmetric and u > v:
                    continue
                if row_u[v] > d_u_mid + row_mid[v] + tol:
                    out.append(TriangleViolation(u, mid, v))
    return out


def parse_matrix(dist):
    """The instance loader's matrix parse, one entry at a time: the matrix and
    each of its rows must be a JSON array, checked before any entry; then,
    row by row and left to right, a JSON number is kept, a string is read as
    a ``Fraction``, and anything else (a bool, null, a list, a string that
    is no rational number such as "1/0") rejects the matrix."""
    if type(dist) is not list:
        raise ValueError('"dist" must be a JSON array of JSON arrays')
    for row in dist:
        if type(row) is not list:
            raise ValueError('"dist" must be a JSON array of JSON arrays')
    rows = []
    for row in dist:
        parsed = []
        for x in row:
            if type(x) in (int, float, Fraction):
                parsed.append(x)
                continue
            if type(x) is str:
                try:
                    parsed.append(Fraction(x))
                    continue
                except (ValueError, ZeroDivisionError):
                    pass
            raise ValueError('"dist" must be a JSON number or a rational string in '
                             f"every entry, got {json.dumps(x)}")
        rows.append(tuple(parsed))
    return tuple(rows)


def voronoi(inst, centers, outliers=()):
    """Every non-outlier to its nearest center, scanning the centers in order
    with a strict ``<`` (ties: the first listed center)."""
    centers = tuple(centers)
    outset = frozenset(outliers)
    dist = inst.dist
    assignment = []
    for u in range(inst.n):
        if u in outset:
            assignment.append(OUTLIER)
            continue
        best_i = 0
        best_d = dist[centers[0]][u]
        for i in range(1, len(centers)):
            d = dist[centers[i]][u]
            if d < best_d:
                best_i, best_d = i, d
        assignment.append(best_i)
    return Clustering(tuple(assignment), centers)


def gonzalez(inst):
    """(centers, radius): farthest-point traversal from point 0, the farthest
    point found by a strict ``>`` scan (ties: lowest index)."""
    dist = inst.dist
    centers = [0]
    mind = list(dist[0])
    for _ in range(inst.k - 1):
        far = 0
        for u in range(1, inst.n):
            if mind[u] > mind[far]:
                far = u
        centers.append(far)
        row = dist[far]
        for u in range(inst.n):
            if row[u] < mind[u]:
                mind[u] = row[u]
    return tuple(centers), max(mind)


def hochbaum_shmoys(inst):
    """(centers, radius): a hand-written binary search for the first
    candidate where greedy 2R-balls from the lowest uncovered point need at
    most k centers, padded with the lowest other points."""

    def ball_cover(R):
        uncovered = set(range(inst.n))
        centers = []
        while uncovered:
            p = min(uncovered)
            centers.append(p)
            uncovered = {u for u in uncovered if inst.dist[p][u] > 2 * R + inst.tol}
        return centers

    cands = inst.distinct_distances()
    lo, hi = 0, len(cands) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if len(ball_cover(cands[mid])) <= inst.k:
            hi = mid
        else:
            lo = mid + 1
    centers = ball_cover(cands[lo])
    for u in range(inst.n):
        if len(centers) == inst.k:
            break
        if u not in centers:
            centers.append(u)
    radius = max(min(inst.dist[c][u] for c in centers) for u in range(inst.n))
    return tuple(centers), radius


def manhattan(points, exact):
    """The loader's L1 matrix, entry by entry: exact sums of the parsed
    coordinates when ``exact`` or when every coordinate is integer-valued
    (integral entries as int), else float64 sums over numpy."""
    def number(x):
        return Fraction(x) if isinstance(x, str) else x

    if exact or all(float(x).is_integer() for row in points for x in row):
        rows = [[sum(abs(number(a) - number(b)) for a, b in zip(p, q))
                 for q in points] for p in points]
        return tuple(tuple(int(x) if float(x).is_integer() else x for x in row)
                     for row in rows)
    pts = np.asarray([[float(x) for x in row] for row in points], dtype=float)
    mat = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    return tuple(tuple(float(x) for x in row) for row in mat)


def component_clustering(inst, R, formulation):
    """Component recovery at radius R, one point and one pair at a time: the
    connected components of G_R (edges either way) by depth-first search, the
    lowest point of each that is within R of all of it, and the Voronoi
    clustering of those centers, padded with the lowest other points, where a
    point no center reaches within R is an outlier."""
    n, dist, tol = inst.n, inst.dist, inst.tol

    def edge(u, v):
        return u == v or dist[u][v] <= R + tol or dist[v][u] <= R + tol

    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        stack, comp = [s], []
        seen[s] = True
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in range(n):
                if not seen[v] and edge(u, v):
                    seen[v] = True
                    stack.append(v)
        comps.append(sorted(comp))
    coverers = [next((c for c in comp if all(dist[c][v] <= R + tol for v in comp)), None)
                for comp in comps]
    budget = inst.z if formulation == "kco" else 0
    if formulation != "kco":
        if len(comps) > inst.k or None in coverers:
            return None
        centers = coverers
    else:
        coverable = sorted(((comp, c) for comp, c in zip(comps, coverers) if c is not None),
                           key=lambda item: (-len(item[0]), item[0][0]))
        centers = [c for _, c in coverable[: inst.k]]
        if not centers:
            return None
    chosen = list(dict.fromkeys(centers))
    chosen += [u for u in range(n) if u not in chosen][: inst.k - len(chosen)]
    if len(chosen) != inst.k:
        return None
    outliers = [u for u in range(n) if min(dist[c][u] for c in chosen) > R + tol]
    if len(outliers) > budget:
        return None
    return voronoi(inst, tuple(chosen), outliers)


def build_mst(inst):
    """Kruskal on a Python sort of every (d(u, v), u, v) with u < v; edges in
    the order they are accepted."""
    n = inst.n
    dist = inst.dist
    edges = sorted((dist[u][v], u, v) for u in range(n) for v in range(u + 1, n))
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    out = []
    for _, u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            out.append((u, v))
            if len(out) == n - 1:
                break
    return tuple(out)


def number_type(terms: list, n: int) -> tuple:
    """(dtype, exact) for arrays of objective terms over n points, from the
    types of the terms: integers with n * max term < 2**53 are float64 (every
    sum of at most n of them is an exactly represented integer), floats are
    float64 and inexact, and anything else (big ints, Fractions) is an object
    array of Python numbers."""
    kinds = set(map(type, terms))
    if kinds == {int}:
        return (np.float64 if n * max(terms) < 2**53 else object), True
    if float in kinds:
        return np.float64, False
    return object, True


def term_matrix(inst, obj):
    """(E, exact): every entry by ``Objective.term``, in the dtype
    :func:`number_type` picks for the list of terms."""
    terms = list(map(obj.term, chain.from_iterable(inst.dist)))
    dtype, exact = number_type(terms, inst.n)
    return np.array(terms, dtype=dtype).reshape(inst.n, inst.n), exact


def _conv_rows(a, b, shift, combine, dtype):
    """out[j, t] = min of combine(a[ja, ta], b[jb, tb]) over ja + jb = j + shift
    and ta + tb = t, one (ja, jb, ta) at a time."""
    K, T = a.shape[:2]
    out = np.full((K, T, max(a.shape[2], b.shape[2])), math.inf, dtype=dtype)
    for ja in range(K):
        for jb in range(K):
            j = ja + jb - shift
            if not 0 <= j < K:
                continue
            for ta in range(T):
                cell = combine(a[ja, ta], b[jb, : T - ta])
                np.minimum(out[j, ta:], cell, out=out[j, ta:])
    return out


def forward_four_cases(btree, base, K, T, combine, dtype):
    """The MST-DP forward pass with ``mstdp._forward``'s signature, its tables
    kept in dicts keyed by node, a two-child node's real-center state taken as
    the minimum of four convolutions, one per join/separate case, each masked
    after the fact:
    both children separate (j = jl + jr + 1, u's center in neither subtree),
    right joins (j = jl + jr, not in the left one), left joins (not in the
    right one), both join (j = jl + jr - 1)."""
    INF = math.inf
    n_real = btree.n_real
    OUT = n_real
    post = []
    stack = [(btree.root, False)]
    while stack:
        u, done = stack.pop()
        if done:
            post.append(u)
        else:
            stack.append((u, True))
            for w in btree.children(u):
                stack.append((w, False))
    tab, M, inside = {}, {}, {}
    for u in post:
        t_own = 1 if u < n_real else 0
        cur = np.full((K, T, n_real + 1), INF, dtype=dtype)
        kids = btree.children(u)
        if not kids:
            mask = np.zeros(n_real, dtype=bool)
            if t_own < T:
                cur[0, t_own, OUT] = 0
            cur[1, 0, :OUT] = base(u)
        elif len(kids) == 1:
            (w,) = kids
            mask = inside[w].copy()
            cur[:, t_own:, OUT] = M[w][:, : T - t_own, 0]
            separate = np.where(mask, INF, M[w][:-1])
            best = np.minimum(tab[w][1:, :, :OUT], separate)
            cur[1:, :, :OUT] = combine(base(u), best)
        else:
            l, r = kids
            in_l, in_r = inside[l], inside[r]
            mask = in_l | in_r
            cur[:, t_own:, OUT] = _conv_rows(M[l], M[r], 0, combine, dtype)[:, : T - t_own, 0]
            best = np.full((K, T, n_real), INF, dtype=dtype)
            cases = (
                (False, False, -1, in_l | in_r),
                (False, True, 0, in_l),
                (True, False, 0, in_r),
                (True, True, 1, None),
            )
            for l_joins, r_joins, shift, excluded in cases:
                a = tab[l][..., :OUT] if l_joins else M[l]
                b = tab[r][..., :OUT] if r_joins else M[r]
                cand = _conv_rows(a, b, shift, combine, dtype)
                if excluded is not None:
                    cand = np.where(excluded, INF, cand)
                np.minimum(best, cand, out=best)
            cur[..., :OUT] = combine(base(u), best)
        if u < n_real:
            mask[u] = True
        cols = np.append(np.flatnonzero(mask), OUT)
        tab[u] = cur
        M[u] = cur[:, :, cols].min(axis=2, keepdims=True)
        inside[u] = mask
    return tab, M, inside


def solve_btp_four_cases(inst, btree, obj):
    """The MST-DP with :func:`forward_four_cases` and a reconstruction that
    walks each visited state's cases in order, following the first candidate
    that attains the minimum: a one-child node tries joining, then separating;
    a two-child node both separate, right joins, left joins, both join, each
    over (left clusters, left outliers) ascending; an outlier state has its
    children separate. The same checks as ``mstdp.solve_btp``."""
    INF = math.inf
    n_real = btree.n_real
    OUT = n_real
    k, z = inst.k, inst.z
    K, T = k + 1, z + 1
    E, exact = term_matrix(inst, obj)
    zero = np.zeros(n_real, dtype=E.dtype)
    summing = obj.aggregate == "sum"
    combine = np.add if summing else np.maximum
    combine_entry = operator.add if summing else max

    def base(u):
        return E[:, u] if u < n_real else zero

    tab, M, inside = forward_four_cases(btree, base, K, T, combine, E.dtype)
    root_cells = tab[btree.root][k]
    flat = int(np.argmin(root_cells))
    best_val = root_cells.flat[flat]
    if not best_val < INF:
        raise ValueError("no feasible partition")

    def subtree_center(w, j, t):
        row, val = tab[w][j, t], M[w][j, t, 0]
        if row[OUT] == val:
            return OUT
        return int(np.flatnonzero(inside[w] & (row[:OUT] == val))[0])

    def candidates(u, j, t, c):
        kids = btree.children(u)
        if c == OUT:
            t -= 1 if u < n_real else 0
            if len(kids) == 1:
                (w,) = kids
                yield M[w][j, t, 0], ((w, j, t, None),)
                return
            cases = ((False, False, 0, None),)
        elif len(kids) == 1:
            (w,) = kids
            yield tab[w][j, t, c], ((w, j, t, c),)
            if not inside[w][c]:
                yield M[w][j - 1, t, 0], ((w, j - 1, t, None),)
            return
        else:
            in_l, in_r = inside[kids[0]], inside[kids[1]]
            cases = (
                (False, False, -1, in_l | in_r),
                (False, True, 0, in_l),
                (True, False, 0, in_r),
                (True, True, 1, None),
            )
        l, r = kids
        for l_joins, r_joins, shift, excluded in cases:
            if excluded is not None and excluded[c]:
                continue
            for jl in range(K):
                jr = j + shift - jl
                if not 0 <= jr < K:
                    continue
                for tl in range(t + 1):
                    sl = (l, jl, tl, c if l_joins else None)
                    sr = (r, jr, t - tl, c if r_joins else None)
                    a = tab[l][jl, tl, c] if l_joins else M[l][jl, tl, 0]
                    b = tab[r][jr, t - tl, c] if r_joins else M[r][jr, t - tl, 0]
                    yield combine_entry(a, b), (sl, sr)

    assignment = [OUTLIER] * inst.n
    t_root, c_root = divmod(flat, n_real + 1)
    stack = [(btree.root, k, t_root, c_root)]
    while stack:
        u, j, t, c = stack.pop()
        if u < n_real and c != OUT:
            assignment[u] = c
        if not btree.children(u):
            continue
        val, states = min(candidates(u, j, t, c), key=lambda vc: vc[0])
        if c != OUT:
            val = combine_entry(base(u)[c], val)
        if val != tab[u][j, t, c]:
            raise InternalCheckFailed(f"DP state {(u, j, t, c)} does not recompute to its value")
        for w, jw, tw, cw in states:
            stack.append((w, jw, tw, subtree_center(w, jw, tw) if cw is None else cw))

    centers = tuple(sorted({a for a in assignment if a != OUTLIER}))
    if len(centers) != k:
        raise InternalCheckFailed(f"reconstruction produced {len(centers)} clusters")
    index = {c: i for i, c in enumerate(centers)}
    clus = Clustering(tuple(OUTLIER if a == OUTLIER else index[a] for a in assignment), centers)
    achieved = cost(inst, clus, obj)
    ok = achieved == best_val if exact else math.isclose(achieved, best_val, rel_tol=1e-9, abs_tol=1e-9)
    if not ok:
        raise InternalCheckFailed(f"DP optimum {best_val} but its clustering costs {achieved}")
    return clus


def generate(cfg):
    """The generator with its five-case distance assembly, one entry at a
    time, and the asymmetric hub closure as a scalar triple loop."""
    cfg.validate()
    rng = random.Random(cfg.seed)
    n, k, z, r = cfg.n, cfg.k, cfg.z, cfg.radius

    if cfg.mode == NON_RESILIENT:
        dist = tuple(
            tuple(0 if u == v else r for v in range(n)) for u in range(n)
        )
        inst = Instance(dist, k, 0, symmetric=True)
        assignment = [0] * n
        for i in range(k):
            assignment[i] = i
        return inst, Clustering(tuple(assignment), tuple(range(k)))

    min_size = 2 if cfg.mode == OUTLIER_MODE else 1
    sizes = _cluster_sizes(rng, k, n - z, min_size)
    perm = rng.sample(range(n), n)
    half = (r + 1) // 2
    spoke_a = [rng.randint(half, r) for _ in range(n)]
    spoke_b = [rng.randint(half, r) for _ in range(n)]
    hub_jitter = [rng.randint(0, r // 2) for _ in range(k + z)]
    dir_jitter = [
        [rng.randint(0, r // 2) for _ in range(k + z)] for _ in range(k + z)
    ]

    base_gap = math.ceil(cfg.sigma * r)
    pos = [0] * (k + z)
    for h in range(1, k + z):
        pos[h] = pos[h - 1] + base_gap + hub_jitter[h]

    centers = []
    members = []
    it = iter(perm)
    for i in range(k):
        block = [next(it) for _ in range(sizes[i])]
        centers.append(block[0])
        members.append(block)
    outliers = [next(it) for _ in range(z)]

    hub_of = {}
    for i in range(k):
        for p in members[i]:
            hub_of[p] = i
    for j, o in enumerate(outliers):
        hub_of[o] = k + j
    is_hub = {c: i for i, c in enumerate(centers)}
    is_hub.update({o: k + j for j, o in enumerate(outliers)})

    if cfg.mode == ASYMMETRIC:
        nh = k + z
        hub_d = [
            [
                0 if a == b else abs(pos[a] - pos[b]) + dir_jitter[a][b]
                for b in range(nh)
            ]
            for a in range(nh)
        ]
        for w in range(nh):
            for a in range(nh):
                for b in range(nh):
                    alt = hub_d[a][w] + hub_d[w][b]
                    if alt < hub_d[a][b]:
                        hub_d[a][b] = alt
    else:
        hub_d = [
            [abs(pos[a] - pos[b]) for b in range(k + z)] for a in range(k + z)
        ]

    def w_in(u):  # hub -> point spoke
        return spoke_a[u]

    def w_out(u):  # point -> hub spoke (same as w_in when symmetric)
        return spoke_a[u] if cfg.mode != ASYMMETRIC else spoke_b[u]

    dist = [[0] * n for _ in range(n)]
    for u in range(n):
        hu = hub_of[u]
        u_hub = u in is_hub
        for v in range(n):
            if u == v:
                continue
            hv = hub_of[v]
            v_hub = v in is_hub
            if u_hub and v_hub:
                d = hub_d[hu][hv]
            elif u_hub:
                d = hub_d[hu][hv] + w_in(v)
            elif v_hub:
                d = w_out(u) + hub_d[hu][hv]
            elif hu == hv:
                d = w_out(u) + w_in(v)
            else:
                d = w_out(u) + hub_d[hu][hv] + w_in(v)
            dist[u][v] = d

    inst = Instance(
        tuple(tuple(row) for row in dist),
        k,
        z,
        symmetric=cfg.mode != ASYMMETRIC,
    )
    order = sorted(range(k), key=lambda i: centers[i])
    rank = {i: pos_ for pos_, i in enumerate(order)}
    assignment = [OUTLIER] * n
    for i in range(k):
        for p in members[i]:
            assignment[p] = rank[i]
    planted = Clustering(
        tuple(assignment), tuple(centers[i] for i in order)
    )
    return inst, planted


def verify_planted(inst, planted, obj):
    """The separation checks, one pair (or triple) of points at a time."""
    dist = inst.dist
    tol = inst.tol
    clusters = planted.clusters()
    outliers = planted.outliers
    r_hat = cost(inst, planted, KCENTER)
    out = []
    cluster_of = planted.assignment

    if obj.aggregate == "max":
        if outliers:
            for p in range(inst.n):
                if p in outliers:
                    continue
                for q in range(inst.n):
                    if q == p or cluster_of[q] == cluster_of[p]:
                        continue
                    if dist[p][q] <= r_hat + tol:
                        out.append(SeparationViolation("outlier_separation", (p, q)))
            min_size = min(len(c) for c in clusters)
            for o in outliers:
                ball = sum(
                    1 for q in outliers if dist[o][q] <= 2 * r_hat + tol
                )
                if ball >= min_size:
                    out.append(SeparationViolation("outlier_ball_sparsity", (o,)))
        elif inst.symmetric:
            for p in range(inst.n):
                for q in range(inst.n):
                    if q != p and cluster_of[q] != cluster_of[p]:
                        if dist[p][q] <= r_hat + tol:
                            out.append(SeparationViolation("inter_cluster_separation", (p, q)))
            for members in clusters:
                if len(members) < 2:
                    continue
                for p in members:
                    for w in members:
                        if w == p:
                            continue
                        for q in range(inst.n):
                            if cluster_of[q] != cluster_of[p]:
                                if dist[p][q] <= dist[p][w] + tol:
                                    out.append(
                                        SeparationViolation("intra_beats_inter", (p, w, q))
                                    )
        else:
            for i, c_i in enumerate(planted.centers):
                for q in range(inst.n):
                    if cluster_of[q] != i and dist[q][c_i] <= r_hat + tol:
                        out.append(SeparationViolation("center_separation", (q, c_i)))
            for i, members in enumerate(clusters):
                c_i = planted.centers[i]
                core_i = [p for p in members if dist[p][c_i] <= r_hat + tol]
                far = {
                    (p, w)
                    for p in core_i
                    for w in members
                    if w != p and dist[p][w] >= r_hat - tol
                }
                if not far:
                    continue
                for j, other in enumerate(clusters):
                    if j == i:
                        continue
                    c_j = planted.centers[j]
                    for q in other:
                        if dist[q][c_j] > r_hat + tol:
                            continue
                        for _, w in far:
                            violation = SeparationViolation("core_point_separation", (q, w))
                            if dist[q][w] <= r_hat + tol and violation not in out:
                                out.append(violation)
    else:
        for p in range(inst.n):
            if p in outliers:
                continue
            c_p = planted.centers[cluster_of[p]]
            for q in range(inst.n):
                if q == p:
                    continue
                if q not in outliers and cluster_of[q] == cluster_of[p]:
                    continue
                if dist[c_p][p] >= dist[p][q] - tol:
                    out.append(SeparationViolation("center_proximity", (p, q)))
            for j, c_j in enumerate(planted.centers):
                if j == cluster_of[p]:
                    continue
                if 2 * dist[p][c_p] >= dist[p][c_j] - tol:
                    out.append(SeparationViolation("center_dominance", (p, c_j)))
    return out


def bareiss_solve(M: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, int] | None:
    """Integers (v, d) with M (v / d) = rhs for a square integer M, or None
    when M is singular. Fraction-free Gauss-Jordan elimination (Bareiss):
    after step k every pivoted row's diagonal entry is the k-th leading minor,
    every division is exact, and the entries stay integers the size of M's
    minors."""
    T = np.concatenate([M, rhs[:, None]], axis=1).astype(object)
    m = len(T)
    prev = 1
    for k in range(m):
        nonzero = np.flatnonzero(T[k:, k])
        if not len(nonzero):
            return None
        p = k + nonzero[0]
        if p != k:
            T[[k, p]] = T[[p, k]]
        piv = T[k, k]
        rest = np.arange(m) != k
        T[rest] = (T[rest] * piv - np.outer(T[rest, k], T[k])) // prev
        prev = piv
    return T[:, m], prev


def basis_solution(c, A, b, basis) -> tuple[list, list] | None:
    """The vertex of the integer LP max c.x s.t. A x <= b, x >= 0 at a
    simplex basis, in exact arithmetic: x from B x_B = b and the duals y
    from B^T y = c_B, where B holds the columns ``basis`` of [A | I]. None
    when B is singular."""
    A = np.asarray(A, dtype=np.int64)
    m, nv = A.shape
    basis = list(basis)
    B = np.concatenate([A, np.eye(m, dtype=np.int64)], axis=1)[:, basis]
    c_B = np.concatenate([np.asarray(c, dtype=np.int64), np.zeros(m, dtype=np.int64)])[basis]
    primal = bareiss_solve(B, np.asarray(b, dtype=np.int64))
    dual = bareiss_solve(B.T, c_B)
    if primal is None or dual is None:
        return None
    x = [Fraction(0)] * nv
    for j, v in zip(basis, primal[0]):
        if j < nv:
            x[j] = Fraction(v, primal[1])
    return x, [Fraction(v, dual[1]) for v in dual[0]]


def maximize_reference(c, A, b) -> SimplexResult:
    """The float simplex with a gather of the touched rows on every pivot:
    Dantzig's rule, ties in the ratio test to the lowest basic index, the
    pivot row multiplied by the reciprocal of the pivot, Bland's rule past
    ``max_iters`` pivots."""
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

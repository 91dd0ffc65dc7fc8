"""Exhaustive ground-truth solvers for small instances.

Every other solver in the package is tested against :func:`brute_force`; its
verdicts (cost, partition, uniqueness) are the reference the LP and DP results
must reproduce.

Evaluation is blockwise. The center sets are enumerated in lexicographic
order, at most ``BLOCK_CELLS // n`` of them at a time, as an ``(m, k)`` index
array; when all C(n, k) sets fit in one block, that block is built once per
(n, k) and kept as a read-only array, since the falsifier solves many
perturbed instances of one n and k. One numpy pass over such a block gives
every point's distance to its nearest center for all m sets, drops the z
farthest points of each set (a stable sort, so among equal distances the
lowest point is dropped first; no outlier set is enumerated, so the work cap
counts the C(n, k) center sets alone), and aggregates the objective terms: the
maximum, or a sum taken point by point in index order. The nearest distance is
the minimum of the k rows of the distance matrix a set gathers, and the map of
:func:`core.term_map` turns it into its term, which depends on the distance
alone. A maximum maps only the distance it keeps, since under an integer
exponent a term never decreases with the distance; under a fractional exponent
every distance is mapped first. A first pass keeps the best value by the rule
``value < best - vtol``; a second pass takes the sets whose value is within
vtol of it, in order, and decides on label arrays whether they all induce the
first one's partition with no tie (see :func:`_alternative`); it builds only
the clusterings it returns, the best and the tie witness. ``vtol`` is the
value tolerance: 0 on exact instances, and on float ones
:data:`core.FLOAT_TOL` times the largest finite term, so that k-means values
(squared distances) are compared on their own scale; with exponent 1 it
equals the distance tolerance ``inst.tol``, which the distance comparisons
keep.

The falsifier solves many perturbed matrices of one instance, each a valid
2-perturbation d' with d/2 <= d' <= d entrywise. That band bounds which center
sets can win: under the exponent e a set's value under d' is at least
value_d(C) / 2**e, since each nearest distance at least halves and the kept
terms of a set are its smallest, and the optimum under d' is at most OPT, the
value of d's optimal set, since no distance grows. So a set with value_d(C)
> 2**e * OPT is never optimal under d'. The bound is exact on exact instances
under an integer exponent; on float instances, whose band check has a
tolerance, and under a fractional exponent, whose terms are rounded, it is
not, and every set stays in play. :func:`_sets_within` alone decides the
band: it lists the sets in play once, in order, reading their values under d
from the base solve when all sets fit in one block (:func:`brute_force` keeps
its first pass's values in :attr:`OracleResult.values`, which equality and
repr leave out), so those sets are evaluated once. :func:`_first_alternative`
takes the perturbed matrices as one ``[P, n, n]`` stack and evaluates slices
of it over the kept sets alone, as ``[P, m, n]`` stacks, deciding each matrix
as :func:`brute_force` would decide its instance.

Memory: a handful of ``(m, n)`` arrays, or ``(P, m, n)`` stacks, so at most a
few times ``BLOCK_CELLS`` numbers whatever the number of center sets (up to
the work cap), plus the rows the optimal sets gather, at most k times as many.
The sets are listed whole when they fit in one block (at most 64 such lists
are kept) and when the falsifier keeps them, at most C(n, k) * k indices.
When all sets fit in one block, the second pass reuses its evaluation, and
the result keeps those C(n, k) values; otherwise it evaluates each block
again.

Exactness: distances are compared on the instance's own array (int64, object
or float64), and terms come from :func:`core.term_map`: integer terms are
summed in float64 only while every sum of n of them is an exactly represented
integer, other exact terms stay Python numbers in object arrays, and float
sums add the same numbers in the same order as a left-to-right Python sum, so
they are bit-identical to it. Costs come back as Python numbers in the
arithmetic of the terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations, islice
from math import comb

import numpy as np

from .core import (
    KCENTER,
    OUTLIER,
    Clustering,
    Instance,
    Objective,
    finite_optimum,
    relative_tol,
    term_map,
)

DEFAULT_WORK_CAP = 10_000_000
# cells of one (center sets x points) array in a block
BLOCK_CELLS = 1 << 16


class InstanceTooLarge(RuntimeError):
    """The C(n, k) center sets to enumerate exceed the configured work cap."""


@dataclass(frozen=True)
class OracleResult:
    best: Clustering
    cost: object
    unique: bool
    tie_witness: Clustering | None
    # every center set's value, in lexicographic order, when all of them fit
    # in one block (else None): _sets_within reads them
    values: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.unique and self.tie_witness is None:
            raise ValueError("non-unique result must carry a tie witness")


def _check_work(n: int, k: int, work_cap: int) -> None:
    """Raise :class:`InstanceTooLarge` when the C(n, k) center sets exceed
    ``work_cap``; the outliers of each set are its farthest points, found by
    one sort, so no outlier set is enumerated."""
    if comb(n, k) > work_cap:
        raise InstanceTooLarge(f"C({n},{k}) = {comb(n, k)} center sets exceed cap {work_cap}")


def _blocks(n: int, k: int):
    """The k-subsets of range(n) in lexicographic order, as ``(m, k)`` index
    arrays with m * n <= BLOCK_CELLS (at least one set per block). When every
    set fits in one block, that block is the cached array of
    :func:`_all_sets`."""
    m = max(1, BLOCK_CELLS // n)
    if comb(n, k) <= m:
        yield _all_sets(n, k)
        return
    sets = combinations(range(n), k)
    while True:
        block = np.fromiter(chain.from_iterable(islice(sets, m)), dtype=np.intp)
        if not block.size:
            return
        yield block.reshape(-1, k)


@lru_cache(maxsize=64)
def _all_sets(n: int, k: int) -> np.ndarray:
    """Every k-subset of range(n), lexicographic, as one read-only ``(C(n, k),
    k)`` array, built once: every solve of a falsifier pass at one n and k
    reads the same sets. Only :func:`_blocks` calls it, and only when the
    sets fit in one block at the current ``BLOCK_CELLS``."""
    C = np.fromiter(chain.from_iterable(combinations(range(n), k)), dtype=np.intp)
    C = C.reshape(-1, k)
    C.flags.writeable = False
    return C


def _evaluate(D: np.ndarray, term, obj: Objective, z: int, C: np.ndarray) -> np.ndarray:
    """The objective value of each center set of the block ``C`` under ``D``:
    Voronoi distances, then drop the z points with the largest assigned
    distance (assignments do not interact, and off-center distances are
    positive, so dropping the largest is exactly optimal for sum and max
    aggregation alike). ``D`` is one ``(n, n)`` matrix, giving ``(m,)``
    values, or a ``(P, n, n)`` stack, giving ``(P, m)``; every matrix of a
    stack gets the values it would get alone.

    The nearest-center distance ``dmin`` is the minimum of the k rows of D the
    set gathers, and the terms are ``term`` (the map of :func:`core.term_map`)
    of dmin: a term depends on the distance alone, so it is the term at
    whichever nearest center. The dropped points are the first z of the
    points ordered by decreasing distance, ties by index. A max maps only the
    distance it keeps when the map never decreases, as with every integer
    exponent; a fractional exponent maps every distance before the max is
    taken.
    """
    dmin = D[..., C[:, 0], :]
    for i in range(1, C.shape[1]):
        np.minimum(dmin, D[..., C[:, i], :], out=dmin)
    ranked = np.argsort(-dmin, axis=-1, kind="stable") if z else None
    if obj.aggregate == "max":
        if z:
            return term(np.take_along_axis(dmin, ranked[..., z : z + 1], axis=-1)[..., 0])
        if type(obj.exponent) is int:
            return term(dmin.max(axis=-1))
        return term(dmin).max(axis=-1)
    terms = term(dmin)  # a new array, so the put below leaves dmin alone
    if z:
        np.put_along_axis(terms, ranked[..., :z], 0, axis=-1)
    values = terms[..., 0].copy()
    for u in range(1, D.shape[-1]):
        values += terms[..., u]
    return values


def _lowest(values: np.ndarray, best, tol):
    """Scan ``values`` in order from ``best`` with the rule ``value < best -
    tol``. A value can only replace ``best`` if it is below every value
    before it, so only the strict running minima of the block are visited."""
    below = np.flatnonzero(values[1:] < np.minimum.accumulate(values)[:-1]) + 1
    for j in chain((0,), below.tolist()):
        value = values[j]
        if best is None or value < best - tol:
            best = value
    return best


def _python_number(value, values: np.ndarray, exact: bool):
    """A value read from an array of values, as the Python number a
    left-to-right Python evaluation of the same terms would produce."""
    if values.dtype == object:
        return value
    return int(value) if exact else float(value)


def _voronoi(rows: np.ndarray, z: int):
    """The Voronoi solution of each center set whose rows of a distance
    matrix are ``rows`` (m, k, n), as arrays: each point's nearest center
    position ``near`` (m, n; ties to the first, that is the lowest center),
    its distance ``dmin``, the points by decreasing distance ``ranked``
    (ties by index; None when z = 0), and the assignment: ``near`` with the
    first z ranked points set to :data:`OUTLIER`, the assignment
    :func:`core.voronoi` gives."""
    near = rows.argmin(axis=1)
    dmin = rows.min(axis=1)
    assign = near.copy()
    ranked = None
    if z:
        ranked = np.argsort(-dmin, axis=1, kind="stable")
        assign[np.arange(len(rows))[:, None], ranked[:, :z]] = OUTLIER
    return near, dmin, ranked, assign


def _alternative(rows, C: np.ndarray, lab: np.ndarray, term, obj: Objective, z: int, tol,
                 bound):
    """The first alternative to the partition of the assignment ``lab``
    among optimal solutions, as ``(t, clustering)``; None when there is none.

    Solution t is the center set ``C[t]`` on the matrix whose k rows that
    set gathers are ``rows[t]``; the solutions are taken in order, and
    ``tol`` (the distance tolerance) and ``bound`` (the optimum plus the
    value tolerance) are one number or one per solution. A solution offers,
    in this order: its Voronoi clustering, when that induces another
    partition or outlier set than ``lab``; else, when the last dropped and
    the first kept point tie in distance, the clustering with those two
    swapped; else the first kept non-center point that a second center
    serves as well, moved to the first such center. Under a max objective a
    center serves a point when its term is at most ``bound``; under a sum,
    when it is as near as the nearest. The swap and the move always change
    the partition.

    The partitions are compared by labels: a set induces ``lab``'s partition
    iff every point gets the label ``lab`` gives its center, or OUTLIER when
    the set drops it. That alone makes the set's k centers carry k distinct
    labels of ``lab``, none of them OUTLIER: each of the k labels is held by
    a kept point, the center ``lab`` has for it, which must get it from one
    of the set's centers. No clustering is built but the one returned.
    """
    near, dmin, ranked, assign = _voronoi(rows, z)
    tol = np.reshape(tol, -1)
    each = np.arange(len(C))[:, None]
    mapped = lab[C][each, near]
    dropped = assign == OUTLIER
    mapped[dropped] = OUTLIER
    same = (mapped == lab).all(axis=1)
    flagged = ~same
    if z:
        boundary = np.abs(dmin[each, ranked[:, z : z + 1]]
                          - dmin[each, ranked[:, z - 1 : z]])[:, 0] <= tol
        flagged |= boundary
    if obj.aggregate == "max":
        within = term(rows) <= np.reshape(bound, (-1, 1, 1))
    else:
        within = np.abs(rows - dmin[:, None]) <= tol[:, None, None]
    # a kept point's Voronoi center is always within
    movable = within.sum(axis=1) >= 2
    movable[dropped] = False
    movable[each, C] = False
    flagged |= movable.any(axis=1)
    if not flagged.any():
        return None
    t = int(flagged.argmax())
    alt = assign[t]
    if same[t] and z and boundary[t]:
        alt = near[t].copy()
        alt[ranked[t, : z - 1]] = OUTLIER
        alt[ranked[t, z]] = OUTLIER
    elif same[t]:
        u = int(movable[t].argmax())
        others = np.flatnonzero(within[t, :, u])
        alt[u] = others[others != near[t, u]][0]
    return t, Clustering(tuple(alt.tolist()), tuple(C[t].tolist()))


def brute_force(inst: Instance, obj: Objective, work_cap: int = DEFAULT_WORK_CAP) -> OracleResult:
    """Exact optimum over all k-center sets and outlier sets of size <= z.

    Uniqueness is judged on induced partitions plus outlier sets, not on center
    identities; Voronoi ties and outlier-choice ties both count as alternative
    optimal solutions, and under a max objective so does a kept point that a
    second center serves within the optimum. The best clustering is the
    Voronoi solution of the first optimal set in lexicographic order, and the
    tie witness the first alternative :func:`_alternative` finds to its
    partition, the first optimal set included.
    """
    n, k, z = inst.n, inst.k, inst.z
    _check_work(n, k, work_cap)
    D = inst._array
    term, exact = term_map(inst, obj)
    # objective values are compared on the scale of the terms, distances on
    # the scale of the distances; the two agree when the exponent is 1
    vtol = 0 if inst.exact else relative_tol(term(D))

    best_value = None
    blocks = 0
    # a float sum past the float range comes out inf: finite_optimum reports
    # it when every value is inf
    with np.errstate(over="ignore"):
        for C in _blocks(n, k):
            last = C, _evaluate(D, term, obj, z, C)
            blocks += 1
            best_value = _lowest(last[1], best_value, vtol)
    best_value = finite_optimum(_python_number(best_value, last[1], exact), obj)

    # Second pass, on the one block still at hand or on every block evaluated
    # again: the optimal sets, in order, against the first one's partition.
    if blocks == 1:
        evaluated = [last]
        kept = last[1]
    else:
        evaluated = ((C, _evaluate(D, term, obj, z, C)) for C in _blocks(n, k))
        kept = None
    best = None
    for C, values in evaluated:
        optimal = C[np.abs(values - best_value) <= vtol]
        if not len(optimal):
            continue
        rows = D[optimal]
        if best is None:
            lab = _voronoi(rows[:1], z)[-1][0]
            best = Clustering(tuple(lab.tolist()), tuple(optimal[0].tolist()))
        hit = _alternative(rows, optimal, lab, term, obj, z, inst.tol, best_value + vtol)
        if hit is not None:
            return OracleResult(best, best_value, False, hit[1], kept)
    return OracleResult(best, best_value, True, None, kept)


def _sets_within(inst: Instance, obj: Objective, base: OracleResult) -> np.ndarray:
    """The center sets that can be optimal under a 2-perturbation of
    ``inst``, in lexicographic order, as one ``(m, k)`` array; ``base`` is
    :func:`brute_force` of ``inst`` and ``obj``.

    On an exact instance under an integer exponent e these are the sets of
    value at most 2**e * ``base.cost`` (the band bound of the module
    docstring), read from ``base.values`` when it kept them and else
    evaluated block by block. On a float instance, whose band check has a
    tolerance, and under a fractional exponent, whose terms are rounded, the
    bound is not exact and every set is kept. The sets are held whole: at
    most C(n, k) * k indices."""
    blocks = list(_blocks(inst.n, inst.k))
    if inst.exact and type(obj.exponent) is int:
        bound = 2**obj.exponent * base.cost
        if base.values is not None:
            (C,) = blocks
            blocks = [C[base.values <= bound]]
        else:
            term, _ = term_map(inst, obj)
            blocks = [C[_evaluate(inst._array, term, obj, inst.z, C) <= bound] for C in blocks]
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def _first_alternative(S: np.ndarray, inst: Instance, obj: Objective, sets: np.ndarray,
                       lab: np.ndarray):
    """The first matrix of the ``[P, n, n]`` stack ``S`` on whose instance
    (k, z and the number type of ``inst``) :func:`brute_force` would not
    report the partition ``lab`` as the unique optimum, as ``(i,
    alternative)``: the Voronoi clustering of matrix i's first optimal set
    when that is not ``lab``'s partition, else its tie witness. None when
    there is no such matrix. The matrices are perturbations of ``inst``
    under caps of its own number type, so the stack has its dtype. Only the
    center sets ``sets`` are searched; they must hold every optimal one.

    The matrices are taken as ``[P, m, n]`` stacks, P matrices of ``S``
    against m of the sets, at most ``BLOCK_CELLS`` cells (or one matrix and
    one set) at a time, a stack only when the matrices before it are
    decided. Each stack's optimal solutions are decided together by
    :func:`_alternative`, matrix by matrix in order. The terms come from
    ``inst``'s map, which gives every entry of a matrix of the same number
    type the term the perturbed instance's own map would give it; a float
    matrix has its own tolerances.
    """
    n, z = inst.n, inst.z
    term, _ = term_map(inst, obj)
    width = max(1, BLOCK_CELLS // n)  # sets per block, as in _blocks
    depth = max(1, BLOCK_CELLS // (min(len(sets), width) * n))
    for i in range(0, len(S), depth):
        T = S[i : i + depth]
        values = np.concatenate([_evaluate(T, term, obj, z, sets[s : s + width])
                                 for s in range(0, len(sets), width)], axis=1)
        if S.dtype == np.float64:
            tol = np.array([relative_tol(E) for E in T])
            vtol = np.array([relative_tol(term(E)) for E in T])
            best = np.array([_lowest(v, None, t) for v, t in zip(values, vtol)])
            ps, js = np.nonzero(np.abs(values - best[:, None]) <= vtol[:, None])
            tol, bound = tol[ps], (best + vtol)[ps]
        else:  # exact values: the rule value < best keeps the minimum
            best = values.min(axis=1)
            ps, js = np.nonzero(values == best[:, None])
            tol, bound = 0, best[ps]
        hit = _alternative(T[ps[:, None], sets[js]], sets[js], lab, term, obj, z, tol, bound)
        if hit is not None:
            return i + int(ps[hit[0]]), hit[1]
    return None


def brute_force_kminus1_check(
    inst: Instance, result: OracleResult, work_cap: int = DEFAULT_WORK_CAP
) -> bool:
    """True iff some (k-1)-center solution already achieves cost <= result.cost,
    which certifies that the k-cluster optimum is not unique (hence not
    resilient). False by convention for k = 1."""
    n, k, z = inst.n, inst.k, inst.z
    if k == 1:
        return False
    _check_work(n, k - 1, work_cap)
    D = inst._array
    term, _ = term_map(inst, KCENTER)
    bound = result.cost + inst.tol
    for C in _blocks(n, k - 1):
        if (_evaluate(D, term, KCENTER, z, C) <= bound).any():
            return True
    return False

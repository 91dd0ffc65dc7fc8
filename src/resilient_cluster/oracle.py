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
lowest point is dropped first), and aggregates the objective terms: the
maximum, or a sum taken point by point in index order. The nearest distance is
the minimum of the k rows of the distance matrix a set gathers, and the map of
:func:`core.term_map` turns it into its term, which depends on the distance
alone. A maximum maps only the distance it keeps, since under an integer
exponent a term never decreases with the distance; under a fractional exponent
every distance is mapped first. A first pass keeps the best value by the rule
``value < best - vtol``; a second pass builds clusterings with
:func:`core.voronoi` (ties to the lowest center index) only for the sets whose
value is within vtol of it. ``vtol`` is the value tolerance: 0 on exact
instances, and on float ones :data:`core.FLOAT_TOL` times the largest finite
term, so that k-means values (squared distances) are compared on their own
scale; with exponent 1 it equals the distance tolerance ``inst.tol``, which
the distance comparisons keep.

Memory: a handful of ``(m, n)`` arrays, so at most a few times ``BLOCK_CELLS``
numbers whatever the number of center sets (up to the work cap); the sets are
listed whole only when they fit in one block, and at most 64 such blocks are
kept. When all sets fit in one block, the second pass reuses its evaluation;
otherwise it evaluates each block again.

Exactness: distances are compared on the instance's own array (int64, object
or float64), and terms come from :func:`core.term_map`: integer terms are
summed in float64 only while every sum of n of them is an exactly represented
integer, other exact terms stay Python numbers in object arrays, and float
sums add the same numbers in the same order as a left-to-right Python sum, so
they are bit-identical to it. Costs come back as Python numbers in the
arithmetic of the terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, islice
from math import comb

import numpy as np

from .core import (
    KCENTER,
    Clustering,
    Instance,
    Objective,
    relative_tol,
    term_map,
    voronoi,
)

DEFAULT_WORK_CAP = 10_000_000
# cells of one (center sets x points) array in a block
BLOCK_CELLS = 1 << 16


class InstanceTooLarge(RuntimeError):
    """The center/outlier enumeration would exceed the configured work cap."""


@dataclass(frozen=True)
class OracleResult:
    best: Clustering
    cost: object
    unique: bool
    tie_witness: Clustering | None

    def __post_init__(self):
        if not self.unique and self.tie_witness is None:
            raise ValueError("non-unique result must carry a tie witness")


def _enumeration_work(n: int, k: int, z: int) -> int:
    return comb(n, k) * comb(n - k, min(z, n - k))


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


def _evaluate(D: np.ndarray, term, obj: Objective, z: int, C: np.ndarray):
    """Best solution for each center set of the block ``C``: Voronoi
    distances, then drop the z points with the largest assigned distance
    (assignments do not interact, and off-center distances are positive, so
    dropping the largest is exactly optimal for sum and max aggregation alike).

    The nearest-center distance ``dmin`` is the minimum of the k rows of D the
    set gathers, and the terms are ``term`` (the map of :func:`core.term_map`)
    of dmin: a term depends on the distance alone, so it is the term at
    whichever nearest center. A max maps only the m distances it keeps when
    the map never decreases, as with every integer exponent; a fractional
    exponent maps every distance before the max is taken.

    Returns (values, dmin, ranked): the objective value of each set, each
    point's distance to its center (m, n), and the points ordered by
    decreasing distance, ties by index (m, n; its first z columns are the
    dropped points; None when z = 0).
    """
    dmin = D[C[:, 0]]
    for i in range(1, C.shape[1]):
        np.minimum(dmin, D[C[:, i]], out=dmin)
    ranked = np.argsort(-dmin, axis=1, kind="stable") if z else None
    if obj.aggregate == "max":
        if z:
            values = term(np.take_along_axis(dmin, ranked[:, z : z + 1], axis=1)[:, 0])
        elif Fraction(obj.exponent).denominator == 1:
            values = term(dmin.max(axis=1))
        else:
            values = term(dmin).max(axis=1)
    else:
        terms = term(dmin)  # a new array, so the put below leaves dmin alone
        if z:
            np.put_along_axis(terms, ranked[:, :z], 0, axis=1)
        values = terms[:, 0].copy()
        for u in range(1, D.shape[0]):
            values += terms[:, u]
    return values, dmin, ranked


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


def _python_number(value, E: np.ndarray, exact: bool):
    """A value read from an array of terms, as the Python number a
    left-to-right Python evaluation of the same terms would produce."""
    if E.dtype == object:
        return value
    return int(value) if exact else float(value)


def _solutions(inst: Instance, centers: tuple, dmin: np.ndarray, ranked: list, within):
    """The best clustering with these centers, then alternatives at the same
    cost: swapping the last dropped point for the first kept one when their
    distances tie, and the first kept non-center point that ``within`` (a
    (k, n) boolean array over the centers) allows at a center other than its
    Voronoi one, moved to the first such center. Sum objectives allow a
    point only its nearest centers, max objectives every center whose term
    stays within the optimum."""
    z = inst.z
    picked = ranked[:z]
    clus = voronoi(inst, centers, picked)
    yield clus
    if z and abs(dmin[ranked[z]] - dmin[ranked[z - 1]]) <= inst.tol:
        yield voronoi(inst, centers, ranked[: z - 1] + [ranked[z]])
    # a kept point's Voronoi center is always within
    movable = within.sum(axis=0) >= 2
    movable[picked] = False
    movable[list(centers)] = False
    if movable.any():
        u = int(movable.argmax())
        alt_assignment = list(clus.assignment)
        others = np.flatnonzero(within[:, u]).tolist()
        others.remove(alt_assignment[u])
        alt_assignment[u] = others[0]
        yield Clustering(tuple(alt_assignment), centers)


def brute_force(inst: Instance, obj: Objective, work_cap: int = DEFAULT_WORK_CAP) -> OracleResult:
    """Exact optimum over all k-center sets and outlier sets of size <= z.

    Uniqueness is judged on induced partitions plus outlier sets, not on center
    identities; Voronoi ties and outlier-choice ties both count as alternative
    optimal solutions, and under a max objective so does a kept point that a
    second center serves within the optimum.
    """
    n, k, z = inst.n, inst.k, inst.z
    if _enumeration_work(n, k, z) > work_cap:
        raise InstanceTooLarge(f"C({n},{k})*C({n - k},{z}) exceeds cap {work_cap}")
    D = inst._array
    term, exact = term_map(inst, obj)
    E = term(D)
    # objective values are compared on the scale of the terms, distances on
    # the scale of the distances; the two agree when the exponent is 1
    vtol = 0 if inst.exact else relative_tol(E)

    best_value = None
    blocks = 0
    for C in _blocks(n, k):
        last = C, _evaluate(D, term, obj, z, C)
        blocks += 1
        best_value = _lowest(last[1][0], best_value, vtol)
    best_value = _python_number(best_value, E, exact)

    # Second pass, on the one block still at hand or on every block evaluated
    # again: collect distinct optimal (partition, outliers) identities.
    if blocks == 1:
        evaluated = [last]
    else:
        evaluated = ((C, _evaluate(D, term, obj, z, C)) for C in _blocks(n, k))
    best: Clustering | None = None
    seen_keys = set()
    for C, (values, dmin, ranked) in evaluated:
        for j in np.flatnonzero(np.abs(values - best_value) <= vtol).tolist():
            order = ranked[j].tolist() if z else []
            centers = C[j].tolist()
            if obj.aggregate == "max":
                within = E[centers] <= best_value + vtol
            else:
                within = np.abs(D[centers] - dmin[j]) <= inst.tol
            for clus in _solutions(inst, tuple(centers), dmin[j], order, within):
                key = clus.partition_key()
                if key in seen_keys:
                    continue
                seen_keys.add(key)
                if best is not None:
                    return OracleResult(best=best, cost=best_value, unique=False, tie_witness=clus)
                best = clus
    return OracleResult(best=best, cost=best_value, unique=True, tie_witness=None)


def brute_force_kminus1_check(
    inst: Instance, result: OracleResult, work_cap: int = DEFAULT_WORK_CAP
) -> bool:
    """True iff some (k-1)-center solution already achieves cost <= result.cost,
    which certifies that the k-cluster optimum is not unique (hence not
    resilient). False by convention for k = 1."""
    n, k, z = inst.n, inst.k, inst.z
    if k == 1:
        return False
    if _enumeration_work(n, k - 1, z) > work_cap:
        raise InstanceTooLarge(f"C({n},{k - 1})*C({n - k + 1},{z}) exceeds cap {work_cap}")
    D = inst._array
    term, _ = term_map(inst, KCENTER)
    bound = result.cost + inst.tol
    for C in _blocks(n, k - 1):
        if (_evaluate(D, term, KCENTER, z, C)[0] <= bound).any():
            return True
    return False

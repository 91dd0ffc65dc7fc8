"""Exhaustive ground-truth solvers for small instances.

Every other solver in the package is tested against :func:`brute_force`; its
verdicts (cost, partition, uniqueness) are the reference the LP and DP results
must reproduce.

Evaluation is blockwise. The center sets are enumerated in lexicographic
order, at most ``BLOCK_CELLS // n`` of them at a time, as an ``(m, k)`` index
array. One numpy pass over such a block gives every point's distance to its
nearest center for all m sets (the k center columns are scanned with a strict
``<``), drops the z farthest points of each set (a stable sort, so among equal
distances the lowest point is dropped first), and aggregates the objective
terms: the maximum, or a sum taken point by point in index order. A first pass
keeps the best value by the rule ``value < best - tol``; a second pass builds
clusterings, with ties going to the lowest center index as in
:func:`core.voronoi`, only for the sets whose value is within tol of it.

Memory: a handful of ``(m, n)`` arrays, so at most a few times
``BLOCK_CELLS`` numbers whatever the number of center sets (up to the work
cap); no list of all center sets is ever built. When all sets fit in one
block, the second pass reuses its evaluation; otherwise it evaluates each
block again.

Exactness: distances are compared on the instance's own array (int64, object
or float64), and terms come from :func:`core.term_matrix`: integer terms are
summed in float64 only while every sum of n of them is an exactly represented
integer, other exact terms stay Python numbers in object arrays, and float
sums add the same numbers in the same order as a left-to-right Python sum, so
they are bit-identical to it. Costs come back as Python numbers in the
arithmetic of the terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, islice
from math import comb

import numpy as np

from .core import KCENTER, OUTLIER, Clustering, Instance, Objective, term_matrix

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
    arrays with m * n <= BLOCK_CELLS (at least one set per block)."""
    m = max(1, BLOCK_CELLS // n)
    sets = combinations(range(n), k)
    while True:
        block = np.fromiter(chain.from_iterable(islice(sets, m)), dtype=np.intp)
        if not block.size:
            return
        yield block.reshape(-1, k)


def _evaluate(D: np.ndarray, E: np.ndarray, aggregate: str, z: int, C: np.ndarray):
    """Best solution for each center set of the block ``C``: Voronoi
    distances, then drop the z points with the largest assigned distance
    (assignments do not interact, and off-center distances are positive, so
    dropping the largest is exactly optimal for sum and max aggregation alike).

    Returns (values, dmin, ranked): the objective value of each set, each
    point's distance to its center (m, n), and the points ordered by
    decreasing distance, ties by index (m, n; its first z columns are the
    dropped points; None when z = 0).
    """
    dmin = D[C[:, 0]]
    terms = E[C[:, 0]]
    for i in range(1, C.shape[1]):
        d = D[C[:, i]]
        closer = d < dmin
        np.copyto(dmin, d, where=closer)
        np.copyto(terms, E[C[:, i]], where=closer)
    ranked = np.argsort(-dmin, axis=1, kind="stable") if z else None
    if aggregate == "max":
        if z:
            values = np.take_along_axis(terms, ranked[:, z : z + 1], axis=1)[:, 0]
        else:
            values = terms.max(axis=1)
    else:
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


def _build(centers, amin: list, picked) -> Clustering:
    # a list, not a generator, for the reason given in Instance.__post_init__
    assignment = list(amin)
    for u in picked:
        assignment[u] = OUTLIER
    return Clustering(tuple(assignment), centers)


def _solutions(inst: Instance, centers: tuple, dmin: np.ndarray, ranked: list):
    """The best clustering with these centers, then alternatives at the same
    cost: swapping the last dropped point for the first kept one when their
    distances tie, and the first kept non-center point with two centers at
    its distance moved to the second of them."""
    z, tol = inst.z, inst.tol
    rows = inst._array[list(centers)]
    picked = ranked[:z]
    # the first minimum in each column is the lowest center position
    amin = rows.argmin(axis=0).tolist()
    clus = _build(centers, amin, picked)
    yield clus
    if z and abs(dmin[ranked[z]] - dmin[ranked[z - 1]]) <= tol:
        yield _build(centers, amin, ranked[: z - 1] + [ranked[z]])
    near = np.abs(rows - dmin) <= tol
    tied = near.sum(axis=0) >= 2
    tied[picked] = False
    tied[list(centers)] = False
    if tied.any():
        u = int(tied.argmax())
        alt_assignment = list(clus.assignment)
        alt_assignment[u] = int(np.flatnonzero(near[:, u])[1])
        yield Clustering(tuple(alt_assignment), centers)


def brute_force(inst: Instance, obj: Objective, work_cap: int = DEFAULT_WORK_CAP) -> OracleResult:
    """Exact optimum over all k-center sets and outlier sets of size <= z.

    Uniqueness is judged on induced partitions plus outlier sets, not on center
    identities; Voronoi ties and outlier-choice ties both count as alternative
    optimal solutions.
    """
    n, k, z = inst.n, inst.k, inst.z
    if _enumeration_work(n, k, z) > work_cap:
        raise InstanceTooLarge(f"C({n},{k})*C({n - k},{z}) exceeds cap {work_cap}")
    tol = inst.tol
    D = inst._array
    E, exact = term_matrix(inst, obj)

    best_value = None
    blocks = 0
    for C in _blocks(n, k):
        last = C, _evaluate(D, E, obj.aggregate, z, C)
        blocks += 1
        best_value = _lowest(last[1][0], best_value, tol)
    best_value = _python_number(best_value, E, exact)

    # Second pass, on the one block still at hand or on every block evaluated
    # again: collect distinct optimal (partition, outliers) identities.
    if blocks == 1:
        evaluated = [last]
    else:
        evaluated = ((C, _evaluate(D, E, obj.aggregate, z, C)) for C in _blocks(n, k))
    best: Clustering | None = None
    seen_keys = set()
    for C, (values, dmin, ranked) in evaluated:
        for j in np.flatnonzero(np.abs(values - best_value) <= tol).tolist():
            order = ranked[j].tolist() if z else []
            for clus in _solutions(inst, tuple(C[j].tolist()), dmin[j], order):
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
    bound = result.cost + inst.tol
    for C in _blocks(n, k - 1):
        # the k-center term of a distance is the distance itself
        if (_evaluate(D, D, KCENTER.aggregate, z, C)[0] <= bound).any():
            return True
    return False

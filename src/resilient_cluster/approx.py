"""Classical k-center 2-approximations and optimum recovery through them.

On 2-perturbation-resilient instances the Voronoi partition of any
2-approximate center set is the unique optimal clustering, so both algorithms
here double as exact solvers on resilient inputs. Gonzalez's farthest-first
order (:class:`FarthestFirst`) is also the order in which the certifier's
packing greedy takes points.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .core import AsymmetricUnsupported, Clustering, Instance, voronoi

GONZALEZ = "gonzalez"
HOCHBAUM_SHMOYS = "hochbaum-shmoys"


@dataclass(frozen=True)
class ApproxResult:
    centers: tuple
    radius: object
    algorithm: str


def _require_plain_symmetric(inst: Instance) -> None:
    if not inst.symmetric:
        raise AsymmetricUnsupported("2-approximations need a symmetric instance")
    if inst.z != 0:
        raise ValueError("2-approximations do not handle outliers (z must be 0)")


class FarthestFirst:
    """Gonzalez's farthest-first order of an instance's points, built as far
    as it is read: point 0, then each time the point farthest from those
    already listed (ties to the lowest index). An asymmetric pair counts by
    its shorter direction, since d(u, v) <= R either way makes u and v share
    an in-neighbour in G_R."""

    def __init__(self, inst: Instance):
        D = inst._array
        self._dist = D if inst.symmetric else np.minimum(D, D.T)
        self._nearest = self._dist[0].copy()
        self._listed = np.zeros(inst.n, dtype=bool)
        self._listed[0] = True
        self._order = np.zeros(inst.n, dtype=np.intp)
        self._len = 1

    def _append(self) -> int:
        u = int(np.argmax(self._nearest))
        if self._listed[u]:
            # only off a valid metric (a zero or NaN distance)
            u = int(np.argmin(self._listed))
        self._listed[u] = True
        self._order[self._len] = u
        self._len += 1
        np.minimum(self._nearest, self._dist[u], out=self._nearest)
        return u

    def prefix(self, m: int) -> list[int]:
        """The first m points of the order."""
        while self._len < m:
            self._append()
        return self._order[:m].tolist()

    def first_free(self, blocked: np.ndarray) -> int:
        """The first point of the order that is not blocked; one must exist."""
        listed = self._order[: self._len]
        free = ~blocked[listed]
        i = int(free.argmax())
        if free[i]:
            return int(listed[i])
        while True:
            u = self._append()
            if not blocked[u]:
                return u


def _radius(inst: Instance, centers: list[int]):
    """The largest distance from a point to its Voronoi center, as the entry
    of ``inst.dist`` that attains it first (``cost`` would give an int 0 on a
    float instance with k = n)."""
    clus = voronoi(inst, centers)
    return max(inst.dist[clus.center_of(u)][u] for u in inst.points)


def gonzalez(inst: Instance) -> ApproxResult:
    """The first k points of the farthest-first order (:class:`FarthestFirst`)."""
    _require_plain_symmetric(inst)
    centers = FarthestFirst(inst).prefix(inst.k)
    return ApproxResult(tuple(centers), _radius(inst, centers), GONZALEZ)


def _greedy_ball_cover(inst: Instance, R) -> list[int]:
    """Repeatedly open the lowest-index uncovered point and remove its 2R-ball."""
    tol = inst.tol
    dist = inst.dist
    uncovered = set(range(inst.n))
    centers = []
    while uncovered:
        p = min(uncovered)
        centers.append(p)
        row = dist[p]
        uncovered = {u for u in uncovered if row[u] > 2 * R + tol}
    return centers


def hochbaum_shmoys(inst: Instance) -> ApproxResult:
    """Threshold search: at each candidate radius greedily remove 2R-balls; the
    smallest candidate where at most k balls suffice is within the optimum, so
    the returned centers are a 2-approximation."""
    _require_plain_symmetric(inst)
    cands = inst.distinct_distances()
    # the first candidate where at most k balls suffice; the largest always does
    lo = bisect_left(range(len(cands)), True, 0, len(cands) - 1,
                     key=lambda i: len(_greedy_ball_cover(inst, cands[i])) <= inst.k)
    centers = _greedy_ball_cover(inst, cands[lo])
    for u in range(inst.n):
        if len(centers) == inst.k:
            break
        if u not in centers:
            centers.append(u)
    return ApproxResult(tuple(centers), _radius(inst, centers), HOCHBAUM_SHMOYS)


def recover_via_2approx(inst: Instance, algorithm: str = GONZALEZ) -> Clustering:
    """Voronoi partition of a 2-approximate center set; equals the unique
    optimum whenever the instance is 2-perturbation resilient."""
    if algorithm == GONZALEZ:
        result = gonzalez(inst)
    elif algorithm == HOCHBAUM_SHMOYS:
        result = hochbaum_shmoys(inst)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return voronoi(inst, result.centers)

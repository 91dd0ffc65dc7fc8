"""Classical k-center 2-approximations and optimum recovery through them.

On 2-perturbation-resilient instances the Voronoi partition of any
2-approximate center set is the unique optimal clustering, so both algorithms
here double as exact solvers on resilient inputs. Gonzalez's farthest-first
order (:func:`farthest_first`) also picks the certifier's packing, in
conflict radius instead of distance.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .core import (
    KCENTER,
    AsymmetricUnsupported,
    Clustering,
    Instance,
    completed_centers,
    cost,
    voronoi,
)

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


def farthest_first(row, start: int, m: int) -> tuple[list[int], list]:
    """The first m points of a farthest-first order (Gonzalez), and the gap
    at which each point after ``start`` was taken. ``row(u)`` gives u's
    distance to every point; the order starts at ``start`` and then each time
    takes the point whose smallest distance to those already listed is
    largest (ties to the lowest index), which is that point's gap."""
    nearest = row(start).copy()
    listed = np.zeros(len(nearest), dtype=bool)
    listed[start] = True
    points, gaps = [start], []
    while len(points) < m:
        u = int(np.argmax(nearest))
        if listed[u]:
            # only off a valid metric (a zero or NaN distance)
            u = int(np.argmin(listed))
        listed[u] = True
        points.append(u)
        gaps.append(nearest[u])
        np.minimum(nearest, row(u), out=nearest)
    return points, gaps


def gonzalez(inst: Instance) -> ApproxResult:
    """The first k points of the farthest-first order from point 0."""
    _require_plain_symmetric(inst)
    D = inst._array
    centers, _ = farthest_first(lambda u: D[u], 0, inst.k)
    return ApproxResult(tuple(centers), cost(inst, voronoi(inst, centers), KCENTER), GONZALEZ)


def _greedy_ball_cover(inst: Instance, R) -> list[int]:
    """Repeatedly open the lowest-index uncovered point and remove its 2R-ball."""
    D = inst._array
    bound = 2 * R + inst.tol
    uncovered = np.ones(inst.n, dtype=bool)
    centers = []
    while uncovered.any():
        p = int(uncovered.argmax())
        centers.append(p)
        uncovered &= D[p] > bound
        uncovered[p] = False  # even when its own distance exceeds the bound
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
    centers = completed_centers(inst, _greedy_ball_cover(inst, cands[lo]))
    radius = cost(inst, voronoi(inst, centers), KCENTER)
    return ApproxResult(tuple(centers), radius, HOCHBAUM_SHMOYS)


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

"""Synthetic instances with planted ground truth.

Construction: cluster hubs sit on a line with consecutive gaps of at least
sigma * radius; member points hang off their hub on spokes of length in
[radius/2, radius]; outliers get their own hub slots. Distances are the metric
of that tree (shortest paths), so metricity is exact and the separation
properties hold by construction rather than by rejection sampling: every
inter-cluster distance is at least sigma * radius while every point sits within
radius of its hub. All randomness is drawn before sigma is applied, so sweeping
sigma with a fixed seed varies one knob of the same instance. Distances are
integers, which keeps generated instances in exact arithmetic.

The matrix is assembled in one step: off the diagonal, d(u, v) is u's spoke
out to its hub, plus the distance from u's hub to v's hub, plus v's spoke in
from its hub. A point that is a hub has spokes of length 0, and a hub's
distance to itself is 0, so one sum covers hub and member points alike. In
asymmetric mode the outward spokes are drawn apart from the inward ones, and
the hub distances are the shortest-path closure of jittered line distances.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .core import KCENTER, OUTLIER, Clustering, Instance, Objective, _shortest_paths, cost

SYMMETRIC = "symmetric"
ASYMMETRIC = "asymmetric"
OUTLIER_MODE = "outlier"
NON_RESILIENT = "non-resilient"
MODES = (SYMMETRIC, ASYMMETRIC, OUTLIER_MODE, NON_RESILIENT)
RESILIENT_MODES = (SYMMETRIC, ASYMMETRIC, OUTLIER_MODE)


class ConfigInfeasible(ValueError):
    """The requested sizes/separation cannot be realized by this construction."""


@dataclass(frozen=True)
class GeneratorConfig:
    n: int
    k: int
    z: int = 0
    sigma: object = Fraction(4)
    radius: int = 1000
    seed: int = 0
    mode: str = SYMMETRIC
    # Acceptance-sweep hook: permits sigma <= 2 in resilient modes, dropping
    # the by-construction resilience guarantee.
    allow_weak_separation: bool = False

    def __post_init__(self):
        object.__setattr__(self, "sigma", Fraction(self.sigma))

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigInfeasible(f"unknown mode {self.mode!r}")
        if self.n < 1 or not 1 <= self.k <= self.n:
            raise ConfigInfeasible(f"bad sizes n={self.n}, k={self.k}")
        if not isinstance(self.radius, int) or self.radius < 8:
            raise ConfigInfeasible("radius must be an integer >= 8")
        if self.mode == OUTLIER_MODE:
            if self.z < 1:
                raise ConfigInfeasible("outlier mode needs z >= 1")
            if self.n - self.z < 2 * self.k:
                raise ConfigInfeasible(
                    "outlier mode needs clusters of size >= 2 (n - z >= 2k)"
                )
        elif self.z != 0:
            raise ConfigInfeasible(f"mode {self.mode} does not take outliers")
        if self.mode in RESILIENT_MODES:
            if self.sigma <= 2 and not self.allow_weak_separation:
                raise ConfigInfeasible("resilient modes require sigma > 2")
            if self.sigma <= 1:
                raise ConfigInfeasible("sigma must exceed 1")
        if self.mode == NON_RESILIENT and not 2 <= self.k < self.n:
            raise ConfigInfeasible("non-resilient mode needs 2 <= k < n")


@dataclass(frozen=True)
class SeparationViolation:
    check: str
    points: tuple


def _cluster_sizes(rng: random.Random, count: int, total: int, min_size: int) -> list[int]:
    sizes = [min_size] * count
    for _ in range(total - min_size * count):
        sizes[rng.randrange(count)] += 1
    return sizes


def generate(cfg: GeneratorConfig) -> tuple[Instance, Clustering]:
    """Instance plus its planted clustering, fully determined by the seed."""
    cfg.validate()
    rng = random.Random(cfg.seed)
    n, k, z, r = cfg.n, cfg.k, cfg.z, cfg.radius

    if cfg.mode == NON_RESILIENT:
        dist = [[0 if u == v else r for v in range(n)] for u in range(n)]
        assignment = list(range(k)) + [0] * (n - k)
        return Instance(dist, k, 0, symmetric=True), Clustering(assignment, range(k))

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
    pos = list(accumulate((base_gap + j for j in hub_jitter[1:]), initial=0))

    # roles: hub h < k is the center of cluster h; hubs k..k+z-1 are outliers.
    # perm lists the points hub by hub, each cluster's center first.
    starts = list(accumulate(sizes, initial=0))
    members = [perm[a:b] for a, b in zip(starts, starts[1:])]
    centers = [block[0] for block in members]
    hub = np.empty(n, dtype=np.intp)
    hub[perm] = np.repeat(np.arange(k + z), sizes + [1] * z)

    # int64 holds every entry and every sum the closure forms (each below
    # 2 * (pos[-1] + 2r)) unless the radius is huge; then Python ints do
    dtype = np.int64 if 2 * (pos[-1] + 2 * r) < 2**63 else object
    hub_points = centers + perm[n - z :]
    spoke_in = np.array(spoke_a, dtype=dtype)
    spoke_out = np.array(spoke_b if cfg.mode == ASYMMETRIC else spoke_a, dtype=dtype)
    spoke_in[hub_points] = 0
    spoke_out[hub_points] = 0
    coord = np.array(pos, dtype=dtype)
    H = abs(coord[:, None] - coord[None, :])
    if cfg.mode == ASYMMETRIC:
        H += np.array(dir_jitter, dtype=dtype)
        np.fill_diagonal(H, 0)
        _shortest_paths(H)
    D = H[np.ix_(hub, hub)]
    D += spoke_out[:, None]
    D += spoke_in[None, :]
    np.fill_diagonal(D, 0)
    inst = Instance(D, k, z, symmetric=cfg.mode != ASYMMETRIC)

    order = sorted(range(k), key=lambda i: centers[i])
    assignment = [OUTLIER] * n
    for rank, i in enumerate(order):
        for p in members[i]:
            assignment[p] = rank
    return inst, Clustering(assignment, [centers[i] for i in order])


def verify_planted(inst: Instance, planted: Clustering, obj: Objective) -> list[SeparationViolation]:
    """Check the separation properties a resilient optimum must satisfy,
    literally, against the given solution; empty list means all hold.

    Each check is a mask over the distance matrix, built from two: ``apart``
    (the points lie in different clusters, the outliers counting as one more
    cluster) and ``near`` (their distance is at most r_hat + tol). Violations
    come point by point, in row-major order of each mask.
    """
    tol = inst.tol
    clusters = planted.clusters()
    outliers = planted.outliers
    r_hat = cost(inst, planted, KCENTER)
    D = inst._array
    dist = D.tolist()
    label = np.array(planted.assignment)
    apart = label[:, None] != label[None, :]
    near = D <= r_hat + tol
    centers = list(planted.centers)
    out: list[SeparationViolation] = []

    def emit(check, pairs):
        out.extend(SeparationViolation(check, tuple(pair)) for pair in pairs)

    if obj.aggregate == "max":
        if outliers:
            clustered = (label != OUTLIER)[:, None]
            emit("outlier_separation", np.argwhere(apart & near & clustered).tolist())
            min_size = min(map(len, clusters))
            order = list(outliers)
            ball = (D[np.ix_(order, order)] <= 2 * r_hat + tol).sum(axis=1)
            emit("outlier_ball_sparsity",
                 [(o,) for o, b in zip(order, ball.tolist()) if b >= min_size])
        elif inst.symmetric:
            emit("inter_cluster_separation", np.argwhere(apart & near).tolist())
            for members in clusters:
                for p in members:
                    ws = [w for w in members if w != p]
                    qs = np.flatnonzero(apart[p]).tolist()
                    beats = D[p, qs][None, :] <= D[p, ws][:, None] + tol
                    emit("intra_beats_inter",
                         [(p, ws[a], qs[b]) for a, b in np.argwhere(beats).tolist()])
        else:
            emit("center_separation",
                 [(q, centers[i]) for i, q in np.argwhere((apart & near)[:, centers].T).tolist()])
            core = near[np.arange(inst.n), np.array(centers)[label]]
            for i, members in enumerate(clusters):
                far = {
                    (p, w)
                    for p in members
                    if core[p]
                    for w in members
                    if w != p and dist[p][w] >= r_hat - tol
                }
                if not far:
                    continue
                # repeated w stay: each (q, w) comes once per far pair
                ws = [w for _, w in far]
                qs = [q for j, other in enumerate(clusters) if j != i for q in other if core[q]]
                hits = np.argwhere(near[np.ix_(qs, ws)]).tolist()
                emit("core_point_separation", [(qs[a], ws[b]) for a, b in hits])
    else:
        for p, g in enumerate(planted.assignment):
            if g == OUTLIER:
                continue
            c_p = centers[g]
            proximity = apart[p] & (dist[c_p][p] >= D[p] - tol)
            emit("center_proximity", [(p, q) for q in np.flatnonzero(proximity).tolist()])
            dominance = 2 * dist[p][c_p] >= D[p, centers] - tol
            dominance[g] = False
            emit("center_dominance",
                 [(p, centers[j]) for j in np.flatnonzero(dominance).tolist()])
    return out

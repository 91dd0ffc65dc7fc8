"""Structured metric 2-perturbations and a proof-shape resilience falsifier.

A perturbation is specified by a set of special edges whose lengths are capped,
everything else kept; the perturbed distance is the shortest-path closure, which
keeps the triangle inequality exactly and stays within [d/2, d] entrywise
whenever the cap respects the half-distance precondition.

The falsifier makes its shapes from the optimum's proof and drops an invalid
one (a cap below half an edge) where it makes it, before any spec is built.
The valid ones are capped into one ``[P, n, n]`` stack per number type, at
most ``oracle.BLOCK_CELLS`` entries at a time, and closed by one stacked
Floyd-Warshall; each perturbed instance is built from its slice of the stack,
and only when the solves before it left the optimum alone.
:func:`apply_perturbation` is the same closure for one spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from . import oracle
from .core import (
    KCENTER,
    Clustering,
    Instance,
    InternalCheckFailed,
    Objective,
    _shortest_paths,
    cost,
)
from .oracle import OracleResult, brute_force

DIRECTED = "directed"
UNDIRECTED = "undirected"

NOT_RESILIENT = "not-resilient"
RESILIENT_UNREFUTED = "resilient-unrefuted"

DEFAULT_BUDGET = 512


class InvalidPerturbation(ValueError):
    """Capping an edge below half its distance would leave the 2-perturbation band."""


@dataclass(frozen=True)
class PerturbationSpec:
    """Special edges plus the cap applied to them; undirected pairs are stored sorted."""

    edges: tuple
    cap: object
    mode: str

    def __post_init__(self):
        if self.mode not in (DIRECTED, UNDIRECTED):
            raise ValueError(f"unknown mode {self.mode!r}")
        edges = self.edges
        if self.mode == UNDIRECTED:
            edges = tuple(sorted({(min(u, v), max(u, v)) for u, v in edges}))
        else:
            edges = tuple(sorted(set(map(tuple, edges))))
        object.__setattr__(self, "edges", edges)


@dataclass(frozen=True)
class FalsifierReport:
    """``tried`` counts the perturbation shapes attempted (invalid ones
    included); ``exhausted`` is true when the budget cut the search short;
    ``invalid`` counts the shapes in ``tried`` that cap an edge below half its
    length, which are never applied."""

    verdict: str
    witness: tuple[PerturbationSpec, Clustering] | None
    tried: int = 0
    exhausted: bool = False
    invalid: int = 0

    def __post_init__(self):
        if self.verdict == NOT_RESILIENT and self.witness is None:
            raise ValueError("a non-resilience verdict must carry a witness")


def _below_half(d, cap, tol) -> bool:
    """Capping an edge of length d at ``cap`` leaves it below d/2 (integer-safe:
    capped >= d/2  <=>  2*capped >= d)."""
    return 2 * min(d, cap) < d - tol


def apply_perturbation(inst: Instance, spec: PerturbationSpec) -> Instance:
    """Shortest-path closure after capping the special edges at min(d, cap).

    Requires min(d(u,v), cap) >= d(u,v)/2 on every special edge; the output then
    satisfies d/2 <= d' <= d entrywise and the triangle inequality exactly
    (symmetry too in undirected mode). The matrix keeps the instance's number
    type unless a cap that shortens an edge needs a wider one (a ``Fraction``
    or float cap on an int instance). This is the one-spec case of the
    falsifier's stacked closure, :func:`_closures`.
    """
    if (spec.mode == UNDIRECTED) != inst.symmetric:
        raise ValueError("perturbation mode does not match the instance symmetry flag")
    n = inst.n
    dist = inst._array.tolist()
    tol = inst.tol
    cap = spec.cap
    for u, v in spec.edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) references a missing point")
        if _below_half(dist[u][v], cap, tol):
            raise InvalidPerturbation(
                f"cap {cap} shortens edge ({u}, {v}) below half its length"
            )
    (E,) = _closures(inst, [spec])
    return Instance(E, inst.k, inst.z, inst.symmetric)


def _closures(inst: Instance, specs: list) -> list:
    """The perturbed matrix of each spec, in order, for specs whose edges are
    points and whose cap passes the half check.

    A spec's matrix has the instance's dtype, or the one numpy gives the
    instance's array and the cap when the cap shortens an edge. The specs of
    one dtype are capped in one ``[P, n, n]`` stack and closed by one
    :func:`core._shortest_paths` call, so each matrix is bit for bit the
    closure it would get alone, and one band check covers the stack: an
    entry outside [d/2, d] (tolerance ``inst.tol``) raises
    :class:`InternalCheckFailed`.
    """
    D = inst._array
    n = inst.n
    dist = inst._array.tolist()
    groups: dict = {}
    for i, spec in enumerate(specs):
        cap = spec.cap
        shortened = [(u, v) for u, v in spec.edges if cap < dist[u][v]]
        dtype = np.result_type(D.dtype, np.asarray(cap).dtype) if shortened else D.dtype
        groups.setdefault(dtype, []).append((i, spec, shortened))
    out = [None] * len(specs)
    for dtype, members in groups.items():
        S = np.empty((len(members), n, n), dtype=dtype)
        S[:] = D
        for E, (_, spec, shortened) in zip(S, members):
            if shortened:
                us, vs = zip(*shortened)
                E[us, vs] = spec.cap
                if spec.mode == UNDIRECTED:
                    E[vs, us] = spec.cap
        _shortest_paths(S)
        bad = (S > D + inst.tol) | (2 * S < D - inst.tol)
        if bad.any():
            p, u, v = map(int, np.unravel_index(np.argmax(bad), bad.shape))
            raise InternalCheckFailed(
                f"perturbed d({u}, {v}) = {S[p].tolist()[u][v]} left the band [d/2, d]"
            )
        for E, (i, _, _) in zip(S, members):
            out[i] = E
    return out


def radius_preserving_check(inst: Instance, pert: Instance, clus: Clustering) -> bool:
    """True iff the k-center cost of ``clus`` is identical under both metrics and
    ``clus`` is still optimal for the perturbed instance per brute force."""
    tol = inst.tol
    r_orig = cost(inst, clus, KCENTER)
    r_pert = cost(pert, clus, KCENTER)
    if abs(r_orig - r_pert) > tol:
        return False
    opt = brute_force(pert, KCENTER)
    return abs(opt.cost - r_pert) <= tol


def _candidate_specs(inst: Instance, base: Clustering, r_hat):
    """The proof shapes, each distinct one once, in order: (a) one point
    into one optimal cluster, (b) a point into the ball of radius 2*r_hat
    around it, (c) a single center-to-point edge capped at an intra-cluster
    distance. Each is a star (u, vs, cap), edges from u to the ascending far
    ends vs, and comes out as its ``PerturbationSpec``, or as None when its
    cap cuts an edge below half its length (the shape
    :func:`apply_perturbation` rejects), checked on the edge as the spec
    normalises it. The star is the dedup key, a one-edge star of a symmetric
    instance taken from its lower end: a star of two or more edges has one
    center, so equal keys are equal edge sets."""
    n = inst.n
    symmetric = inst.symmetric
    mode = UNDIRECTED if symmetric else DIRECTED
    dist = inst._array.tolist()
    tol = inst.tol
    clusters = base.clusters()
    caps = [sorted({dist[c][p] for p in clusters[i] if p != c})
            for i, c in enumerate(base.centers)]
    balls = ([v for v in range(n) if v != p and dist[p][v] <= 2 * r_hat] for p in range(n))
    stars = chain(
        ((q, members, r_hat) for q in range(n) for members in clusters if q not in members),
        ((p, ball, r_hat) for p, ball in enumerate(balls) if ball),
        ((c, [q], cap) for i, c in enumerate(base.centers)
         for q in range(n) if base.assignment[q] != i for cap in caps[i]),
    )
    seen = set()
    for u, vs, cap in stars:
        if symmetric and len(vs) == 1 and vs[0] < u:
            u, vs = vs[0], [u]
        key = (u, tuple(vs), cap)
        if key in seen:
            continue
        seen.add(key)
        if any(_below_half(dist[v][u] if symmetric and v < u else dist[u][v], cap, tol)
               for v in vs):
            yield None
        else:
            yield PerturbationSpec(tuple((u, v) for v in vs), cap, mode)


def falsify_resilience(
    inst: Instance, obj: Objective, budget: int = DEFAULT_BUDGET
) -> FalsifierReport:
    """Search the proof-shaped 2-perturbations for one that changes the optimum.

    A NOT_RESILIENT verdict is a certificate (the witness re-solves to a
    different optimum); RESILIENT_UNREFUTED is not a proof of resilience — only
    the proof shapes are searched, not the full perturbation continuum.

    The shapes are taken in order, at most ``budget`` of them, invalid ones
    counted and skipped. The valid ones are closed a chunk at a time by
    :func:`_closures`, at most ``oracle.BLOCK_CELLS`` matrix entries per
    chunk, and solved one by one in order; the next chunk is made only when
    none of them moved the optimum.
    """
    base = brute_force(inst, obj)
    identity = PerturbationSpec((), 0, UNDIRECTED if inst.symmetric else DIRECTED)
    if not base.unique:
        return FalsifierReport(NOT_RESILIENT, (identity, base.tie_witness))
    base_key = base.best.partition_key()
    r_hat = cost(inst, base.best, KCENTER)
    chunk = max(1, oracle.BLOCK_CELLS // inst.n**2)
    specs = _candidate_specs(inst, base.best, r_hat)
    shapes = islice(specs, budget)
    tried = invalid = 0
    while True:
        # (spec, tried, invalid) as the report would give them at that spec
        batch = []
        for spec in shapes:
            tried += 1
            if spec is None:
                invalid += 1
                continue
            batch.append((spec, tried, invalid))
            if len(batch) == chunk:
                break
        if not batch:
            break
        closed = _closures(inst, [spec for spec, _, _ in batch])
        for (spec, at, skipped), E in zip(batch, closed):
            res = brute_force(Instance(E, inst.k, inst.z, inst.symmetric), obj)
            if res.best.partition_key() != base_key:
                return FalsifierReport(NOT_RESILIENT, (spec, res.best), at, invalid=skipped)
            if not res.unique:
                return FalsifierReport(NOT_RESILIENT, (spec, res.tie_witness), at, invalid=skipped)
    # any shape left over, valid (a spec) or not (None), means the budget cut
    exhausted = any(True for _ in specs)
    return FalsifierReport(RESILIENT_UNREFUTED, None, tried, exhausted, invalid)

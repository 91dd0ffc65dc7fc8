"""Structured metric 2-perturbations and a proof-shape resilience falsifier.

A perturbation is specified by a set of special edges whose lengths are capped,
everything else kept; the perturbed distance is the shortest-path closure, which
keeps the triangle inequality exactly and stays within [d/2, d] entrywise
whenever the cap respects the half-distance precondition.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

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
    or float cap on an int instance).
    """
    if (spec.mode == UNDIRECTED) != inst.symmetric:
        raise ValueError("perturbation mode does not match the instance symmetry flag")
    n = inst.n
    dist = inst.dist
    tol = inst.tol
    cap = spec.cap
    for u, v in spec.edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) references a missing point")
        if _below_half(dist[u][v], cap, tol):
            raise InvalidPerturbation(
                f"cap {cap} shortens edge ({u}, {v}) below half its length"
            )
    D = inst._array
    shortened = [(u, v) for u, v in spec.edges if cap < dist[u][v]]
    dtype = np.result_type(D.dtype, np.asarray(cap).dtype) if shortened else D.dtype
    E = D.astype(dtype)
    if shortened:
        us, vs = zip(*shortened)
        E[us, vs] = cap
        if spec.mode == UNDIRECTED:
            E[vs, us] = cap
    _shortest_paths(E)
    rows = E.tolist()
    bad = (E > D + tol) | (2 * E < D - tol)
    if bad.any():
        u, v = divmod(int(np.argmax(bad)), n)
        raise InternalCheckFailed(
            f"perturbed d({u}, {v}) = {rows[u][v]} left the band [d/2, d]"
        )
    return Instance(rows, inst.k, inst.z, inst.symmetric)


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


def _shapes(inst: Instance, base: Clustering, r_hat):
    """Perturbation shapes drawn from the proofs, as (edges, cap): (a) one
    point into one optimal cluster, (b) a point into the ball of radius
    2*r_hat around it, (c) a single center-to-point edge capped at an
    intra-cluster distance."""
    clusters = base.clusters()
    dist = inst.dist
    for q in range(inst.n):
        for members in clusters:
            if q not in members:
                yield [(q, v) for v in members], r_hat
    for p in range(inst.n):
        ball = [v for v in range(inst.n) if v != p and dist[p][v] <= 2 * r_hat]
        if ball:
            yield [(p, v) for v in ball], r_hat
    for i, c in enumerate(base.centers):
        caps = sorted({dist[c][p] for p in clusters[i] if p != c})
        for q in range(inst.n):
            if base.assignment[q] != i:
                for cap in caps:
                    yield [(c, q)], cap


def _candidate_specs(inst: Instance, base: Clustering, r_hat):
    """Each distinct nonempty shape of :func:`_shapes` once, as (spec, valid):
    ``valid`` is false when the cap shortens a special edge below half its
    length, the shape :func:`apply_perturbation` would reject."""
    mode = UNDIRECTED if inst.symmetric else DIRECTED
    dist = inst.dist
    tol = inst.tol
    seen = set()
    for edges, cap in _shapes(inst, base, r_hat):
        spec = PerturbationSpec(tuple(edges), cap, mode)
        key = (spec.edges, spec.cap)
        if spec.edges and key not in seen:
            seen.add(key)
            yield spec, not any(_below_half(dist[u][v], cap, tol) for u, v in spec.edges)


def falsify_resilience(
    inst: Instance, obj: Objective, budget: int = DEFAULT_BUDGET
) -> FalsifierReport:
    """Search the proof-shaped 2-perturbations for one that changes the optimum.

    A NOT_RESILIENT verdict is a certificate (the witness re-solves to a
    different optimum); RESILIENT_UNREFUTED is not a proof of resilience — only
    the proof shapes are searched, not the full perturbation continuum.
    """
    base = brute_force(inst, obj)
    identity = PerturbationSpec((), 0, UNDIRECTED if inst.symmetric else DIRECTED)
    if not base.unique:
        return FalsifierReport(NOT_RESILIENT, (identity, base.tie_witness))
    base_key = base.best.partition_key()
    r_hat = cost(inst, base.best, KCENTER)
    specs = _candidate_specs(inst, base.best, r_hat)
    tried = invalid = 0
    for spec, valid in islice(specs, budget):
        tried += 1
        if not valid:
            invalid += 1
            continue
        res = brute_force(apply_perturbation(inst, spec), obj)
        if res.best.partition_key() != base_key:
            return FalsifierReport(NOT_RESILIENT, (spec, res.best), tried, invalid=invalid)
        if not res.unique:
            return FalsifierReport(NOT_RESILIENT, (spec, res.tie_witness), tried, invalid=invalid)
    exhausted = next(specs, None) is not None
    return FalsifierReport(RESILIENT_UNREFUTED, None, tried, exhausted, invalid)

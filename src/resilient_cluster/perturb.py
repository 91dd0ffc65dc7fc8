"""Structured metric 2-perturbations and a proof-shape resilience falsifier.

A perturbation is specified by a set of special edges whose lengths are capped,
everything else kept; the perturbed distance is the shortest-path closure, which
keeps the triangle inequality exactly and stays within [d/2, d] entrywise
whenever the cap respects the half-distance precondition.

The falsifier makes its shapes from the optimum's proof and carries each as
its star key (u, vs, cap): the special edges run from u to each point of vs.
It drops an invalid shape (a cap below half an edge) where it makes it, by one
comparison with the star's longest edge, and builds a ``PerturbationSpec``
only for the witness it returns. The valid stars are capped into one
``[P, n, n]`` stack, at most ``oracle.BLOCK_CELLS`` entries at a time, by one
index assignment from edge-index arrays, and closed by one stacked
Floyd-Warshall; the caps are of the instance's own number type, so the stack
has its dtype. :func:`apply_perturbation` is the same closure for one spec.

The closed matrices are then solved as ``[P, m, n]`` stacks against only the
m center sets that a 2-perturbation leaves in play, which
:func:`oracle._sets_within` decides from the base solve (the band bound and
its proof are in the ``oracle`` module docstring); each shape is decided in
order on label arrays, and clusterings are built only for the shape that
moves the optimum.
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
from .oracle import brute_force

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
    us, vs = zip(*spec.edges) if spec.edges else ((), ())
    (E,) = _closures(inst, [spec.cap], np.zeros(len(us), np.intp), us, vs)
    return Instance(E, inst.k, inst.z, inst.symmetric)


def _closures(inst: Instance, caps, p, u, v) -> np.ndarray:
    """The perturbed matrices of P shapes as one ``[P, n, n]`` stack: shape
    i caps its special edges at ``caps[i]``, and edge j of the stack runs
    from point ``u[j]`` to point ``v[j]`` in shape ``p[j]`` (index arrays
    of one length; a symmetric edge is read from its lower end, as a spec
    normalises it). Every cap must pass the half check.

    A matrix has the instance's dtype, or the one numpy gives the
    instance's array and the cap when the cap shortens an edge; the stack
    has the one numpy gives those dtypes, so each matrix keeps its own when
    the shapes share one, as the falsifier's shapes (caps of the instance's
    own number type) always do. Each cap is compared with its edge and
    written where it shortens it by one index assignment over the stack,
    and the stack is closed by one :func:`core._shortest_paths` call, so
    each matrix is bit for bit the closure :func:`apply_perturbation` gives
    its shape. One band check covers the stack: an entry outside [d/2, d]
    (tolerance ``inst.tol``) raises :class:`InternalCheckFailed`.
    """
    D = inst._array
    p, u, v = (np.asarray(a, dtype=np.intp) for a in (p, u, v))
    if inst.symmetric:
        u, v = np.minimum(u, v), np.maximum(u, v)
    # the caps as the Python numbers they are, so that each comparison and
    # each entry written is the one a scalar loop would make
    capv = np.array(caps, dtype=object)[p]
    shortened = capv < D[u, v]
    p, u, v, capv = p[shortened], u[shortened], v[shortened], capv[shortened]
    dtype = D.dtype
    if len(p):
        short_caps = [caps[i] for i in set(p.tolist())]
        dtype = np.result_type(dtype, np.asarray(short_caps).dtype)
    S = np.empty((len(caps), *D.shape), dtype=dtype)
    S[:] = D
    S[p, u, v] = capv
    if inst.symmetric:
        S[p, v, u] = capv
    _shortest_paths(S)
    bad = (S > D + inst.tol) | (2 * S < D - inst.tol)
    if bad.any():
        i, a, b = map(int, np.unravel_index(np.argmax(bad), bad.shape))
        raise InternalCheckFailed(
            f"perturbed d({a}, {b}) = {S[i].tolist()[a][b]} left the band [d/2, d]"
        )
    return S


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
    around it, (c) a single center-to-point edge capped at each
    intra-cluster distance of the center. Each is a star key (u, vs, cap),
    edges from u to the ascending far ends vs, and comes out as that key,
    or as None when its cap cuts an edge below half its length (the shape
    :func:`apply_perturbation` rejects), checked on the edge as a
    ``PerturbationSpec`` normalises it. The key is also the dedup key, a
    one-edge star of a symmetric instance taken from its lower end: a star
    of two or more edges has one center, so equal keys are equal edge sets.

    A star is invalid iff ``2 * cap < longest - tol``, ``longest`` the
    longest of its edges: on nonnegative lengths that holds iff
    :func:`_below_half` holds for some edge. The longest edges are read from
    arrays made once per clustering: from each point into each cluster, and
    from each point across its ball. The stars come in groups of one edge
    set and its caps, in order, so that each edge set is oriented and its
    floor taken once."""
    n = inst.n
    symmetric = inst.symmetric
    D = inst._array
    dist = D.tolist()
    tol = inst.tol
    # each edge's length as the spec normalises the edge: a symmetric pair
    # from its lower end
    N = np.where(np.arange(n)[:, None] <= np.arange(n), D, D.T) if symmetric else D
    lengths = N.tolist()
    clusters = [tuple(members) for members in base.clusters()]
    assignment = base.assignment
    into = [N[:, members].max(axis=1).tolist() for members in clusters]
    near = D <= 2 * r_hat
    np.fill_diagonal(near, False)
    # the min is at most every entry, so it leaves the max over a ball alone
    across = np.where(near, N, N.min()).max(axis=1).tolist()
    balls = [tuple(v for v, inside in enumerate(row) if inside) for row in near.tolist()]
    caps = [sorted({dist[c][p] for p in clusters[i] if p != c})
            for i, c in enumerate(base.centers)]
    groups = chain(
        ((q, members, (r_hat,), into[i][q]) for q in range(n)
         for i, members in enumerate(clusters) if assignment[q] != i),
        ((p, ball, (r_hat,), across[p]) for p, ball in enumerate(balls) if ball),
        ((c, (q,), caps[i], lengths[c][q]) for i, c in enumerate(base.centers)
         for q in range(n) if assignment[q] != i),
    )
    seen = set()
    for u, vs, group_caps, longest in groups:
        if symmetric and len(vs) == 1 and vs[0] < u:
            u, vs = vs[0], (u,)
        floor = longest - tol
        for cap in group_caps:
            key = (u, vs, cap)
            if key in seen:
                continue
            seen.add(key)
            yield None if 2 * cap < floor else key


def falsify_resilience(
    inst: Instance, obj: Objective, budget: int = DEFAULT_BUDGET
) -> FalsifierReport:
    """Search the proof-shaped 2-perturbations for one that changes the optimum.

    A NOT_RESILIENT verdict is a certificate (the witness re-solves to a
    different optimum); RESILIENT_UNREFUTED is not a proof of resilience — only
    the proof shapes are searched, not the full perturbation continuum.

    The first ``budget`` shapes of :func:`_candidate_specs` are taken as one
    list of star keys, None for an invalid one; ``exhausted`` says that the
    stream held one more. The valid ones are closed a chunk at a time by
    :func:`_closures`, at most ``oracle.BLOCK_CELLS`` matrix entries per
    chunk, and the chunk's stack is decided in order as :func:`brute_force`
    would decide each matrix, by :func:`oracle._first_alternative`, over the
    center sets :func:`oracle._sets_within` leaves in play; the next chunk is
    made only when none of them moved the optimum. A witness at list
    position p reports ``tried = p + 1`` and the invalid shapes before it. A
    ``PerturbationSpec`` is built only for the witness.
    """
    base = brute_force(inst, obj)
    mode = UNDIRECTED if inst.symmetric else DIRECTED
    if not base.unique:
        return FalsifierReport(NOT_RESILIENT, (PerturbationSpec((), 0, mode), base.tie_witness))
    lab = np.array(base.best.assignment)
    r_hat = cost(inst, base.best, KCENTER)
    sets = oracle._sets_within(inst, obj, base)
    chunk = max(1, oracle.BLOCK_CELLS // inst.n**2)
    stars = _candidate_specs(inst, base.best, r_hat)
    shapes = list(islice(stars, budget))
    valid = [at for at, star in enumerate(shapes) if star is not None]
    for lo in range(0, len(valid), chunk):
        batch = valid[lo : lo + chunk]
        us, vss, caps = zip(*(shapes[at] for at in batch))
        sizes = list(map(len, vss))
        p = np.repeat(np.arange(len(batch)), sizes)
        v = np.fromiter(chain.from_iterable(vss), np.intp, len(p))
        closed = _closures(inst, caps, p, np.repeat(us, sizes), v)
        hit = oracle._first_alternative(closed, inst, obj, sets, lab)
        if hit is not None:
            i, alt = hit
            at = batch[i]  # the (lo + i)-th valid shape
            u, vs, cap = shapes[at]
            spec = PerturbationSpec(tuple((u, w) for w in vs), cap, mode)
            return FalsifierReport(NOT_RESILIENT, (spec, alt), at + 1, invalid=at - lo - i)
    # any shape left over, valid (a star) or not (None), means the budget cut
    exhausted = any(True for _ in stars)
    return FalsifierReport(RESILIENT_UNREFUTED, None, len(shapes), exhausted,
                           len(shapes) - len(valid))

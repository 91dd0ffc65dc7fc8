"""Shared instance builders for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from resilient_cluster import Instance


def line_instance(coords, k, z=0) -> Instance:
    dist = tuple(tuple(abs(a - b) for b in coords) for a in coords)
    return Instance(dist, k, z, symmetric=True)


def uniform_instance(n, k, value=1, z=0) -> Instance:
    dist = tuple(tuple(0 if u == v else value for v in range(n)) for u in range(n))
    return Instance(dist, k, z, symmetric=True)


def ring_union_instance(sizes, k, cross=10, scale=1) -> Instance:
    """Disjoint cycles with unit (scaled) edges; a constant large distance
    between cycles keeps the union metric."""
    offsets = []
    total = 0
    for s in sizes:
        offsets.append(total)
        total += s

    def d(u, v):
        for off, s in zip(offsets, sizes):
            if off <= u < off + s and off <= v < off + s:
                a = abs(u - v)
                return scale * min(a, s - a)
        return scale * cross

    dist = tuple(tuple(d(u, v) for v in range(total)) for u in range(total))
    return Instance(dist, k, 0, symmetric=True)


def _closure(mat):
    n = len(mat)
    d = [list(row) for row in mat]
    for w in range(n):
        for u in range(n):
            duw = d[u][w]
            for v in range(n):
                alt = duw + d[w][v]
                if alt < d[u][v]:
                    d[u][v] = alt
    return tuple(tuple(row) for row in d)


def random_metric_instance(rng: random.Random, n, k, z=0, high=60) -> Instance:
    raw = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            raw[u][v] = raw[v][u] = rng.randint(1, high)
    return Instance(_closure(raw), k, z, symmetric=True)


def unplanted_instance(seed, n, z=0) -> Instance:
    """A random metric with nothing planted: ``random.Random(seed)`` draws a
    weight in 1..1000 for each pair u < v in row-major order, the matrix is
    closed, and k = n // 10. The LP search decides it, on degenerate 0/1
    packing LPs."""
    return random_metric_instance(random.Random(seed), n, n // 10, z=z, high=1000)


def random_directed_metric_instance(rng: random.Random, n, k, z=0, high=60) -> Instance:
    raw = [[0 if u == v else rng.randint(1, high) for v in range(n)] for u in range(n)]
    return Instance(_closure(raw), k, z, symmetric=False)


def encoded_metric(rng, n, k, z, encoding, directed=False):
    """Closure of small random weights as ints, Fractions or floats; the
    small range leaves many ties, which float rounding may or may not break."""

    def weight():
        x = rng.randint(1, 12)
        if encoding == "fraction":
            return Fraction(x, rng.randint(1, 4))
        if encoding == "float":
            return x / 3 if rng.random() < 0.5 else rng.uniform(1, 12)
        return x

    raw = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(n):
            if u < v or (directed and u != v):
                raw[u][v] = weight()
                if not directed:
                    raw[v][u] = raw[u][v]
    return Instance(_closure(raw), k, z, symmetric=not directed)


def graph_metric_instance(seed, k) -> Instance:
    """d = 1 on the edges of a random graph G(n, p) and 2 elsewhere: always a
    metric, and heavy in LP ties. ``random.Random(seed)`` draws n, then p,
    then each pair u < v in row-major order."""
    rng = random.Random(seed)
    n = rng.choice([20, 30, 40, 50])
    p = rng.choice([0.1, 0.15, 0.2, 0.3])
    dist = [[0 if u == v else 2 for v in range(n)] for u in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                dist[u][v] = dist[v][u] = 1
    return Instance(dist, k, symmetric=True)


@pytest.fixture
def line4() -> Instance:
    return line_instance([0, 1, 10, 11], k=2)

"""Tests for instances, objectives, metric validation, cost, and Voronoi assignment."""

import math
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from resilient_cluster import (
    KCENTER,
    KMEANS,
    KMEDIAN,
    OUTLIER,
    Clustering,
    ClusteringInvalid,
    EmptyCenters,
    Instance,
    brute_force,
    cost,
    lp_norm,
    objective_by_name,
    solve_outlier_clustering,
    validate_metric,
    voronoi,
)
from resilient_cluster import cli, generator
from resilient_cluster.core import (
    FLOAT_TOL,
    MAX_EXPONENT,
    Objective,
    PositivityViolation,
    SymmetryViolation,
    TriangleViolation,
    _metric_matrix,
    integer_form,
    term_matrix,
)

import scalar_reference as reference
from conftest import (
    _closure,
    encoded_metric,
    graph_metric_instance,
    line_instance,
    random_metric_instance,
    uniform_instance,
)


def test_instance_parameter_validation():
    dist = ((0, 1), (1, 0))
    with pytest.raises(ValueError):
        Instance(dist, k=3)
    with pytest.raises(ValueError):
        Instance(dist, k=1, z=2)
    with pytest.raises(ValueError):
        Instance(dist, k=2, z=1)  # k + z > n
    with pytest.raises(ValueError):
        Instance(((0, 1),), k=1)  # not square


def test_exact_mode_detection():
    assert Instance(((0, 1), (1, 0)), k=1).exact
    assert Instance(((0, Fraction(1, 3)), (Fraction(1, 3), 0)), k=1).exact
    inst = Instance(((0, 0.5), (0.5, 0)), k=1)
    assert not inst.exact
    assert isinstance(inst.dist[0][1], float)


@pytest.mark.parametrize(
    "entry, exact",
    [
        (1, True),
        (Fraction(1, 3), True),
        (type("Small", (int,), {})(1), True),  # int and Fraction subclasses count
        (type("Ratio", (Fraction,), {})(1, 3), True),
        (True, False),  # bool does not
        (0.5, False),
        (np.int64(1), True),
        (np.int32(1), True),
        (np.True_, False),  # nor does numpy's
        (2**63, True),
        (Fraction(2, 1), True),
    ],
    ids=["int", "fraction", "int-subclass", "fraction-subclass", "bool", "float", "numpy-int64",
         "numpy-int32", "numpy-bool", "2**63", "fraction-2/1"],
)
def test_exactness_rule_on_entry_types(entry, exact):
    inst = Instance(((0, entry), (entry, 0)), k=1)
    assert inst.exact is exact
    if not exact:
        assert all(type(x) is float for row in inst.dist for x in row)
    assert inst.dist[0][1] == entry


def test_a_bool_on_the_diagonal_makes_an_int_matrix_float():
    inst = Instance(((False, 1, 2), (1, 0, 1), (2, 1, 0)), k=1)
    assert not inst.exact
    assert all(type(x) is float for row in inst.dist for x in row)
    assert inst._array.dtype == np.float64


def test_a_zero_one_heavy_int_matrix_stays_exact():
    # d = 1 on the edges of a random graph and 2 elsewhere: the typed read
    # looks at every entry valued 0 or 1 for a bool, and finds none
    inst = graph_metric_instance(44, 10)
    assert inst.n == 50
    assert inst.exact
    assert all(type(x) is int for row in inst.dist for x in row)
    assert inst._array.dtype == np.int64
    assert inst._array.tolist() == [list(row) for row in inst.dist]


def test_exactness_follows_entry_types_at_any_size():
    # 257 points: one more than the size cap that used to demote int
    # instances to float
    n = 257
    dist = tuple(tuple(0 if u == v else 1 for v in range(n)) for u in range(n))
    inst = Instance(dist, k=1)
    assert inst.exact
    assert all(type(x) is int for row in inst.dist for x in row)
    assert inst._array.dtype == np.int64


def test_validate_metric_uniform_ok():
    assert validate_metric(uniform_instance(3, 1)) == []


def test_validate_metric_triangle_violation():
    dist = ((0, 1, 5), (1, 0, 1), (5, 1, 0))
    inst = Instance(dist, k=1)
    assert validate_metric(inst) == [TriangleViolation(0, 1, 2)]


def test_an_off_diagonal_nan_is_a_violation_and_a_nan_optimum():
    """A NaN fails the positivity test; a solver handed it anyway names the
    NaN, not an overflow."""
    nan = math.nan
    inst = Instance([[0, nan, 1], [nan, 0, 1], [1, 1, 0]], 1)
    assert validate_metric(inst) == [PositivityViolation(0, 1), PositivityViolation(1, 0)]
    for obj in (KMEDIAN, KCENTER):
        for solve in (brute_force, solve_outlier_clustering):
            with pytest.raises(ValueError, match=f"^the {obj.name} optimum is NaN: "
                                                 "a distance is NaN$"):
                solve(inst, obj)


def test_validate_metric_symmetry_flag_contradiction():
    inst = Instance(((0, 1), (3, 0)), k=1, symmetric=True)
    assert validate_metric(inst) == [SymmetryViolation(0, 1)]
    # with the flag off the same matrix is a fine asymmetric metric
    assert validate_metric(Instance(((0, 1), (3, 0)), k=1, symmetric=False)) == []


Small = type("Small", (int,), {})
B61 = 2**61
ENTRIES = {
    "int": st.integers(-3, 3),
    "big-int": st.sampled_from([B61 - 1, -(B61 - 1), B61, -B61, 2**63, -(2**63), 2**64]),
    "int-subclass": st.integers(0, 3).map(Small),
    "bool": st.booleans(),
    "numpy-int": st.sampled_from([np.int32, np.int64]).flatmap(
        lambda t: st.integers(-3, 3).map(t)),
    "numpy-big-int": st.sampled_from([np.int64(B61), np.int64(-(B61 - 1)), np.int64(2**62)]),
    "numpy-bool": st.sampled_from([np.True_, np.False_]),
    "fraction": st.sampled_from([Fraction(2, 1), Fraction(1, 3), Fraction(-5, 2)]),
    "float": st.sampled_from([0.5, 1.0, 0.0, math.nan, math.inf, -math.inf]),
}
INT_ENTRIES = ["int", "big-int", "int-subclass", "bool"]


@settings(max_examples=400, deadline=None)
@given(data=st.data(), n=st.integers(1, 5), int_only=st.booleans())
def test_reading_rows_matches_the_scalar_reference(data, n, int_only):
    # each draw mixes at most three kinds, in half the draws only kinds whose
    # row sums are int, so int matrices with a bool, a big int or an int
    # subclass among them come up as often as matrices with other numbers
    pool = INT_ENTRIES if int_only else sorted(ENTRIES)
    kinds = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
    entry = st.sampled_from(kinds).flatmap(ENTRIES.__getitem__)
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    # a metric's diagonal of int zeros, or of bools, or as drawn
    diagonal = data.draw(st.sampled_from(["0", "False", "drawn"]), label="diagonal")
    if diagonal != "drawn":
        for u in range(n):
            rows[u][u] = 0 if diagonal == "0" else False
    _, want_exact, want_array = reference.read_rows(rows)
    got = Instance(tuple(map(tuple, rows)), k=1)
    # the view holds the stored array's Python numbers: an int subclass read
    # into int64 comes back as int
    want_view = want_array.tolist()
    assert [[type(x) for x in row] for row in got.dist] == [
        [type(x) for x in row] for row in want_view]
    # repr, not ==: NaN is unequal to itself
    assert repr(got.dist) == repr(tuple(map(tuple, want_view)))
    assert got.exact is want_exact
    assert got._array.dtype == want_array.dtype
    assert repr(got._array.tolist()) == repr(want_array.tolist())
    assert [type(x) for x in got._array.ravel().tolist()] == [
        type(x) for x in want_array.ravel().tolist()]


def test_numpy_integer_entries_are_stored_as_int():
    inst = Instance(((0, np.int64(3)), (np.int64(3), 0)), k=1)
    assert inst.exact
    assert all(type(x) is int for row in inst.dist for x in row)
    assert Instance(np.array([[0, 3], [3, 0]], dtype=np.uint64), k=1) == inst


def _entry(values, dtype):
    """A 3x3 array around the diagonal of zeros, the six given values off it."""
    A = np.zeros((3, 3), dtype=dtype)
    A[~np.eye(3, dtype=bool)] = values
    return A


ARRAYS = {
    "int64": _entry([1, 2, 3, 4, 5, 6], np.int64),
    "int64-below-2**61": _entry([B61 - 1, 1, -(B61 - 1), 2, B61 - 2, 3], np.int64),
    "int64-at-2**61": _entry([B61, 1, 2, 3, 4, 5], np.int64),
    "int64-at-minus-2**61": _entry([1, -B61, 2, 3, 4, 5], np.int64),
    "float64": _entry([0.5, 1 / 3, 2.0, 1e-300, 7.25, 3.0], np.float64),
    "float64-non-finite": _entry([np.nan, np.inf, -np.inf, 1.5, 2.0, np.nan], np.float64),
    "object": _entry([Fraction(1, 3), 2, Fraction(5, 2), 1, 2**70, 3], object),
    "bool": _entry([True, False, True, True, True, True], bool),
}


@pytest.mark.parametrize("name", ARRAYS)
@pytest.mark.parametrize("symmetric", [True, False])
def test_instance_from_an_array_equals_instance_from_its_rows(name, symmetric):
    A = ARRAYS[name].copy()
    got = Instance(A, k=1, symmetric=symmetric)
    want = Instance(A.tolist(), k=1, symmetric=symmetric)
    # repr, not ==: NaN is unequal to itself
    assert repr(got) == repr(want)
    assert [type(x) for row in got.dist for x in row] == [
        type(x) for row in want.dist for x in row]
    assert got.exact == want.exact
    assert got._array.dtype == want._array.dtype
    assert repr(got._array.tolist()) == repr(want._array.tolist())
    assert got.tol == want.tol
    if name != "float64-non-finite":
        assert got == want
    # the instance keeps its own copy of the array
    before = repr(got._array.tolist())
    A[0, 1] = A[0, 0]
    assert repr(got._array.tolist()) == before


def test_instance_from_an_array_checks_its_shape():
    for A in (np.zeros((0, 0), dtype=np.int64), np.zeros((2, 3)), np.zeros((3, 2), dtype=np.int64)):
        with pytest.raises(ValueError, match="square"):
            Instance(A, k=1)
    with pytest.raises(ValueError, match="k=3"):
        Instance(np.zeros((2, 2)), k=3)


def test_an_instance_from_an_int64_array_stores_the_matrix_once():
    # any square int64 matrix with a zero diagonal: Instance checks no metric
    n = 2048
    A = np.add.outer(np.arange(n), 3 * np.arange(n)) % 200 + 1
    np.fill_diagonal(A, 0)
    tracemalloc.start()
    try:
        inst = Instance(A, k=6)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 1.1 * A.nbytes
    # the view is built on the first read, and kept
    assert inst.dist == tuple(map(tuple, inst._array.tolist()))
    assert inst.dist is inst.dist


def test_equality_and_hash_compare_the_matrix_values():
    ints = Instance([[0, 3], [3, 0]], k=1)
    for same in (Instance([[0, Fraction(3)], [Fraction(3), 0]], k=1),
                 Instance([[0.0, 3.0], [3.0, 0.0]], k=1),
                 Instance(np.array([[0, 3], [3, 0]], dtype=np.uint64), k=1)):
        assert same == ints and hash(same) == hash(ints)
    for other in (Instance([[0, 3], [3, 0]], k=2), Instance([[0, 3], [3, 0]], k=1, z=1),
                  Instance([[0, 3], [3, 0]], k=1, symmetric=False), Instance([[0, 4], [3, 0]], k=1)):
        assert other != ints
    # values compare as Python numbers: 2**53 + 1 is not the float 2**53
    assert Instance([[0, 2**53 + 1], [1, 0]], k=1) != Instance([[0, 2.0**53], [1, 0]], k=1)
    # NaN is unequal to itself, but an instance holding one still hashes the same each time
    nan = Instance([[0.0, math.nan], [1.0, 0.0]], k=1)
    assert hash(nan) == hash(Instance(nan._array, k=1))


# ---------------------------------------------------------------------------
# validate_metric against the scalar reference

# offsets of the "big" encoding: every off-diagonal entry is B + a small
# weight, a metric for any B >= 60. validate_metric checks an int64 matrix in
# int16 while 2 * max|entry| < 2**15 and in int32 while it is < 2**31, so the
# offsets near 2**14 and 2**30 put draws on both sides of those bounds; from
# 2**61 on the instance's matrix holds Python ints, and from 2**63 on it
# cannot be int64 at all
BIG_OFFSETS = (2**14 - 100, 2**14 - 30, 2**14, 2**30 - 100, 2**30 - 30, 2**30,
               2**61 - 100, 2**61, 2**62 - 100, 2**62 - 30, 2**62, 2**63 - 100, 2**63,
               2**64 + 1)
DENOMINATORS = (1, 2, 3, 7, 12, 10**9 + 7, 2**31 - 1)


def _weight(rng, encoding, big):
    w = rng.randint(1, 60)
    if encoding == "fraction":
        return Fraction(w, rng.choice(DENOMINATORS))
    if encoding == "float":
        return w * 0.37
    if encoding == "big":
        return big + w
    return w


def _special_values(rng, encoding, D):
    """Entries that sit on or just past the edge of a check."""
    n = len(D)
    u, m, v = (rng.randrange(n) for _ in range(3))
    through = D[u][m] + D[m][v]
    x = D[rng.randrange(n)][rng.randrange(n)]
    if encoding == "float":
        return [
            0.0, FLOAT_TOL, -FLOAT_TOL, 2 * FLOAT_TOL, FLOAT_TOL / 2, -x,
            x + FLOAT_TOL, x + 2 * FLOAT_TOL, 3 * x,
            through + FLOAT_TOL, math.nextafter(through + FLOAT_TOL, math.inf),
            math.nan, math.inf, -math.inf,
        ]
    unit = Fraction(1, rng.choice(DENOMINATORS)) if encoding == "fraction" else 1
    return [0, -x, x + unit, 3 * x, through, through + unit, -unit]


def perturbed_metric(rng, n, encoding, directed):
    """A metric (closed under shortest paths) with a few entries then set to
    values from :func:`_special_values`, on or off the diagonal, sometimes on
    both sides of a pair."""
    big = rng.choice(BIG_OFFSETS)
    raw = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            raw[u][v] = _weight(rng, encoding, big)
            raw[v][u] = _weight(rng, encoding, big) if directed else raw[u][v]
    D = [list(row) for row in _closure(raw)]
    for _ in range(rng.choice((0, 0, 1, 2, 3))):
        u, v = rng.randrange(n), rng.randrange(n)
        D[u][v] = rng.choice(_special_values(rng, encoding, D))
        if rng.random() < 0.5:
            D[v][u] = D[u][v]
    return D


def same_as_reference(inst):
    want = reference.validate_metric(inst)
    assert validate_metric(inst) == want
    return want


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 9),
    encoding=st.sampled_from(("int", "fraction", "float", "big")),
    directed=st.booleans(),
    symmetric=st.booleans(),
)
def test_validate_metric_matches_scalar_reference(seed, n, encoding, directed, symmetric):
    rng = random.Random(seed)
    D = perturbed_metric(rng, n, encoding, directed)
    same_as_reference(Instance(D, k=1, symmetric=symmetric))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 9),
    encoding=st.sampled_from(("int", "fraction", "float", "big")),
    directed=st.booleans(),
)
def test_distinct_distances_match_the_sorted_set(seed, n, encoding, directed):
    rng = random.Random(seed)
    inst = Instance(perturbed_metric(rng, n, encoding, directed), k=1)
    entries = [x for row in inst.dist for x in row]
    # a NaN has no place in a sorted order
    assume(not any(x != x for x in entries))
    want = sorted(set(entries))
    assert [(type(x), x) for x in inst.distinct_distances()] == [(type(x), x) for x in want]


@pytest.mark.parametrize("encoding, n", [
    ("int", 64), ("fraction", 48), ("float", 48), ("float", 64), ("big", 48),
])
@pytest.mark.parametrize("symmetric", [True, False])
def test_validate_metric_matches_scalar_reference_at_larger_n(encoding, n, symmetric):
    rng = random.Random(n + len(encoding))
    for _ in range(2):
        D = perturbed_metric(rng, n, encoding, directed=not symmetric)
        same_as_reference(Instance(D, k=1, symmetric=symmetric))


@pytest.mark.parametrize("a", [2**62 - 1, 2**62, 2**62 + 1, 2**63 - 1])
def test_validate_metric_sums_do_not_wrap(a):
    # a directed metric whose two-hop sums reach 2**63 and more, where int64
    # would wrap to negative numbers and report false triangle violations
    dist = ((0, a, 5), (a - 3, 0, a), (5, a - 2, 0))
    inst = Instance(dist, k=1, symmetric=False)
    assert a + a >= 2**63 - 2
    assert same_as_reference(inst) == []
    # and a true violation on the same scale is still found
    dist = ((0, a, 2 * a + 1), (a - 3, 0, a), (5, a - 2, 0))
    assert same_as_reference(Instance(dist, k=1, symmetric=False)) == [
        TriangleViolation(0, 1, 2)
    ]


@pytest.mark.parametrize("a", [2**14 - 1, 2**14, 2**15 - 1, 2**30 - 1, 2**30, 2**31 - 1])
def test_validate_metric_sums_do_not_wrap_at_each_narrow_width(a):
    # largest entry a: the matrix is checked in int16 up to a = 2**14 - 1 and
    # in int32 up to 2**30 - 1, and its two-hop sums reach 2a, which a width
    # chosen by max|entry| alone would wrap
    dist = ((0, a, 5), (a - 3, 0, a), (5, a - 2, 0))
    assert same_as_reference(Instance(dist, k=1, symmetric=False)) == []
    # a true violation with the same largest entry, so in the same width:
    # d(0, 1) = a > d(0, 2) + d(2, 1) = a - 1
    dist = ((0, a, 5), (a - 3, 0, a), (5, a - 6, 0))
    assert same_as_reference(Instance(dist, k=1, symmetric=False)) == [
        TriangleViolation(0, 2, 1)
    ]
    # and a difference d(0, 1) - d(1, 0) = 2a under the symmetric flag
    assert SymmetryViolation(0, 1) in same_as_reference(Instance(((0, a), (-a, 0)), k=1))


def test_validate_metric_fractions_scaled_past_2_pow_62():
    # the LCM of the denominators is about 2**62, so the scaled entries need
    # Python ints
    p, q = 2**31 - 1, 2**31 + 11
    third = Fraction(1, p) + Fraction(1, q)
    dist = (
        (0, Fraction(1, p), 3, third),
        (Fraction(1, p), 0, 3, Fraction(1, q)),
        (3, 3, 0, 3),
        (third, Fraction(1, q), 3, 0),
    )
    inst = Instance(dist, k=1)
    assert _metric_matrix(inst).dtype == object
    assert same_as_reference(inst) == []
    rows = [list(r) for r in dist]
    rows[0][3] = rows[3][0] = third + Fraction(1, p * q)
    bad = Instance(rows, k=1)
    assert same_as_reference(bad) == [TriangleViolation(0, 1, 3)]


def test_validate_metric_small_fractions_stay_int64():
    inst = Instance(((0, Fraction(1, 3)), (Fraction(1, 3), 0)), k=1)
    assert _metric_matrix(inst).dtype == np.int64
    assert validate_metric(inst) == []


def _generator_dtype(r):
    """The dtype the generator builds its matrix in at k = 1, where the
    largest entry it bounds, pos[-1] + 2r, is 2r."""
    seen = []

    def record(D, *args, **kwargs):
        seen.append(D.dtype)
        return Instance(D, *args, **kwargs)

    with mock.patch.object(generator, "Instance", record):
        generator.generate(generator.GeneratorConfig(n=3, k=1, radius=r))
    return seen[0]


# every caller of integer_form: the dtype it gives at a top value, and the
# least top at which it gives Python ints
WIDTH_RULES = {
    # an instance's matrix, terms 2: every |entry| below 2**61
    "instance-rows": (lambda top: Instance(((0, top), (top, 0)), 1)._array.dtype, 2**61),
    "instance-array": (lambda top: Instance(np.array([[0, -top], [1, 0]]), 1)._array.dtype,
                       2**61),
    # validate_metric's matrix, terms 2 on the entries times the LCM 3
    "metric-matrix": (lambda top: _metric_matrix(
        Instance(((0, Fraction(top, 3)), (Fraction(top, 3), 0)), 1)).dtype, 2**61),
    # lp._basis_solution's rounded numerators d x or d y of three values,
    # terms 3 + 1
    "lp-numerators": (lambda top: integer_form([top, 1, 0], 4)[0].dtype, 2**60),
    # the LP checker's den * b and den * c, terms 2 on den * max|b|
    "lp-bounds": (lambda top: integer_form([1, 0], 2, top)[0].dtype, 2**61),
    # three coordinates a point, terms 3: 2 * 3 * max|x| below 2**63
    "cli-coordinates": (lambda top: cli._coordinates([[0, 0, top], [0, 1, 0]], False).dtype,
                        -(-(2**62) // 3)),
    # the generator, terms 1 on 2r: r below 2**61
    "generator": (_generator_dtype, 2**61),
}


@pytest.mark.parametrize("name", WIDTH_RULES)
def test_each_width_rule_switches_to_python_ints_at_its_bound(name):
    dtype_at, bound = WIDTH_RULES[name]
    assert dtype_at(bound - 1) == np.int64
    assert dtype_at(bound) == object


def test_objective_names_and_terms():
    assert objective_by_name("kcenter") is KCENTER
    assert objective_by_name("kmedian").exponent == 1
    assert objective_by_name("kmeans").term(3) == 9
    assert objective_by_name("lp:3").term(2) == 8
    assert lp_norm(Fraction(1, 2)).term(4.0) == pytest.approx(2.0)
    for bad in ("bogus", "lp:1/0", "lp:abc", "lp:-1"):
        with pytest.raises(ValueError):
            objective_by_name(bad)
    with pytest.raises(ValueError):
        lp_norm(0)


def test_exponent_past_the_bound_is_refused():
    assert lp_norm(MAX_EXPONENT).term(2) == 2**MAX_EXPONENT
    assert objective_by_name(f"lp:{2 * MAX_EXPONENT - 1}/2").exponent < MAX_EXPONENT
    for p in (MAX_EXPONENT + 1, Fraction(2 * MAX_EXPONENT + 1, 2), 10**999):
        with pytest.raises(ValueError, match=f"exponent must be at most {MAX_EXPONENT}$"):
            lp_norm(p)
    with pytest.raises(ValueError, match=f"exponent must be at most {MAX_EXPONENT}$"):
        objective_by_name("lp:1e999")


# ---------------------------------------------------------------------------
# term_matrix against the per-entry reference

TERM_OBJECTIVES = (KMEDIAN, KCENTER, KMEANS, lp_norm(2), lp_norm(3))


def counted(obj):
    """A copy of ``obj`` that records every call of its ``term``."""
    calls = []

    class Counted(Objective):
        def term(self, d):
            calls.append(d)
            return super().term(d)

    return Counted(obj.exponent, obj.aggregate, obj.name), calls


def two_level_metric(n, top):
    """A metric with every off-diagonal entry top or top - 1 (top >= 2), and
    top between points 0 and 1."""
    return Instance(tuple(tuple(0 if u == v else top - (u * v) % 2 for v in range(n))
                          for u in range(n)), k=1)


def same_terms_as_reference(inst, obj):
    """term_matrix equals the per-entry reference in dtype, flag, and every
    entry's value and type; returns the number of ``term`` calls it made."""
    probe, calls = counted(obj)
    E, exact = term_matrix(inst, probe)
    E_ref, exact_ref = reference.term_matrix(inst, obj)
    assert (E.dtype, exact) == (E_ref.dtype, exact_ref)
    assert [(type(x), x) for x in E.flat] == [(type(x), x) for x in E_ref.flat]
    return len(calls)


@pytest.mark.parametrize("obj", TERM_OBJECTIVES, ids=lambda o: o.name)
def test_term_matrix_int64_path_stops_just_below_2_pow_53(obj):
    e = int(obj.exponent)
    for n in (2, 5):
        top = round((2**53 / n) ** (1 / e))  # the largest top with n * top**e < 2**53
        while n * top**e >= 2**53:
            top -= 1
        while n * (top + 1) ** e < 2**53:
            top += 1
        below, above = two_level_metric(n, top), two_level_metric(n, top + 1)
        assert below._array.dtype == above._array.dtype == np.int64
        assert same_terms_as_reference(below, obj) == 0
        assert term_matrix(below, obj)[0].dtype == np.float64
        # n = 2 lands on 2**53 exactly for exponents 1 and 2
        assert same_terms_as_reference(above, obj) == 0
        assert term_matrix(above, obj)[0].dtype == object


@pytest.mark.parametrize("obj", TERM_OBJECTIVES + (lp_norm(Fraction(3, 2)),), ids=lambda o: o.name)
@pytest.mark.parametrize("encoding", ["int", "fraction", "float", "big"])
def test_term_matrix_matches_the_per_entry_reference(obj, encoding):
    rng = random.Random(7)
    big = rng.choice(BIG_OFFSETS)
    raw = [[0 if u == v else _weight(rng, encoding, big) for v in range(9)] for u in range(9)]
    raw = [[raw[min(u, v)][max(u, v)] for v in range(9)] for u in range(9)]
    inst = Instance(_closure(raw), k=1)
    calls = same_terms_as_reference(inst, obj)
    # only a fractional exponent computes terms one by one, one per distinct entry
    distinct = len(inst.distinct_distances())
    assert calls == (0 if Fraction(obj.exponent).denominator == 1 else distinct)


def test_cost_zero_when_every_point_is_a_center():
    inst = uniform_instance(4, 4)
    clus = voronoi(inst, (0, 1, 2, 3))
    for obj in (KCENTER, KMEDIAN, KMEANS):
        assert cost(inst, clus, obj) == 0
    # a float instance costs a float 0.0 under every aggregate
    floats = Instance([[0.0, 1.5], [1.5, 0.0]], k=2)
    for obj in (KCENTER, KMEDIAN, KMEANS):
        got = cost(floats, voronoi(floats, (0, 1)), obj)
        assert (got, type(got)) == (0.0, float)


def test_cost_line_examples(line4):
    clus = Clustering((0, 0, 1, 1), (0, 2))
    assert cost(line4, clus, KMEDIAN) == 2
    assert cost(line4, clus, KCENTER) == 1
    assert cost(line4, clus, KMEANS) == 2


def test_cost_rejects_foreign_clustering(line4):
    with pytest.raises(ClusteringInvalid):
        cost(line4, Clustering((0, 0, 0), (0,)), KMEDIAN)
    # outliers beyond the instance budget are rejected too
    clus = Clustering((0, OUTLIER, 1, 1), (0, 2))
    with pytest.raises(ClusteringInvalid):
        cost(line4, clus, KMEDIAN)


def test_clustering_invariants():
    with pytest.raises(ClusteringInvalid):
        Clustering((0, 0), (0, 0))  # duplicate centers
    with pytest.raises(ClusteringInvalid):
        Clustering((0, 1), (0,))  # missing cluster
    with pytest.raises(ClusteringInvalid):
        Clustering((OUTLIER, 0), (0,))  # center marked outlier
    clus = Clustering((0, 0, 1, OUTLIER), (0, 2))
    assert clus.outliers == {3}
    assert clus.clusters() == [[0, 1], [2]]
    assert clus.center_of(1) == 0


def test_partition_key_is_built_once_and_leaves_equality_alone():
    clus = Clustering((0, 0, 1, OUTLIER), (0, 2))
    key = clus.partition_key()
    assert key == (frozenset({frozenset({0, 1}), frozenset({2})}), frozenset({3}))
    assert clus.partition_key() is key
    # the cached key is no field: a fresh clustering still compares and hashes equal
    fresh = Clustering((0, 0, 1, OUTLIER), (0, 2))
    assert fresh == clus and hash(fresh) == hash(clus)
    assert Clustering((0, 0, 1, OUTLIER), (1, 2)).partition_key() == key


def test_voronoi_line(line4):
    clus = voronoi(line4, (1, 2))
    assert clus.assignment == (0, 0, 1, 1)


def test_voronoi_every_point_its_own_cluster():
    inst = uniform_instance(5, 5)
    clus = voronoi(inst, tuple(range(5)))
    assert clus.assignment == (0, 1, 2, 3, 4)


def test_voronoi_asymmetric_single_center():
    inst = Instance(((0, 1), (100, 0)), k=1, symmetric=False)
    clus = voronoi(inst, (0,))
    assert clus.assignment == (0, 0)
    assert cost(inst, clus, KCENTER) == 1


def test_voronoi_tie_break_lowest_center_index():
    inst = uniform_instance(4, 2)
    clus = voronoi(inst, (2, 1))
    # points 0 and 3 tie between both centers; first listed center wins
    assert clus.assignment == (0, 1, 0, 0)


def test_voronoi_input_validation(line4):
    with pytest.raises(EmptyCenters):
        voronoi(line4, ())
    with pytest.raises(ValueError):
        voronoi(line4, (0, 0))
    with pytest.raises(ValueError):
        voronoi(line4, (0, 9))
    with pytest.raises(ValueError):
        voronoi(line4, (0, 2), outliers={0})
    with pytest.raises(ValueError):
        voronoi(line4, (0, 2), outliers={9})


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 9),
    encoding=st.sampled_from(("int", "fraction", "float")),
    directed=st.booleans(),
    z=st.integers(0, 3),
)
def test_voronoi_matches_the_scalar_reference(seed, n, encoding, directed, z):
    # small weights leave many ties; centers in any order, so that the first
    # listed center, not the lowest point, must win them
    rng = random.Random(seed)
    inst = encoded_metric(rng, n, 1, 0, encoding, directed)
    centers = rng.sample(range(n), rng.randint(1, n))
    rest = [u for u in range(n) if u not in centers]
    outliers = rng.sample(rest, min(z, len(rest)))
    assert voronoi(inst, centers, outliers) == reference.voronoi(inst, centers, outliers)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_voronoi_is_cost_minimal_given_centers(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 8)
    k = rng.randint(1, n)
    inst = random_metric_instance(rng, n, k)
    centers = tuple(sorted(rng.sample(range(n), k)))
    base = voronoi(inst, centers)
    for obj in (KCENTER, KMEDIAN, KMEANS):
        best = cost(inst, base, obj)
        for _ in range(10):
            assignment = list(base.assignment)
            u = rng.randrange(n)
            if u in centers:
                continue
            assignment[u] = rng.randrange(k)
            alt = Clustering(tuple(assignment), centers)
            assert cost(inst, alt, obj) >= best


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_cost_monotone_under_added_center(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 8)
    inst = random_metric_instance(rng, n, rng.randint(1, n - 1))
    k = inst.k
    centers = tuple(sorted(rng.sample(range(n), k)))
    extra = next(u for u in range(n) if u not in centers)
    small = voronoi(inst, centers)
    big = voronoi(inst, centers + (extra,))
    for obj in (KCENTER, KMEDIAN, KMEANS):
        assert cost(inst, big, obj) <= cost(inst, small, obj)

"""Clustering instances, partitions, objectives, and the metric checks shared by every solver.

Points are abstract indices 0..n-1; geometry enters only through the distance
matrix. Instances are exact (int/Fraction entries) or floating; every solver in
the package keeps the instance's arithmetic so that integrality and optimality
verdicts are never a rounding artifact.

Exact numbers become integers over one common denominator, in int64 while the
caller's sums fit, in :func:`integer_form` alone; float costs are compared by
:func:`costs_agree`, within the relative tolerance :data:`FLOAT_TOL`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, repeat
from typing import Iterable, Sequence

import numpy as np

OUTLIER = -1

# the generator's instance families; named here, so that the command line
# lists them without importing the generator
SYMMETRIC = "symmetric"
ASYMMETRIC = "asymmetric"
OUTLIER_MODE = "outlier"
NON_RESILIENT = "non-resilient"
MODES = (SYMMETRIC, ASYMMETRIC, OUTLIER_MODE, NON_RESILIENT)

FLOAT_TOL = 1e-9


class ClusteringInvalid(ValueError):
    """A clustering is inconsistent with the instance it is applied to."""


class EmptyCenters(ValueError):
    """Voronoi assignment needs at least one center."""


class AsymmetricUnsupported(ValueError):
    """The operation is defined for symmetric instances only."""


class InternalCheckFailed(RuntimeError):
    """A solver's own consistency check failed: a bug, not bad input."""


# ---------------------------------------------------------------------------
# objectives


@dataclass(frozen=True)
class Objective:
    """Center-based objective: aggregate d(center, point)**exponent over non-outliers.

    ``aggregate`` is "sum" or "max"; k-means is the summed exponent-2 case (no
    square root), k-median exponent 1, k-center the max with exponent 1.
    """

    exponent: int | Fraction
    aggregate: str
    name: str

    def __post_init__(self):
        if self.aggregate not in ("sum", "max"):
            raise ValueError(f"unknown aggregate {self.aggregate!r}")
        if self.exponent <= 0:
            raise ValueError("exponent must be positive")

    def term(self, d):
        exp = self.exponent
        if type(exp) is not int:
            if not (isinstance(exp, Fraction) and exp.denominator == 1):
                return float(d) ** float(exp)
            exp = exp.numerator
        if exp > 1 and isinstance(d, float):
            # a float product, unlike libm's pow, scales exactly when d is
            # scaled by a power of two, so float costs do not depend on scale
            return math.prod(repeat(d, exp))
        return d**exp


KCENTER = Objective(1, "max", "kcenter")
KMEDIAN = Objective(1, "sum", "kmedian")
KMEANS = Objective(2, "sum", "kmeans")


def term_map(inst: Instance, obj: Objective) -> tuple:
    """(term, exact): ``term`` maps an array of the instance's distances to
    their objective terms, each equal to :meth:`Objective.term` of its entry,
    and ``exact`` says whether the terms are exact numbers.

    The dtype follows the instance. Under an integer exponent e, float64
    distances give float64 terms, the e-fold product ``Objective.term``
    forms; so do int64 distances with n * max|d|**e < 2**53, where every
    product, and every sum of n terms, is an exactly represented integer.
    Other int64 and object distances (big ints, Fractions) give Python powers
    in an object array. A fractional exponent calls ``Objective.term`` once
    per distinct entry, into float64. The result is always a new array.
    """
    D = inst._array
    e = obj.exponent
    if isinstance(e, Fraction) and e.denominator == 1:
        e = e.numerator
    if type(e) is not int:
        def per_value(x):  # Objective.term of each distinct value, looked up
            values, inverse = np.unique(x, return_inverse=True)
            terms = np.array(list(map(obj.term, values.tolist())), dtype=np.float64)
            return terms[inverse].reshape(x.shape)

        return per_value, False
    if D.dtype == np.float64 or (
            D.dtype == np.int64 and inst.n * max(int(D.max()), -int(D.min())) ** e < 2**53):
        # a term can pass the float range only if twice the largest |d|'s does
        loud = math.isinf(math.prod(repeat(2 * inst.tol / FLOAT_TOL, e)))

        def product(x):  # ((d * d) * d) ..., as Objective.term forms it
            x = x.astype(np.float64)
            if not loud:  # np.errstate costs more than a small product
                return reduce(np.multiply, repeat(x, e - 1), x)
            with np.errstate(over="ignore"):  # inf terms: finite_optimum reports them
                return reduce(np.multiply, repeat(x, e - 1), x)

        return product, inst.exact
    return lambda x: x.astype(object) ** e, True


def term_matrix(inst: Instance, obj: Objective) -> tuple:
    """(E, exact) with ``E[c, u] = obj.term(d(c, u))``, by :func:`term_map`."""
    term, exact = term_map(inst, obj)
    return term(inst._array), exact


def lp_norm(p) -> Objective:
    """Summed ell_p objective; lp_norm(1) == k-median, lp_norm(2) == k-means."""
    p = Fraction(p)
    if p <= 0:
        raise ValueError("p must be positive")
    return Objective(p, "sum", f"lp:{p}")


def finite_optimum(value, obj: Objective):
    """``value``, the optimum a solver found under ``obj``, when it is finite.
    An infinite one comes from float terms, or sums of them, past the float
    range; every clustering then costs inf, and that is a ValueError."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"every clustering's {obj.name} cost overflows a float")
    return value


def costs_agree(a, b, exact: bool) -> bool:
    """A solver's self-check of two costs: ``a == b`` when ``exact``, else the
    floats within :data:`FLOAT_TOL` of each other, relatively, at every scale."""
    return a == b if exact else math.isclose(float(a), float(b), rel_tol=FLOAT_TOL)


def bounded_fraction(text: str) -> Fraction:
    """``Fraction(text)``, a ValueError when ``text`` is no number ("1/0"
    included), and an OverflowError when its numerator or denominator has
    more digits than Python converts (``sys.get_int_max_str_digits()``, 0 is
    no limit). A decimal exponent e past that limit plus the text's length is
    cut to that bound plus one, so that no longer power of ten is built: the
    number is 0, or past the limit, as it would be whole. With its exponent's
    digits zeroed the text keeps the form Fraction checks."""
    limit = sys.get_int_max_str_digits()
    head, _, power = text.lower().partition("e")
    try:
        e = int(power or 0) if limit else 0  # if int fails, so does Fraction
        bound = limit + len(text) + 1
        if abs(e) < bound:
            v = Fraction(text)
        else:
            v = Fraction(head + "e" + "".join("0" if c.isdecimal() else c for c in power))
            v = v * 10**bound if e > 0 else v / 10**bound
    except ZeroDivisionError:
        raise ValueError(f"{text!r} divides by zero") from None
    m = max(abs(v.numerator), v.denominator)
    if 0 < limit and m.bit_length() > 3 * limit and m >= 10**limit:
        raise OverflowError(f"{text!r} has more than {limit} digits in its numerator "
                            "or denominator")
    return v


def objective_by_name(name: str) -> Objective:
    if name == "kcenter":
        return KCENTER
    if name == "kmedian":
        return KMEDIAN
    if name == "kmeans":
        return KMEANS
    if name.startswith("lp:"):
        try:
            p = bounded_fraction(name[3:])
        except ValueError:
            raise ValueError(f"lp:P must have a number P, got {name[3:]!r}") from None
        except OverflowError as e:
            raise ValueError(f"lp:P: {e}") from None
        return lp_norm(p)
    raise ValueError(f"unknown objective {name!r}")


# ---------------------------------------------------------------------------
# instances


def integer_form(values, terms: int, den: int | None = 1) -> tuple[np.ndarray, int]:
    """(N, den): exact numbers as integers N over one common denominator, N /
    den equal to ``values`` entry by entry. The one width rule: N is int64
    while terms * max|N| < 2**62, where ``terms`` is how many values one of
    the caller's sums adds, so that such a sum, and twice it, neither wraps
    nor rounds; otherwise N is an object array of the Python ints.

    With den 1, ``values`` are integers: an int64 array, returned as it is
    when it fits and tested by one min and one max, or a (nested) sequence of
    ints, whose shape N keeps. Otherwise ``values`` is a flat sequence of ints
    and Fractions put over ``den``, a multiple of every denominator, or when
    den is None over the LCM of their denominators."""
    if den != 1:
        if den is None:
            den = math.lcm(*{v.denominator for v in values})
        values = [v.numerator * (den // v.denominator) for v in values]
    bound = -(-(2**62) // terms)  # terms * max|N| < 2**62 iff max|N| < bound
    try:
        N = np.asarray(values, dtype=np.int64)
        if -bound < N.min(initial=0) and N.max(initial=0) < bound:
            return N, den
    except OverflowError:  # an entry past int64
        pass
    return np.array(values, dtype=object), den


def _int_rows_array(rows: tuple, n: int):
    """The int64 array :func:`integer_form` makes of ``rows`` at terms 2, read
    in one typed pass, when every entry is an ``int`` (subclasses included)
    but not a ``bool``; None when the entries must be scanned instead.

    A row sum is ``int`` only when the row holds ints and bools: a numpy
    scalar, ``Fraction`` or float entry makes it another type, and a string
    makes ``sum`` raise. An entry outside int64 makes the int64 read raise,
    and a bool, valued 0 or 1, is looked for among those entries alone.
    """
    try:
        # numpy scalars may overflow in the sums; their type is all that
        # counts, and the first row whose sum is no int ends the scan
        with np.errstate(all="ignore"):
            if not all(type(sum(row)) is int for row in rows):
                return None
        A = np.fromiter(chain.from_iterable(rows), np.int64, n * n).reshape(n, n)
    except (TypeError, ArithmeticError):
        return None
    if any(type(rows[i // n][i % n]) is bool
           for i in np.flatnonzero((A == 0) | (A == 1)).tolist()):
        return None
    return A if integer_form(A, 2)[0].dtype == np.int64 else None


def relative_tol(A: np.ndarray) -> float:
    """:data:`FLOAT_TOL` times the largest finite |entry| of a float array
    (NaN and ±inf do not set the scale), so that a comparison with it gives
    the same answer when every entry is multiplied by a power of two."""
    A = np.abs(A)
    return FLOAT_TOL * float(A.max(where=np.isfinite(A), initial=0.0))


@dataclass(frozen=True, init=False, eq=False)
class Instance:
    """A clustering instance: distance matrix plus the parameters k and z.

    The matrix must satisfy the triangle inequality (and symmetry when the
    ``symmetric`` flag is set); use :func:`validate_metric` to check. ``z`` is
    the outlier budget, 0 for plain problems.

    The matrix, any square sequence of rows or a numpy array, is stored once,
    as ``_array``, the one numpy array the solvers read: float64 for float
    instances, and for exact ones int64 or object by :func:`integer_form`'s
    width rule at terms 2. ``dist`` is a view of it, built on first read. The
    input is read one of three ways:

    - An int64 or float64 numpy array is taken as it is: ``exact`` follows
      the dtype, and ``_array`` is a copy.
    - Rows whose sums are all ``int`` hold ints and perhaps bools. They are
      read in one typed pass by :func:`_int_rows_array`, which looks at no
      entry's type but those valued 0 or 1.
    - Everything else (numpy scalars, Fractions, floats, strings, a bool or
      an int of size 2**61 or more among int rows, and object, bool and other
      numpy arrays) has its entries' types scanned: numpy integers become
      ``int``, and a matrix with any inexact entry becomes all ``float``.

    Two instances are equal, and hash alike, when k, z, ``symmetric`` and the
    matrix's values are equal, whatever the number types that hold them.
    """

    k: int
    z: int
    symmetric: bool
    exact: bool

    def __init__(self, dist, k: int, z: int = 0, symmetric: bool = True):
        native = (isinstance(dist, np.ndarray) and dist.ndim == 2
                  and dist.dtype in (np.int64, np.float64))
        rows = dist if native else tuple([tuple(row) for row in dist])
        n = len(rows)
        if n == 0 or (rows.shape[1] != n if native else any(len(row) != n for row in rows)):
            raise ValueError("dist must be a nonempty square matrix")
        if not 1 <= k <= n:
            raise ValueError(f"k={k} out of range for n={n}")
        if not 0 <= z < n:
            raise ValueError(f"z={z} out of range for n={n}")
        if k + z > n:
            raise ValueError("k + z must not exceed n")
        if native:
            exact = dist.dtype == np.int64
            array = integer_form(dist.copy(), 2)[0] if exact else dist.copy()
        elif (array := _int_rows_array(rows, n)) is not None:
            exact = True
        else:
            kinds = set(map(type, chain.from_iterable(rows)))
            if any(issubclass(t, np.integer) for t in kinds):
                # numpy integers are exact but not int: store them as int
                rows = [[int(x) if isinstance(x, np.integer) else x for x in row] for row in rows]
                kinds = {int if issubclass(t, np.integer) else t for t in kinds}
            # int and Fraction (subclasses too) are exact numbers, bool is not
            exact = all(issubclass(t, (int, Fraction)) and not issubclass(t, bool) for t in kinds)
            if not exact and kinds != {float}:
                rows = [list(map(float, row)) for row in rows]
            if exact and not any(issubclass(t, Fraction) for t in kinds):
                array = integer_form(rows, 2)[0]
            else:  # Fractions are kept as they are
                array = np.array(rows, dtype=object if exact else np.float64)
        self.__dict__.update(k=k, z=z, symmetric=symmetric, exact=exact, _array=array)

    @cached_property
    def dist(self) -> tuple:
        """The matrix as a tuple of rows of Python numbers, those of
        ``_array.tolist()``: built on first read and kept, O(n²) memory that
        no solver reads."""
        return tuple(map(tuple, self._array.tolist()))

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        A, B = self._array, other._array
        if A.dtype != B.dtype:  # as Python numbers, not in float64 as numpy would
            A, B = A.astype(object), B.astype(object)
        return ((self.k, self.z, self.symmetric) == (other.k, other.z, other.symmetric)
                and np.array_equal(A, B))

    def __hash__(self):
        A = self._array
        if A.dtype == np.float64:  # Python hashes a NaN by identity: hash it as inf
            A = np.where(np.isnan(A), np.inf, A)
        return hash((self.k, self.z, self.symmetric, *A.ravel().tolist()))

    @property
    def n(self) -> int:
        return len(self._array)

    @property
    def points(self) -> range:
        return range(len(self._array))

    @cached_property
    def tol(self):
        """The one distance tolerance: 0 on exact instances, and on float ones
        :data:`FLOAT_TOL` times the largest finite |entry|, so that a
        comparison with it gives the same answer at every scale."""
        return 0 if self.exact else relative_tol(self._array)

    def distinct_distances(self) -> list:
        D = self._array
        if D.dtype == object:
            return sorted(set(D.ravel().tolist()))
        # sort and drop repeats: faster than a set, and than np.unique
        values = np.sort(D, axis=None)
        keep = np.ones(len(values), dtype=bool)
        np.not_equal(values[1:], values[:-1], out=keep[1:])
        return values[keep].tolist()

    def replace(self, **kwargs) -> "Instance":
        return Instance(**{"dist": self._array, "k": self.k, "z": self.z,
                           "symmetric": self.symmetric, **kwargs})


# ---------------------------------------------------------------------------
# clusterings


@dataclass(frozen=True)
class Clustering:
    """A partition into k clusters with designated centers plus an outlier set.

    ``assignment[u]`` is the cluster index of point u, or :data:`OUTLIER`;
    ``centers[i]`` belongs to cluster i, so every cluster is nonempty and no
    center is an outlier.
    """

    assignment: tuple
    centers: tuple

    def __post_init__(self):
        assignment = tuple(self.assignment)
        centers = tuple(self.centers)
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "centers", centers)
        n, k = len(assignment), len(centers)
        if k == 0:
            raise ClusteringInvalid("no centers")
        if len(set(centers)) != k:
            raise ClusteringInvalid("duplicate centers")
        for g in assignment:
            if g != OUTLIER and not 0 <= g < k:
                raise ClusteringInvalid(f"assignment references missing cluster {g}")
        for i, c in enumerate(centers):
            if not 0 <= c < n:
                raise ClusteringInvalid(f"center {c} is not a point")
            if assignment[c] != i:
                raise ClusteringInvalid(f"center {c} is not in its own cluster {i}")

    @property
    def n(self) -> int:
        return len(self.assignment)

    @property
    def k(self) -> int:
        return len(self.centers)

    @property
    def outliers(self) -> frozenset:
        return frozenset(u for u, g in enumerate(self.assignment) if g == OUTLIER)

    @property
    def outlier_count(self) -> int:
        return sum(1 for g in self.assignment if g == OUTLIER)

    def clusters(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in self.centers]
        for u, g in enumerate(self.assignment):
            if g != OUTLIER:
                out[g].append(u)
        return out

    def center_of(self, u: int) -> int:
        g = self.assignment[u]
        if g == OUTLIER:
            raise ClusteringInvalid(f"point {u} is an outlier")
        return self.centers[g]

    def partition_key(self):
        """Canonical identity of the solution: the partition plus the outlier set.

        Center choices that induce the same partition compare equal. The key
        is built once per clustering.
        """
        # cached by hand: a cached_property on this class raised the peak RSS
        # of bench/run.py's outlier-dp runs, which build no key, by ~1.5 MB
        key = self.__dict__.get("_partition_key")
        if key is None:
            key = (
                frozenset(frozenset(members) for members in self.clusters()),
                self.outliers,
            )
            object.__setattr__(self, "_partition_key", key)
        return key


# ---------------------------------------------------------------------------
# metric validation


@dataclass(frozen=True)
class Violation:
    pass


@dataclass(frozen=True)
class DiagonalViolation(Violation):
    point: int


@dataclass(frozen=True)
class PositivityViolation(Violation):
    u: int
    v: int


@dataclass(frozen=True)
class SymmetryViolation(Violation):
    u: int
    v: int


@dataclass(frozen=True)
class TriangleViolation(Violation):
    u: int
    mid: int
    v: int


def _metric_matrix(inst: Instance) -> np.ndarray:
    """The matrix :func:`validate_metric` compares, in an order-preserving
    number form where ``a + b`` neither rounds nor wraps.

    Float and int64 instances give their own array. Other exact instances
    give their :func:`integer_form` over the LCM of all denominators, which
    is exact, positive, and keeps every comparison of sums the same, at
    terms 2, as an instance is stored.
    """
    D = inst._array
    if D.dtype != object:
        return D
    return integer_form(D.ravel().tolist(), 2, None)[0].reshape(D.shape)


def validate_metric(inst: Instance) -> list[Violation]:
    """Return every invariant violation of the distance matrix (empty list if valid).

    Violations are data, not errors: d(u,u) != 0, nonpositive off-diagonal
    entries, symmetry-flag contradictions, and triangle-inequality failures
    d(u,v) > d(u,mid) + d(mid,v). They come in that order: diagonal and
    positivity row by row, then symmetry pairs u < v, then triangles by mid,
    u, v; a symmetric instance reports each violated triple once, with u <= v.

    Exact instances are checked on integers, with no tolerance: ``Fraction``
    entries are scaled by the LCM of their denominators first, which changes
    no verdict (see :func:`_metric_matrix`). Float instances are checked with
    the instance's tolerance ``tol``, :data:`FLOAT_TOL` times the largest
    finite |entry|, so scaling every distance scales the test with it: a
    diagonal entry must lie in [-tol, tol], an off-diagonal one above tol,
    the two sides of a symmetric pair within tol, and d(u,v) at most
    d(u,mid) + d(mid,v) + tol. Each comparison is written as that sentence
    says, so a NaN entry fails the diagonal test and passes the others, as
    in scalar Python.
    """
    D = _metric_matrix(inst)
    n = len(D)
    tol = inst.tol
    out: list[Violation] = []
    with np.errstate(invalid="ignore", over="ignore"):
        diag = D.diagonal()
        bad_diag = ~((-tol <= diag) & (diag <= tol))
        bad_pos = D <= tol
        np.fill_diagonal(bad_pos, False)
        for u in np.flatnonzero(bad_diag | bad_pos.any(axis=1)).tolist():
            if bad_diag[u]:
                out.append(DiagonalViolation(u))
            out.extend(PositivityViolation(u, v) for v in np.flatnonzero(bad_pos[u]).tolist())
        if inst.symmetric:
            bad_sym = np.triu(abs(D - D.T) > tol, 1)
            out.extend(SymmetryViolation(u, v) for u, v in np.argwhere(bad_sym).tolist())
        buf = np.empty_like(D)
        bad = np.empty(D.shape, dtype=bool)
        for mid in range(n):
            np.add(D[:, mid : mid + 1], D[mid : mid + 1, :], out=buf)
            if tol:
                buf += tol
            np.greater(D, buf, out=bad)
            if bad.any():
                out.extend(
                    TriangleViolation(u, mid, v)
                    for u, v in np.argwhere(bad).tolist()
                    if u <= v or not inst.symmetric
                )
    return out


def _shortest_paths(E: np.ndarray) -> None:
    """Floyd-Warshall closure of ``E`` in place, one numpy step per midpoint:
    of one ``(n, n)`` matrix, or of every matrix of a ``(..., n, n)`` stack.

    Exact: row w and column w do not change during step w (the diagonal is
    zero), so each step equals the scalar loop over (u, v) with the same
    additions and comparisons; on a tie the entry already in ``E`` is kept.
    The operations are elementwise, so every matrix of a stack gets the
    closure it would get alone, bit for bit.
    """
    for w in range(E.shape[-1]):
        np.minimum(E, E[..., :, w : w + 1] + E[..., w : w + 1, :], out=E)


# ---------------------------------------------------------------------------
# cost and Voronoi assignment


def _check_compatible(inst: Instance, clus: Clustering) -> None:
    if clus.n != inst.n:
        raise ClusteringInvalid(f"clustering over {clus.n} points, instance has {inst.n}")
    if clus.outlier_count > inst.z:
        raise ClusteringInvalid(f"{clus.outlier_count} outliers exceed the budget z={inst.z}")


def cost(inst: Instance, clus: Clustering, obj: Objective):
    """Objective value of a clustering; distances run center-to-point."""
    _check_compatible(inst, clus)
    assign = np.array(clus.assignment)
    idx = np.flatnonzero(assign != OUTLIER)
    kept = inst._array[np.array(clus.centers)[assign[idx]], idx].tolist()
    if obj.aggregate == "max":
        if Fraction(obj.exponent).denominator == 1:
            # an integer power never decreases with the distance: map the largest alone
            return obj.term(max(kept))
        # the first largest, as a scan with a strict ``>`` keeps it
        return max(map(obj.term, kept))
    total = 0
    for t in map(obj.term, kept):
        total += t
    return total


def completed_centers(inst: Instance, centers: Iterable[int]) -> list[int]:
    """At most k ``centers`` completed to k: each given center once, in
    first-seen order, then the lowest-index other points."""
    chosen = dict.fromkeys(centers)
    for u in range(inst.n):
        if len(chosen) >= inst.k:
            break
        chosen.setdefault(u)
    return list(chosen)


def voronoi(inst: Instance, centers: Sequence[int], outliers: Iterable[int] = ()) -> Clustering:
    """Assign every non-outlier to its nearest center (ties: lowest center index).

    Nearness is measured center-to-point, which is what makes the asymmetric
    case well defined.
    """
    centers = tuple(centers)
    if not centers:
        raise EmptyCenters("at least one center required")
    outset = frozenset(outliers)
    if len(set(centers)) != len(centers):
        raise ValueError("centers must be distinct")
    for c in centers:
        if not 0 <= c < inst.n:
            raise ValueError(f"center {c} is not a point")
        if c in outset:
            raise ValueError(f"center {c} marked as outlier")
    # argmin takes the first minimum of each column: the first listed center
    assignment = inst._array[list(centers)].argmin(axis=0).tolist()
    for u in outset:
        if not 0 <= u < inst.n:
            raise ValueError(f"outlier {u} is not a point")
        assignment[u] = OUTLIER
    return Clustering(tuple(assignment), centers)

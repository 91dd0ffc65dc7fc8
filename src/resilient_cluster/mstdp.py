"""Exact outlier clustering for tree-structured optima.

Pipeline: minimum spanning tree, transform into a binary tree with
zero-distance dummy vertices, then a subtree-partition dynamic program over
states (node, clusters used, outliers spent, center of the node's cluster).
On 2-perturbation-resilient outlier instances the optimal clusters are MST
subtrees, so the DP recovers the exact optimum; on arbitrary input it returns
the best subtree-structured solution, which may be suboptimal.

All tables live in one numpy array of shape ``[k+1, z+1, nodes, n_real+1]``
(clusters, outliers, node, center; the last center slot means "the node is an
outlier"), filled by elementwise operations over stacked (node, center)
blocks.

One split rule serves both passes. A child's *side* holds, for each center
c, the cheaper of the child joining c's cluster and the child closing a
cluster of its own, and counts only the clusters other than the node's, so
every split of a real-center state's j clusters has j = i_left + i_right + 1
(the node's own cluster is the + 1); in the outlier slot, where there is no
cluster to join, the side is the child's minimum. The forward pass fills a
node's states with one (min, +) convolution over (clusters, outliers) of its
children's sides -- (min, max) for k-center -- read at j - 1 for the real
centers and at j for the outlier slot. It fills the tree one level (nodes of
one height) at a time, in batches of at most :data:`BATCH_CELLS` cells per
stacked operand, so a pass makes a few numpy calls per batch rather than
per node, and the batch's temporaries stay a fixed size. A missing child
is a phantom node that costs 0 with nothing in it, so leaves and one-child
nodes take the same rule. Reconstruction keeps no backpointers: it walks
down from the best root state and, at each state it visits, recomputes that
state's sides at its one center and takes the first split, in (left
clusters, left outliers) order, that attains the minimum. Ties: a child
joins the node's cluster whenever joining attains its side; otherwise it
closes its own cluster in the state its minimum took, the outlier slot
first, then the lowest center.

The table dtype is that of the objective's term matrix (:func:`core.term_map`):
float64 for float terms, and for integer terms whose n-fold sum stays below
2**53 (every entry is then an exactly represented integer); otherwise an
object array of exact Python numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    OUTLIER,
    AsymmetricUnsupported,
    Clustering,
    Instance,
    InternalCheckFailed,
    Objective,
    cost,
    costs_agree,
    finite_optimum,
    term_matrix,
)

INF = math.inf
# cells of one stacked [clusters, outliers, nodes, centers] operand of the
# forward pass: a tree level is filled in chunks of at most this many, so the
# pass's temporaries stay within a few such operands (whole levels took 10 MB
# more at n=128, k=4, z=3)
BATCH_CELLS = 1 << 14


class Infeasible(RuntimeError):
    """No partition with exactly k clusters exists within the outlier budget."""


@dataclass(frozen=True)
class BinaryTree:
    """MST reshaped so every node has at most two children.

    Nodes 0..n_real-1 are the original points; ids >= n_real are dummy vertices
    at distance 0 from everything. Contracting the dummies recovers the input
    tree. Dummies may sit inside clusters but are never centers and never count
    as outliers.
    """

    root: int
    parent: tuple
    left: tuple
    right: tuple
    is_dummy: tuple
    n_real: int

    @property
    def size(self) -> int:
        return len(self.parent)

    def children(self, u: int) -> list[int]:
        out = []
        if self.left[u] >= 0:
            out.append(self.left[u])
        if self.right[u] >= 0:
            out.append(self.right[u])
        return out

    def contracted_edges(self) -> frozenset:
        """Edges between real nodes after removing the dummy vertices."""
        out = set()
        for u in range(self.n_real):
            if u == self.root:
                continue
            p = self.parent[u]
            while p >= self.n_real:
                p = self.parent[p]
            out.add((min(u, p), max(u, p)))
        return frozenset(out)


def build_mst(inst: Instance) -> tuple:
    """Minimum spanning tree edge list (Kruskal, lexicographic tie-breaking).

    Pairs u < v are taken in (d(u, v), u, v) order, sorted by one numpy
    ``lexsort`` of the upper triangle; edges come out in the order Kruskal
    accepts them.
    """
    if not inst.symmetric:
        raise AsymmetricUnsupported("spanning trees need a symmetric instance")
    n = inst.n
    us, vs = np.triu_indices(n, 1)
    order = np.lexsort((vs, us, inst._array[us, vs]))
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    out = []
    for u, v in zip(us[order].tolist(), vs[order].tolist()):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            out.append((u, v))
            if len(out) == n - 1:
                break
    return tuple(out)


def binarize(tree, inst: Instance) -> BinaryTree:
    """Rooted binary version of a spanning tree (root = lowest index).

    Children are listed in ascending order. From the highest-index node down,
    while a node has more than two children, its two smallest are moved under
    a dummy vertex with the next free id, which joins the end of the node's
    list; so there are sum(max(0, c_u - 2)) dummies for c_u children of u.
    """
    n = inst.n
    adj = [[] for _ in range(n)]
    for u, v in tree:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) references a missing point")
        adj[u].append(v)
        adj[v].append(u)
    children = [[] for _ in range(n)]
    seen = [True] + [False] * (n - 1)
    order = [0]
    for u in order:
        for v in sorted(adj[u]):
            if not seen[v]:
                seen[v] = True
                children[u].append(v)
                order.append(v)
    if len(order) != n:
        raise ValueError("input edges do not form a spanning tree")
    for u in reversed(range(n)):
        kids = children[u]
        while len(kids) > 2:
            children.append(kids[:2])
            del kids[:2]
            kids.append(len(children) - 1)
    parent = [-1] * len(children)
    for u, kids in enumerate(children):
        for v in kids:
            parent[v] = u
    left = tuple(kids[0] if kids else -1 for kids in children)
    right = tuple(kids[1] if len(kids) == 2 else -1 for kids in children)
    is_dummy = tuple(u >= n for u in range(len(children)))
    return BinaryTree(0, tuple(parent), left, right, is_dummy, n)


def _conv(a, b, combine):
    """(min, combine) convolution over the (clusters, outliers) axes.

    ``a`` and ``b`` are stacked ``[K, T, nodes, centers]`` operands.
    out[j, t] = min of combine(a[ja, ta], b[jb, tb]) over ja + jb = j and
    ta + tb = t, elementwise over the trailing (nodes, centers) block. The
    loop runs over the (ja, ta) cells that are finite for some entry of the
    operand with fewer such cells.
    """
    K, T = a.shape[:2]
    out = np.full(a.shape, INF, dtype=a.dtype)
    live_a, live_b = (a < INF).any(axis=(2, 3)), (b < INF).any(axis=(2, 3))
    if live_b.sum() < live_a.sum():
        a, b, live_a = b, a, live_b
    for ja, ta in zip(*np.nonzero(live_a)):
        cell = combine(a[ja, ta], b[: K - ja, : T - ta])
        np.minimum(out[ja:, ta:], cell, out=out[ja:, ta:])
    return out


def _side(tab_w: np.ndarray, M_w: np.ndarray, inside_w: np.ndarray) -> np.ndarray:
    """A child w's best cost under each center slot c of its parent.

    For a real center c, ``side[i, t, ..., c]`` is the minimum cost of w's
    subtree with i clusters other than the parent's and t outliers: w joins
    c's cluster (``tab_w[i + 1, t, ..., c]``) or closes its own below the
    parent (``M_w[i, t]``, allowed only when c is not in w's subtree). The
    last row has no joined option, as ``tab_w`` has no row K. In the last
    center column, the parent's outlier slot, there is no cluster to join,
    and ``inside_w`` is False there, so the side is ``M_w``. The forward pass
    passes whole tables, stacked over a node axis before the center axis;
    reconstruction passes one node's columns c and c + 1 (only column c when
    c is the outlier slot) and reads column 0. The side is the only operand
    of a split in both passes.
    """
    side = np.where(inside_w, INF, M_w)
    np.minimum(side[:-1, ..., :-1], tab_w[1:, ..., :-1], out=side[:-1, ..., :-1])
    return side


def _forward(btree: BinaryTree, base, K: int, T: int, combine, dtype) -> tuple:
    """Fill every node's table bottom-up, one tree level at a time.

    Returns ``(tab, M, inside)``: ``tab[:, :, u]`` is node u's ``[K, T,
    n_real + 1]`` table, ``M[:, :, u]`` its ``[K, T, 1]`` minimum over the
    centers in u's subtree and the outlier slot, and ``inside[u, c]`` whether
    the center slot c is a real point of u's subtree (never the outlier slot
    ``c = n_real``). ``base(u)[c]`` is u's own term under center c.

    A node's height is 0 for a leaf and one more than its highest child's, so
    the nodes of one height read only tables already filled; they are filled
    together, in chunks of at most :data:`BATCH_CELLS` cells per stacked
    operand. A missing child is the phantom node: its minimum is 0 at 0
    clusters and 0 outliers and inf elsewhere, its table all inf and its
    subtree empty. Costs are never negative, so combining with it leaves every
    value as it is, and leaves and one-child nodes take the two-child rule
    unchanged.
    """
    n_real, size = btree.n_real, btree.size
    OUT, PHANTOM = n_real, size
    tab = np.full((K, T, size + 1, n_real + 1), INF, dtype=dtype)
    M = np.full((K, T, size + 1, 1), INF, dtype=dtype)
    M[0, 0, PHANTOM] = 0
    inside = np.zeros((size + 1, n_real + 1), dtype=bool)

    left = [PHANTOM if w < 0 else w for w in btree.left]
    right = [PHANTOM if w < 0 else w for w in btree.right]
    order = [btree.root]
    for u in order:
        order.extend(btree.children(u))
    height = [-1] * (size + 1)
    for u in reversed(order):
        height[u] = 1 + max(height[left[u]], height[right[u]])
    levels: list[list[int]] = [[] for _ in range(height[btree.root] + 1)]
    for u in range(size):
        levels[height[u]].append(u)

    left, right = np.array(left), np.array(right)

    def fill(U: np.ndarray) -> None:
        """Fill the nodes U, whose children are filled. A function of its
        own, so one batch's operands are freed before the next batch's."""
        B = len(U)
        real = U < n_real
        kids = np.concatenate([left[U], right[U]])
        sides = _side(tab[:, :, kids], M[:, :, kids], inside[kids])
        best = _conv(sides[:, :, :B], sides[:, :, B:], combine)
        cur = np.full(best.shape, INF, dtype=dtype)
        # u's cluster plus i_l + i_r others: j = i_l + i_r + 1
        combine(np.stack([base(u) for u in U]), best[:-1, :, :, :OUT], out=cur[1:, :, :, :OUT])
        # u as an outlier: both children close their own clusters, and a real
        # u spends one outlier
        cur[:, 1:, real, OUT] = best[:, :-1, real, OUT]
        cur[:, :, ~real, OUT] = best[:, :, ~real, OUT]
        mask = inside[kids[:B]] | inside[kids[B:]]
        mask[real, U[real]] = True
        tab[:, :, U] = cur
        inside[U] = mask
        mask[:, OUT] = True
        M[:, :, U] = np.min(cur, axis=3, where=mask, initial=INF, keepdims=True)

    chunk = max(1, BATCH_CELLS // (K * T * (n_real + 1)))
    for level in levels:
        for lo in range(0, len(level), chunk):
            fill(np.array(level[lo : lo + chunk]))
    return tab[:, :, :size], M[:, :, :size], inside[:size]


def solve_btp(inst: Instance, btree: BinaryTree, obj: Objective) -> Clustering:
    """Fill the partition DP bottom-up and reconstruct the best clustering.

    ``tab[j, t, u, c]`` is the minimum cost of the subtree of ``u`` with j
    clusters touched and t real outliers, where ``u``'s own cluster is
    centered at the real point c (possibly outside the subtree) or, in the
    last slot ``c = n_real``, ``u`` is an outlier. All tables are one array
    of shape ``[k+1, z+1, nodes, n_real+1]``; with (j, t) fixed every
    transition is elementwise over the stacked (node, c) block of a batch
    (:func:`_forward`: the nodes of one tree level, at most
    :data:`BATCH_CELLS` cells per operand).

    Each child w is first reduced to its side (:func:`_side`): for every i, t
    and real c, the cheaper of w joining c's cluster and w closing a cluster
    of its own, counted in i clusters other than u's; in the outlier slot,
    w's minimum ``M``, as both children close their own clusters there.
    Every way to split a real-center state then has j = i_l + i_r + 1, so
    ``tab[j, t, u, c]`` is u's own term combined with the (min, combine)
    convolution of the two sides at i_l + i_r = j - 1; the outlier slot is
    the same convolution at i_l + i_r = j, at t - 1 outliers when u is real
    (u is the t-th). A missing child is a phantom whose side is 0 at (0, 0)
    and inf elsewhere. That is the minimum over every join/separate choice of
    the children: min distributes over ``+`` (float rounding is monotone)
    and over ``max``, and ``inf`` absorbs under both.

    The table dtype is the term matrix's, which :func:`core.term_map` picks
    once for the instance. Integer terms with n * max term < 2**53 are
    float64: every entry is then a sum of at most n such integers, so float64
    holds it exactly and ``inf`` marks infeasible states natively. Float
    terms (float distances, or a fractional exponent) are float64 too; other
    exact terms use an object array of Python numbers, through the same code.

    Reconstruction uses the same split rule, on the one state it visits at
    each node on the way down from the best root state (the lowest t, then
    the lowest c, on a tie): it takes the children's sides at that state's
    center c, and the first split (i_l, t_l), in ascending order, whose
    combined value is the minimum. Each child then joins u's cluster at
    (i + 1, t) when its joined entry equals its side there, and otherwise
    closes its own cluster at (i, t), centered by :func:`subtree_center`.
    The recomputed state, u's own term combined with that minimum, must
    equal the forward entry bit for bit (the same operations on the same
    operands), and the clustering must have k centers and cost the DP's
    optimum (exactly, or for float terms within a relative 1e-9, whatever
    the scale of the distances); a failed check raises
    :class:`InternalCheckFailed`.
    """
    n = inst.n
    k, z = inst.k, inst.z
    n_real = btree.n_real
    K, T = k + 1, z + 1
    OUT = n_real  # center axis: 0..n_real-1 real, slot n_real = outlier
    E, exact = term_matrix(inst, obj)  # E[c, u] = term(d(c, u))
    zero = np.zeros(n_real, dtype=E.dtype)
    combine = np.add if obj.aggregate == "sum" else np.maximum

    def base(u: int) -> np.ndarray:
        return E[:, u] if u < n_real else zero

    # inf marks a state with no partition, and a float sum past the float
    # range comes out inf as well
    with np.errstate(over="ignore"):
        tab, M, inside = _forward(btree, base, K, T, combine, E.dtype)

    root_cells = tab[k, :, btree.root]  # [t, c], c ascending with OUT last
    flat = int(np.argmin(root_cells))
    best_val = root_cells.flat[flat]
    if not exact:
        finite_optimum(best_val, obj)
    if not best_val < INF:
        raise Infeasible("no feasible partition into k clusters within the outlier budget")

    def subtree_center(w: int, j: int, t: int) -> int:
        """The center M[w] took at (j, t): the outlier slot first, then lowest c."""
        row, val = tab[j, t, w], M[j, t, w, 0]
        if row[OUT] == val:
            return OUT
        return int(np.flatnonzero(inside[w, :OUT] & (row[:OUT] == val))[0])

    def split(sides: list, j: int, t: int) -> tuple:
        """(value as a 1-array, child (i, s) pairs): the first split of j
        clusters and t outliers over the children's [K, T] sides that
        minimizes combine(side_l[i, s], side_r[j - i, t - s])."""
        if len(sides) == 1:
            return sides[0][j, t : t + 1], ((j, t),)
        a, b = sides
        cand = combine(a[: j + 1, : t + 1], b[j::-1, t::-1])
        i, s = divmod(int(np.argmin(cand)), t + 1)
        return cand[i, s : s + 1], ((i, s), (j - i, t - s))

    assignment = [OUTLIER] * n
    t_root, c_root = divmod(flat, n_real + 1)
    stack = [(btree.root, k, t_root, c_root)]
    while stack:
        u, j, t, c = stack.pop()
        kids = btree.children(u)
        if u < n_real and c != OUT:
            assignment[u] = c
        if not kids:
            continue
        sides = [_side(tab[:, :, w, c : c + 2], M[:, :, w], inside[w, c : c + 2])[..., 0]
                 for w in kids]
        if c == OUT:  # both children close their own clusters
            val, parts = split(sides, j, t - (1 if u < n_real else 0))
        else:  # u's cluster is the + 1 in j
            val, parts = split(sides, j - 1, t)
            val = combine(base(u)[[c]], val)
        if val[0] != tab[j, t, u, c]:
            raise InternalCheckFailed(f"DP state {(u, j, t, c)} does not recompute to its value")
        for w, side, (i, s) in zip(kids, sides, parts):
            if c != OUT and i + 1 < K and tab[i + 1, s, w, c] == side[i, s]:
                stack.append((w, i + 1, s, c))
            else:
                stack.append((w, i, s, subtree_center(w, i, s)))

    centers = tuple(sorted({a for a in assignment if a != OUTLIER}))
    if len(centers) != k:
        raise InternalCheckFailed(f"reconstruction produced {len(centers)} clusters, expected {k}")
    index = {c: i for i, c in enumerate(centers)}
    final = tuple(OUTLIER if a == OUTLIER else index[a] for a in assignment)
    clus = Clustering(final, centers)
    achieved = cost(inst, clus, obj)
    # float sums in tree order and in point order differ in the last bits
    if not costs_agree(achieved, best_val, exact):
        raise InternalCheckFailed(f"DP optimum {best_val} but its clustering costs {achieved}")
    return clus


def solve_outlier_clustering(inst: Instance, obj: Objective) -> Clustering:
    """MST -> binary tree -> subtree DP; exact on resilient outlier instances."""
    tree = build_mst(inst)
    btree = binarize(tree, inst)
    return solve_btp(inst, btree, obj)

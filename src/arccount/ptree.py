"""Spanning trees to spanning paths to balanced partition trees.

A spanning tree is linearized by depth-first search from vertex 0 (children
in ascending index order); the first-visit order is the spanning path.  A
complete binary tree over that order, splitting every range as evenly as
possible with the left child taking the ceiling, is the partition tree: its
leaves are single points and every node owns a contiguous range of the
path.  That shape depends on ``n`` alone.  The tree is stored as the path
order plus five arrays over its ``2n - 1`` nodes in preorder: each node's
range ``[lo, hi)``, its ``parent``, whether it is ``inner`` (not a leaf),
and its ``twice_size`` (twice its range's length).  The points' weights
stay with the index, in path order.  A query decides every node at once
with array operations, and a walk visits a node iff it is the root or its
parent is stabbed, so the parents give the visited nodes in one gather
(see ``counter.tree_walk``).
Walking only the nodes whose parent looks ambiguous or stabbed from a
query's viewpoint visits few nodes exactly because consecutive path points
rarely straddle the query's annulus.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
import numpy as np

from .core import ContractViolation, EpsParams, WeightedPointSet, as_point, sq_dists_to
from .spantree import SpanningTree


@dataclass
class SpanningPath:
    """A permutation of 0..n-1, the leaf order of a partition tree."""

    order: np.ndarray

    def __post_init__(self) -> None:
        order = np.asarray(self.order, dtype=np.int64)
        if order.ndim != 1 or not np.array_equal(np.sort(order), np.arange(order.size)):
            raise ContractViolation(f"path order must be a permutation of 0..{order.size - 1}")
        self.order = order

    def __len__(self) -> int:
        return int(self.order.size)


def split(lo: int, hi: int) -> int:
    """Where the path range ``[lo, hi)`` splits: the left child takes the larger half."""
    return lo + (hi - lo + 1) // 2


@dataclass
class PartitionTree:
    """Balanced binary tree over a spanning path, stored as preorder arrays.

    The shape is a function of ``n`` alone.  Node 0 is the root and owns
    the path positions ``[0, n)``; node ``k`` owns ``[lo[k], hi[k])``; a
    range of one position is a leaf; an internal range splits at
    ``mid = split(lo, hi)``.  Nodes are numbered in preorder, so the left
    child of ``k`` is ``k + 1``, the right child is ``k + 2 * (mid - lo)``,
    and ``parent`` maps both back to ``k`` (the root maps to 0);
    ``inner[k]`` is ``hi - lo > 1``, and ``twice_size[k]`` is
    ``2 * (hi - lo)``, the code sum of a slice whose points are all near
    (see ``counter.node_masks``); both are kept so that no query recomputes
    them.  Only ``order`` depends on the data.
    """

    order: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    parent: np.ndarray
    inner: np.ndarray
    twice_size: np.ndarray

    @property
    def n(self) -> int:
        return int(self.order.size)

    @property
    def depth(self) -> int:
        return (self.n - 1).bit_length()

    def internal_ranges(self) -> Iterator[tuple[int, int, int]]:
        """``(k, lo, hi)`` of every internal node in preorder: parents first, left before right."""
        inner = np.flatnonzero(self.inner)
        return zip(inner.tolist(), self.lo[inner].tolist(), self.hi[inner].tolist())


def tree_to_path(t: SpanningTree, pts: WeightedPointSet) -> SpanningPath:
    """First-visit DFS order of ``t`` from vertex 0, children ascending."""
    if t.n != len(pts):
        raise ContractViolation(f"tree has {t.n} vertices but point set has {len(pts)}")
    adj = t.adjacency()
    order: list[int] = []
    seen = [False] * t.n
    stack = [0]
    while stack:
        v = stack.pop()
        if seen[v]:
            continue
        seen[v] = True
        order.append(v)
        for u in reversed(adj[v]):
            if not seen[u]:
                stack.append(u)
    if len(order) != t.n:
        raise ContractViolation("tree does not span the point set")
    return SpanningPath(np.asarray(order, dtype=np.int64))


def path_to_partition_tree(path: SpanningPath, pts: WeightedPointSet) -> PartitionTree:
    """Build the balanced binary tree over ``path``.

    The ranges and parents are laid out one level at a time from the root,
    each node's preorder position derived from its parent's.
    """
    n = len(path)
    if n != len(pts):
        raise ContractViolation(f"path length {n} does not match point count {len(pts)}")
    lo = np.empty(2 * n - 1, dtype=np.int64)
    hi = np.empty(2 * n - 1, dtype=np.int64)
    parent = np.zeros(2 * n - 1, dtype=np.int64)
    # preorder positions k and ranges [a, b) of one level's nodes
    k, a, b = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64), np.full(1, n, dtype=np.int64)
    while k.size:
        lo[k], hi[k] = a, b
        inner = b - a > 1
        k, a, b = k[inner], a[inner], b[inner]
        mid = split(a, b)
        left, right = k + 1, k + 2 * (mid - a)
        parent[left] = parent[right] = k
        k, a, b = np.concatenate((left, right)), np.concatenate((a, mid)), np.concatenate((mid, b))
    size = hi - lo
    return PartitionTree(order=path.order, lo=lo, hi=hi, parent=parent, inner=size > 1, twice_size=2 * size)


def visiting_number(t: PartitionTree, q: np.ndarray, pts: WeightedPointSet, params: EpsParams) -> int:
    """Exact number of nodes a traversal must visit for query ``q``.

    The root always counts.  Both children of an internal node count when
    the node's members either straddle the two balls (some point within
    ``radius``, some at ``>= (1+eps)*radius``) or touch the ambiguity zone
    while lying entirely inside the outer ball or entirely outside the
    inner one.
    """
    q = as_point(q)
    if q.shape[0] != pts.dim:
        raise ContractViolation("query dimension does not match points")
    dists = np.sqrt(sq_dists_to(pts.points[t.order], q))
    r = params.radius
    big = params.outer_radius

    total = 1
    for _, lo, hi in t.internal_ranges():
        chunk = dists[lo:hi]
        has_near = bool(np.any(chunk <= r))
        has_far = bool(np.any(chunk >= big))
        has_ambiguous = bool(np.any((chunk > r) & (chunk <= big)))
        expands = (
            (has_near and has_far)
            or (has_ambiguous and bool(np.all(chunk <= big)))
            or (has_ambiguous and not has_near)
        )
        if expands:
            total += 2
    return total

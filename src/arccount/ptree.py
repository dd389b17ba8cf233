"""Spanning trees to spanning paths to balanced partition trees.

A spanning tree is linearized by depth-first search from vertex 0 (children
in ascending index order); the first-visit order is the spanning path.  A
complete binary tree over that order, splitting every range as evenly as
possible with the left child taking the ceiling, is the partition tree: its
leaves are single points and every node owns a contiguous range of the
path.  That shape depends on ``n`` alone, so the tree is stored as the path
order plus one cumulative weight per heap slot, and every node's range is
derived from ``n`` while walking.  Walking only the nodes whose parent looks
ambiguous or stabbed from a query's viewpoint visits few nodes exactly
because consecutive path points rarely straddle the query's annulus.
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
        if sorted(order.tolist()) != list(range(order.size)):
            raise ContractViolation("path order must be a permutation of 0..n-1")
        self.order = order

    def __len__(self) -> int:
        return int(self.order.size)


def split(lo: int, hi: int) -> int:
    """Where the path range ``[lo, hi)`` splits: the left child takes the larger half."""
    return lo + (hi - lo + 1) // 2


@dataclass
class PartitionTree:
    """Balanced binary tree over a spanning path, stored flat.

    The shape is a function of ``n`` alone.  Heap slot 0 is the root and
    owns the path positions ``[0, n)``; slot ``i`` has children ``2i+1``
    and ``2i+2``; a range ``[lo, hi)`` splits at ``split(lo, hi)``; and a
    range of one position is a leaf.  The only data-dependent part is
    ``cum_weight[i]``, the total weight of the points ``order[lo:hi]`` that
    slot ``i`` owns; slots the shape leaves unused hold 0.0.
    """

    order: np.ndarray
    cum_weight: list[float]

    @property
    def n(self) -> int:
        return int(self.order.size)

    @property
    def depth(self) -> int:
        return (self.n - 1).bit_length()

    def internal_ranges(self) -> Iterator[tuple[int, int, int]]:
        """``(slot, lo, hi)`` of every internal node, parents first, left before right."""
        stack = [(0, 0, self.n)]
        while stack:
            i, lo, hi = stack.pop()
            if hi - lo > 1:
                yield i, lo, hi
                mid = split(lo, hi)
                stack.append((2 * i + 2, mid, hi))
                stack.append((2 * i + 1, lo, mid))


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

    Cumulative weights are filled bottom-up: a leaf takes its point's
    weight, a parent adds its left and its right child.
    """
    n = len(path)
    if n != len(pts):
        raise ContractViolation(f"path length {n} does not match point count {len(pts)}")
    leaf = pts.weights[path.order].tolist()
    tree = PartitionTree(order=path.order, cum_weight=[])
    cum = tree.cum_weight = [0.0] * (2 ** (tree.depth + 1) - 1)

    def fill(i: int, lo: int, hi: int) -> float:
        if hi - lo == 1:
            w = leaf[lo]
        else:
            mid = split(lo, hi)
            w = fill(2 * i + 1, lo, mid) + fill(2 * i + 2, mid, hi)
        cum[i] = w
        return w

    fill(0, 0, n)
    return tree


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

"""Spanning trees to spanning paths to balanced partition trees.

A spanning tree is linearized by depth-first search from vertex 0 (children
in ascending index order); the first-visit order is the spanning path.  A
complete binary tree over that order, splitting every range as evenly as
possible with the left child taking the ceiling, is the partition tree: its
leaves are single points and every node owns a contiguous range of the
path.  Walking only the nodes whose parent looks ambiguous or stabbed from
a query's viewpoint visits few nodes exactly because consecutive path
points rarely straddle the query's annulus.
"""

from __future__ import annotations

import math
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


@dataclass
class PNode:
    """One partition-tree node: a half-open range of path positions."""

    start: int
    stop: int
    cum_weight: float

    @property
    def size(self) -> int:
        return self.stop - self.start

    @property
    def is_leaf(self) -> bool:
        return self.size == 1


@dataclass
class PartitionTree:
    """Heap-indexed complete binary tree over a spanning path.

    ``nodes[0]`` is the root; children of ``i`` sit at ``2i+1`` and
    ``2i+2``.  Unused heap slots are ``None``.  Node ``i`` owns the input
    points ``order[start:stop]``.
    """

    order: np.ndarray
    nodes: list[PNode | None]

    @property
    def n(self) -> int:
        return int(self.order.size)

    @property
    def depth(self) -> int:
        return 0 if self.n == 1 else math.ceil(math.log2(self.n))

    def node(self, i: int) -> PNode:
        node = self.nodes[i]
        assert node is not None
        return node

    def children(self, i: int) -> tuple[int, int]:
        return 2 * i + 1, 2 * i + 2

    def internal_indices(self) -> list[int]:
        return [i for i, nd in enumerate(self.nodes) if nd is not None and not nd.is_leaf]

    def member_indices(self, i: int) -> np.ndarray:
        nd = self.node(i)
        return self.order[nd.start : nd.stop]


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
    """Build the canonical balanced binary tree over ``path``.

    Ranges split with the left child taking the larger half, so the shape is
    a function of ``n`` alone.  Cumulative weights are filled bottom-up:
    leaves take their point's weight, parents add their children.
    """
    n = len(path)
    if n != len(pts):
        raise ContractViolation(f"path length {n} does not match point count {len(pts)}")
    nodes: dict[int, PNode] = {}

    def fill(i: int, lo: int, hi: int) -> float:
        if hi - lo == 1:
            w = float(pts.weights[path.order[lo]])
            nodes[i] = PNode(lo, hi, w)
            return w
        mid = lo + (hi - lo + 1) // 2
        w = fill(2 * i + 1, lo, mid) + fill(2 * i + 2, mid, hi)
        nodes[i] = PNode(lo, hi, w)
        return w

    fill(0, 0, n)
    size = max(nodes.keys()) + 1
    slots: list[PNode | None] = [None] * size
    for i, nd in nodes.items():
        slots[i] = nd
    return PartitionTree(order=path.order, nodes=slots)


def canonical_path_of_tree(t: PartitionTree) -> SpanningPath:
    """Leaf order of ``t`` read left to right."""
    order: list[int] = []

    def walk(i: int) -> None:
        nd = t.node(i)
        if nd.is_leaf:
            order.append(int(t.order[nd.start]))
            return
        walk(2 * i + 1)
        walk(2 * i + 2)

    walk(0)
    return SpanningPath(np.asarray(order, dtype=np.int64))


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
    for i in t.internal_indices():
        nd = t.node(i)
        chunk = dists[nd.start : nd.stop]
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

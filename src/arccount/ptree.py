"""Spanning trees to balanced partition trees over their spanning paths, and the walk over them.

A spanning tree is linearized by depth-first search from vertex 0 (children
in ascending index order); the first-visit order is the spanning path.  A
complete binary tree over that order, splitting every range as evenly as
possible with the left child taking the ceiling, is the partition tree: its
leaves are single points and every node owns a contiguous range of the
path.  That shape depends on ``n`` alone, so the tree is its path order:
``PartitionTree(order)`` refuses an order that is not a nonempty permutation of
``0..n-1`` in an integer dtype and keeps a read-only int64 copy; the tree is
frozen and compared by identity.  Five arrays over its ``2n - 1`` nodes in
preorder, ``tree.nodes``, are derived from ``n`` on their first need and kept:
each node's range ``[lo, hi)``, its ``parent``, whether it is ``inner`` (not a
leaf), and its ``twice_size`` (twice its range's length).  Only the walk needs
them, so the tree of an index that answers without reading the walk's telemetry
never lays them out.  The points' weights stay with the index, in path order.

One walk (``walk``) serves both the index's telemetry and the paper's
visiting number.  Its callers give it the path points' masks on the
closed balls of ``core``, ``d2 <= ((1+eps) r)**2`` and ``d2 <= r**2`` on
the squared distances of ``sq_dists_to``; the walk alone turns them into
codes: 2 for a point within ``r`` of the query, 1 for one in the
ambiguity zone ``r < dist <= (1+eps) r``, 0 for one beyond ``(1+eps) r``.
A point is near when it is within ``(1+eps) r`` and far when it is
beyond ``r``: code 2 is near only, 1 both, 0 far only.  One subtraction
of the codes' running count gives each node's code sum, and so its
verdict, and a node is visited iff it is the root or its parent is
STABBED, so the walk is a fixed number of array operations.  Walking
only the nodes whose parent is stabbed from a query's viewpoint visits
few nodes exactly because consecutive path points rarely straddle the
query's annulus.

The paper's expand rule for a node (some member within ``r`` and some at
``>= (1+eps) r``; or a member in the ambiguity zone and all members
within ``(1+eps) r``; or one there and no member within ``r``) is the
walk's STABBED test: it fires iff some member is near and some member is
far.  With a member in the ambiguity zone both tests hold (one of the
three clauses always does), and with no such member the rule reduces to
"some member within ``r`` and some beyond ``(1+eps) r``", as does the
test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import numpy as np

from .core import ContractViolation, EpsParams, WeightedPointSet, as_point, sq_dists_to
from .spantree import SpanningTree


def split(lo: int, hi: int) -> int:
    """Where the path range ``[lo, hi)`` splits: the left child takes the larger half."""
    return lo + (hi - lo + 1) // 2


@dataclass(frozen=True, eq=False)
class PartitionTree:
    """Balanced binary tree over a spanning path; its node arrays, in preorder, come on first need.

    ``order`` is the path, a nonempty permutation of ``0..n-1`` in an
    integer dtype; the tree refuses any other array, a float one too rather
    than truncate it, and keeps a read-only int64 copy.  The tree is frozen
    and compared by identity, so neither a caller's array nor a reassignment
    can move the leaves of an index built over it.  The shape is a function
    of ``n`` alone.  Node 0 is the root and owns the path positions
    ``[0, n)``; node ``k`` owns ``[lo[k], hi[k])``; a range of one position
    is a leaf; an internal range splits at ``mid = split(lo, hi)``.  Nodes
    are numbered in preorder, so the left child of ``k`` is ``k + 1``, the
    right child is ``k + 2 * (mid - lo)``, and ``parent`` maps both back to
    ``k`` (the root maps to 0); ``inner[k]`` is ``hi - lo > 1``, and
    ``twice_size[k]`` is ``2 * (hi - lo)``, the code sum of a slice whose
    points are all near only (see ``walk``); both are kept so that no query
    recomputes them.  Only ``order`` is given and depends on the data: the
    first read of ``nodes``, which the walk and each of the five properties
    make, lays out all five arrays, read-only, and keeps them.  Threads that
    read it first at once may each lay them out (from Python 3.12 on; before
    it, ``cached_property`` takes a lock and one does); the layouts are equal.
    """

    order: np.ndarray

    def __post_init__(self) -> None:
        order = np.asarray(self.order)
        if order.dtype.kind not in "iu":
            raise ContractViolation(f"path order must hold integers, not {order.dtype}")
        if order.size == 0:
            raise ContractViolation("path order must be nonempty")
        if order.ndim != 1 or not np.array_equal(np.sort(order), np.arange(order.size)):
            raise ContractViolation(f"path order must be a permutation of 0..{order.size - 1}")
        object.__setattr__(self, "order", order.astype(np.int64))
        self.order.setflags(write=False)

    @cached_property
    def nodes(self) -> tuple[np.ndarray, ...]:
        """``(lo, hi, parent, inner, twice_size)``, laid out on the first read and kept."""
        return _node_arrays(self.n)

    # one array at a time, for readers other than the walk
    lo = property(lambda t: t.nodes[0])
    hi = property(lambda t: t.nodes[1])
    parent = property(lambda t: t.nodes[2])
    inner = property(lambda t: t.nodes[3])
    twice_size = property(lambda t: t.nodes[4])

    @property
    def n(self) -> int:
        return int(self.order.size)

    @property
    def depth(self) -> int:
        return (self.n - 1).bit_length()


def tree_to_path(t: SpanningTree, pts: WeightedPointSet) -> PartitionTree:
    """The partition tree over the first-visit DFS order of ``t`` from vertex 0, children ascending."""
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
    return PartitionTree(np.asarray(order, dtype=np.int64))


def _node_arrays(n: int) -> tuple[np.ndarray, ...]:
    """The node arrays of the tree over ``n`` path positions, read-only, in ``PartitionTree.nodes`` order.

    The ranges and parents are laid out one level at a time from the root,
    each node's preorder position derived from its parent's.
    """
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
    # a plain tuple: the walk unpacks it, and only an exact tuple unpacks fast
    arrays = (lo, hi, parent, size > 1, 2 * size)
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def walk(t: PartitionTree, outer_mask: np.ndarray, inner_mask: np.ndarray) -> tuple[int, dict[str, int], np.ndarray]:
    """The walk's visited node count, its verdict counts, and which nodes it includes, in preorder.

    ``outer_mask`` and ``inner_mask`` say which path points lie in the
    closed balls of radius ``(1+eps) r`` and ``r``.  A point's code is
    their sum, and entry ``k`` of the running count sums the codes of the
    first ``k`` points.  A slice's code sum is 0 iff every point is far
    only (DISJOINT), twice its length iff every point is near only
    (COVERED), and anything between is STABBED.  A STABBED node holds
    both near and far points, and so does each of its ancestors: the walk
    visits the root and both children of every STABBED internal node, and
    no other node.  The included nodes' slices are disjoint and together
    hold exactly the near points.  The first walk of a tree lays out its
    node arrays (``PartitionTree.nodes``); later walks read the kept ones.
    """
    lo, hi, parent, inner, twice_size = t.nodes
    c = np.zeros(t.n + 1, dtype=np.intp)
    np.add.accumulate(np.add(outer_mask, inner_mask, dtype=np.intp), out=c[1:])
    v = c[hi] - c[lo]
    has_near = v != 0
    # the STABBED internal nodes, which the walk splits
    split = has_near & (v != twice_size) & inner
    # a node is visited iff it is the root or its parent is split
    visited = split[parent]
    visited[0] = True
    # the walk stops at every other visited node, and includes the stops
    # that hold a near point: COVERED nodes and near leaves
    stops = visited ^ split
    included = stops & has_near
    n_stabbed = int(np.count_nonzero(split))
    inner_stops = stops & inner
    n_stopped = int(np.count_nonzero(inner_stops))
    n_covered = int(np.count_nonzero(inner_stops & has_near))
    verdicts = {"stabbed": n_stabbed, "covered": n_covered, "disjoint": n_stopped - n_covered}
    return 1 + 2 * n_stabbed, verdicts, included


def visiting_number(t: PartitionTree, q: np.ndarray, pts: WeightedPointSet, params: EpsParams) -> int:
    """Exact number of nodes a traversal must visit for query ``q``: the paper's visiting number.

    The root always counts, and both children of an internal node count
    when its members either straddle the two balls (some point within
    ``radius``, some at ``>= (1+eps)*radius``) or touch the ambiguity zone
    while lying entirely inside the outer ball or entirely outside the
    inner one.  That is ``walk`` on the two closed-ball masks.
    """
    q = as_point(q, pts.dim)
    if len(pts) != t.n:
        raise ContractViolation(f"the tree holds {t.n} points, the point set {len(pts)}")
    d2 = sq_dists_to(pts.points[t.order], q)
    big, r = params.outer_radius, params.radius
    return walk(t, d2 <= big * big, d2 <= r * r)[0]

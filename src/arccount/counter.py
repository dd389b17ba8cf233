"""End-to-end approximate range counting index.

Build pipeline: optionally rescale the points to absorb query snapping
error, build a spanning tree (worst-case grid machinery or learned from a
query sample), linearize it, and erect the balanced partition tree.  The
working space is the data's own space.  All internal structures run at the
halved error ``eps/2`` so that the snapping slack still lands answers
inside the full ``eps`` sandwich.

Queries take one distance pass over the working points in path order and
keep running counts of the points within the outer radius (near) and at
least the inner radius away (far).  Every node owns a contiguous slice of
the path, so two subtractions give its verdict: near points only is
COVERED, far points only is DISJOINT, both is STABBED.  The walk adds the
cumulative weight of a COVERED node and stops, stops empty at a DISJOINT
node, recurses into a STABBED node, and includes a leaf when its one point
is near.  The tree is stored in preorder, so the walk is a fixed number of
array operations over all nodes: the verdicts of every node at once, then
the nodes no stopping ancestor hides, then a running sum of the included
weights in preorder, the order of a depth-first walk.  The answer weight
is therefore always the exact total weight of a concrete point set
sandwiched between the inner and outer balls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import (
    ContractViolation,
    EpsParams,
    GridSpec,
    Seed,
    WeightedPointSet,
    as_point,
    snap_to_grid,
    sq_dists_to,
)
from .learned import QuerySample, learned_spanning_tree, pair_stab_counts
from .ptree import PartitionTree, SpanningPath, path_to_partition_tree, tree_to_path
from .spantree import LightEdgeParams, SpanningTree, generate_grid_queries, build_low_stab_tree
# ``classify`` is not called here; the name stays importable from this module
# because the benchmark's hook tests patch ``arccount.counter.classify``.
from .stabber import classify  # noqa: F401

_SEED_TREE = 2


@dataclass(frozen=True)
class WorstCaseSource:
    """Distribution-free tree source: grid query universe plus light edges.

    ``grid_side`` defaults to ``(eps/2) * radius / sqrt(d)`` in the working
    space; ``light`` defaults to the default ``rho`` for the working error.
    """

    light: LightEdgeParams | None = None
    grid_side: float | None = None

    def __post_init__(self) -> None:
        if self.grid_side is not None:
            GridSpec(self.grid_side)  # validate


@dataclass(frozen=True)
class LearnedSource:
    """Tree source that fits edge costs to a training query sample."""

    sample: QuerySample


TreeSource = Union[WorstCaseSource, LearnedSource]


@dataclass(frozen=True)
class BuildConfig:
    eps: float
    seed: Seed
    tree_source: TreeSource
    radius: float = 1.0
    snap_queries: bool = False
    grid_side: float | None = None  # query snap grid, working space

    def __post_init__(self) -> None:
        EpsParams(self.eps, self.radius)  # validate
        if self.grid_side is not None:
            GridSpec(self.grid_side)


@dataclass
class CountAnswer:
    weight: float
    visited_nodes: int
    verdict_counts: dict[str, int]
    member_ranges: list[tuple[int, int]] | None = None


@dataclass
class CountingIndex:
    config: BuildConfig
    working: EpsParams  # halved error used by node verdicts and leaves
    tree: PartitionTree
    working_points: np.ndarray
    path_points: np.ndarray  # working_points in path order
    source_points: WeightedPointSet
    rescale_factor: float
    snap_grid: GridSpec | None
    spanning_tree: SpanningTree | None = None
    reassembled: bool = False  # leaf order adopted from ``order_override``

    def transform_query(self, q: np.ndarray) -> np.ndarray:
        """Map a query into the working space: the optional snap, then the rescale."""
        qw = as_point(q)
        if qw.shape[0] != self.source_points.dim:
            raise ContractViolation(
                f"query dimension {qw.shape[0]} does not match data dimension {self.source_points.dim}"
            )
        if self.snap_grid is not None:
            qw = snap_to_grid(qw, self.snap_grid)
        return qw * self.rescale_factor


def build_counting_index(
    pts: WeightedPointSet,
    cfg: BuildConfig,
    order_override: np.ndarray | None = None,
) -> CountingIndex:
    """Build the full index.

    ``order_override`` skips tree construction and adopts the given leaf
    order; model loading uses it to reassemble an index bit-identically.
    """
    n = len(pts)
    d = pts.dim
    working = EpsParams(cfg.eps / 2.0, cfg.radius)

    rescale = 1.0 / (1.0 + cfg.eps / 5.0) if cfg.snap_queries else 1.0
    work = pts.points * rescale
    working_set = WeightedPointSet(work, pts.weights.copy())

    snap_grid = None
    if cfg.snap_queries:
        side = cfg.grid_side or cfg.eps * cfg.radius / (10.0 * math.sqrt(d))
        snap_grid = GridSpec(side)

    spanning: SpanningTree | None = None
    if order_override is not None:
        path = SpanningPath(np.asarray(order_override, dtype=np.int64))
        if len(path) != n:
            raise ContractViolation("stored leaf order does not match the point count")
    elif n == 1:
        path = SpanningPath(np.zeros(1, dtype=np.int64))
    else:
        spanning = _build_spanning_tree(working_set, working, cfg, rescale)
        path = tree_to_path(spanning, working_set)

    tree = path_to_partition_tree(path, working_set)

    return CountingIndex(
        config=cfg,
        working=working,
        tree=tree,
        working_points=work,
        path_points=work[tree.order],
        source_points=pts,
        rescale_factor=rescale,
        snap_grid=snap_grid,
        spanning_tree=spanning,
        reassembled=order_override is not None,
    )


def _build_spanning_tree(
    working_set: WeightedPointSet,
    working: EpsParams,
    cfg: BuildConfig,
    rescale: float,
) -> SpanningTree:
    source = cfg.tree_source
    if isinstance(source, WorstCaseSource):
        side = source.grid_side or working.eps * working.radius / math.sqrt(working_set.dim)
        queries = generate_grid_queries(working_set, working, GridSpec(side))
        lp = source.light or LightEdgeParams.for_eps(working.eps)
        return build_low_stab_tree(working_set, queries, working, lp, cfg.seed.derive(_SEED_TREE))
    if isinstance(source, LearnedSource):
        # training queries go through the same rescale as the data so the
        # learned costs reflect the working geometry
        q = source.sample.queries
        if q.shape[1] != working_set.dim:
            raise ContractViolation("training sample dimension does not match the data")
        transformed = QuerySample(q * rescale, source=source.sample.source)
        counts = pair_stab_counts(working_set, transformed, working)
        return learned_spanning_tree(counts, len(working_set))
    raise ContractViolation(f"unknown tree source {type(source).__name__}")


def prefix_counts(idx: CountingIndex, qw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Running near and far counts over the path, for a transformed query.

    Entry ``k`` of each array counts the first ``k`` path points within the
    working outer radius of ``qw`` (near) or at least the working radius
    from it (far).
    """
    d2 = sq_dists_to(idx.path_points, qw)
    outer = idx.working.outer_radius
    r = idx.working.radius
    near = np.zeros(d2.size + 1, dtype=np.intp)
    far = np.zeros(d2.size + 1, dtype=np.intp)
    np.cumsum(d2 <= outer * outer, out=near[1:])
    np.cumsum(d2 >= r * r, out=far[1:])
    return near, far


def node_masks(tree: PartitionTree, near: np.ndarray, far: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each node's path slice holds a near point, and a far point, in preorder.

    Near points only is COVERED, far points only is DISJOINT, and both is
    STABBED.
    """
    return near[tree.hi] != near[tree.lo], far[tree.hi] != far[tree.lo]


def count(idx: CountingIndex, q: np.ndarray, verify: bool = False) -> CountAnswer:
    """Approximate weight of the ball around ``q``, by one tree walk.

    The returned weight is the exact cumulative weight of a point set S with
    (ball of radius r) <= S <= (ball of radius (1+eps) r).  In verification
    mode the answer also carries the path-order ranges whose union is S.
    """
    qw = idx.transform_query(q)
    tree = idx.tree
    has_near, has_far = node_masks(tree, *prefix_counts(idx, qw))
    # a COVERED or DISJOINT node stops the walk below it, and its subtree is
    # the preorder block up to its ``end``: a node is visited iff the
    # furthest end of the stopping nodes before it does not pass it
    stop = has_near != has_far
    reach = np.maximum.accumulate(np.where(stop, tree.end, 0))
    visited = np.ones(stop.size, dtype=bool)
    np.less_equal(reach[:-1], np.arange(1, stop.size), out=visited[1:])
    # a COVERED node, or a leaf whose point is near
    included = visited & has_near & (stop | tree.leaf)
    # a sequential running sum from 0.0 adds in preorder, as a depth-first
    # walk does; a pairwise or compensated sum could differ in the last bit
    weight = float(np.cumsum(np.concatenate(([0.0], tree.weight[included])))[-1])
    inner = visited & ~tree.leaf
    stopped = inner & stop
    n_stopped = int(np.count_nonzero(stopped))
    n_covered = int(np.count_nonzero(stopped & has_near))

    answer = CountAnswer(
        weight=weight,
        visited_nodes=int(np.count_nonzero(visited)),
        verdict_counts={
            "stabbed": int(np.count_nonzero(inner)) - n_stopped,
            "covered": n_covered,
            "disjoint": n_stopped - n_covered,
        },
        # included slices are disjoint, so preorder lists them by ``lo``
        member_ranges=list(zip(tree.lo[included].tolist(), tree.hi[included].tolist())) if verify else None,
    )
    if verify:
        total = sum(
            float(np.sum(idx.source_points.weights[tree.order[lo:hi]])) for lo, hi in answer.member_ranges
        )
        scale = max(1.0, float(np.sum(np.abs(idx.source_points.weights))))
        if abs(total - weight) > 1e-12 * scale:
            raise AssertionError(
                f"weight {weight} does not match the member ranges total {total}"
            )
    return answer

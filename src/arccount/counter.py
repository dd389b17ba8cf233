"""End-to-end approximate range counting index.

Build pipeline: optionally project the points with a shared Gaussian map,
optionally rescale to absorb query snapping error, build a spanning tree
(worst-case grid machinery or learned from a query sample), linearize it,
and erect the balanced partition tree.  All internal structures run at the
halved error ``eps/2`` so that projection and snapping slack still land
answers inside the full ``eps`` sandwich.

Queries take one distance pass over the working points in path order and
keep running counts of the points within the outer radius (near) and at
least the inner radius away (far).  Every node owns a contiguous slice of
the path, so two subtractions give its verdict: near points only is
COVERED, far points only is DISJOINT, both is STABBED.  The walk then adds
the cumulative weight of a COVERED node and stops, stops empty at a
DISJOINT node, recurses into a STABBED node, and decides leaves by one
exact distance test.  The answer weight is therefore always the exact total
weight of a concrete point set sandwiched between the inner and outer
balls.
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
    gaussian_projection_matrix,
    snap_to_grid,
    sq_dists_to,
)
from .learned import QuerySample, learned_spanning_tree, pair_stab_counts
from .ptree import PartitionTree, SpanningPath, path_to_partition_tree, tree_to_path
from .spantree import LightEdgeParams, SpanningTree, generate_grid_queries, build_low_stab_tree
# ``classify`` is not called here; the name stays importable from this module
# because the benchmark's hook tests patch ``arccount.counter.classify``.
from .stabber import Verdict, classify  # noqa: F401

_SEED_PROJECTION = 1
_SEED_TREE = 2


@dataclass(frozen=True)
class WorstCaseSource:
    """Distribution-free tree source: grid query universe plus light edges.

    ``grid_side`` defaults to ``(eps/2) * radius / sqrt(d)`` in the working
    space; ``light`` defaults to the standard knobs for the working error.
    """

    light: LightEdgeParams | None = None
    grid_side: float | None = None


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
    jl_enabled: bool | None = None  # None: project only when dim > 64
    jl_target_dim: int | None = None
    snap_queries: bool = False
    grid_side: float | None = None  # query snap grid, working space

    def __post_init__(self) -> None:
        EpsParams(self.eps, self.radius)  # validate
        if self.jl_target_dim is not None and self.jl_target_dim < 1:
            raise ContractViolation("jl_target_dim must be positive")


@dataclass
class CountAnswer:
    weight: float
    visited_nodes: int
    verdict_counts: dict[str, int]
    member_ranges: list[tuple[int, int]] | None = None


@dataclass
class CountingIndex:
    config: BuildConfig
    params: EpsParams  # full target error
    working: EpsParams  # halved error used by node verdicts and leaves
    tree: PartitionTree
    working_points: np.ndarray
    path_points: np.ndarray  # working_points in path order
    source_points: WeightedPointSet
    rescale_factor: float
    projection: np.ndarray | None
    snap_grid: GridSpec | None
    spanning_tree: SpanningTree | None = None

    def transform_query(self, q: np.ndarray) -> np.ndarray:
        """Apply the stored projection, optional snap, and rescale to a query."""
        qw = as_point(q)
        if qw.shape[0] != self.source_points.dim:
            raise ContractViolation(
                f"query dimension {qw.shape[0]} does not match data dimension {self.source_points.dim}"
            )
        if self.projection is not None:
            qw = qw @ self.projection
        if self.snap_grid is not None:
            qw = snap_to_grid(qw, self.snap_grid)
        return qw * self.rescale_factor


def _default_jl_dim(n: int, d: int, eps: float) -> int:
    # distortion eps/10 needs about 8 ln(n) / (eps/10)^2 dimensions
    return min(d, max(8, math.ceil(8.0 * math.log(max(2, n)) / (eps / 10.0) ** 2)))


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
    params = EpsParams(cfg.eps, cfg.radius)
    working = EpsParams(cfg.eps / 2.0, cfg.radius)

    jl_on = cfg.jl_enabled if cfg.jl_enabled is not None else d > 64
    projection = None
    work = pts.points
    if jl_on:
        target = cfg.jl_target_dim or _default_jl_dim(n, d, cfg.eps)
        if target < d:
            projection = gaussian_projection_matrix(d, target, cfg.seed.derive(_SEED_PROJECTION))
            work = work @ projection
    d_work = work.shape[1]

    rescale = 1.0 / (1.0 + cfg.eps / 5.0) if cfg.snap_queries else 1.0
    work = work * rescale
    working_set = WeightedPointSet(work, pts.weights.copy())

    snap_grid = None
    if cfg.snap_queries:
        side = cfg.grid_side or cfg.eps * cfg.radius / (10.0 * math.sqrt(d_work))
        snap_grid = GridSpec(side)

    spanning: SpanningTree | None = None
    if order_override is not None:
        path = SpanningPath(np.asarray(order_override, dtype=np.int64))
        if len(path) != n:
            raise ContractViolation("stored leaf order does not match the point count")
    elif n == 1:
        path = SpanningPath(np.zeros(1, dtype=np.int64))
    else:
        spanning = _build_spanning_tree(working_set, working, cfg, projection, rescale)
        path = tree_to_path(spanning, working_set)

    tree = path_to_partition_tree(path, working_set)

    return CountingIndex(
        config=cfg,
        params=params,
        working=working,
        tree=tree,
        working_points=work,
        path_points=work[tree.order],
        source_points=pts,
        rescale_factor=rescale,
        projection=projection,
        snap_grid=snap_grid,
        spanning_tree=spanning,
    )


def _build_spanning_tree(
    working_set: WeightedPointSet,
    working: EpsParams,
    cfg: BuildConfig,
    projection: np.ndarray | None,
    rescale: float,
) -> SpanningTree:
    source = cfg.tree_source
    if isinstance(source, WorstCaseSource):
        side = source.grid_side or working.eps * working.radius / math.sqrt(working_set.dim)
        queries = generate_grid_queries(working_set, working, GridSpec(side))
        lp = source.light or LightEdgeParams.for_eps(working.eps)
        return build_low_stab_tree(working_set, queries, working, lp, cfg.seed.derive(_SEED_TREE))
    if isinstance(source, LearnedSource):
        # training queries go through the same projection and rescale as the
        # data so the learned costs reflect the working geometry
        q = source.sample.queries
        if projection is not None:
            if q.shape[1] != projection.shape[0]:
                raise ContractViolation("training sample dimension does not match the data")
            q = q @ projection
        elif q.shape[1] != working_set.dim:
            raise ContractViolation("training sample dimension does not match the data")
        transformed = QuerySample(q * rescale, source=source.sample.source)
        counts = pair_stab_counts(working_set, transformed, working)
        return learned_spanning_tree(counts, len(working_set))
    raise ContractViolation(f"unknown tree source {type(source).__name__}")


def prefix_counts(idx: CountingIndex, qw: np.ndarray) -> tuple[list[int], list[int]]:
    """Running near and far counts over the path, for a transformed query.

    Entry ``k`` of each list counts the first ``k`` path points within the
    working outer radius of ``qw`` (near) or at least the working radius
    from it (far).
    """
    d2 = sq_dists_to(idx.path_points, qw)
    outer = idx.working.outer_radius
    r = idx.working.radius
    near = np.concatenate(([0], np.cumsum(d2 <= outer * outer)))
    far = np.concatenate(([0], np.cumsum(d2 >= r * r)))
    return near.tolist(), far.tolist()


def node_verdict(near: list[int], far: list[int], start: int, stop: int) -> Verdict:
    """Verdict of the path slice ``[start, stop)`` from the prefix counts.

    Near points only: COVERED.  Far points only: DISJOINT.  Anything else
    is STABBED, so that the walk recurses.
    """
    has_near = near[stop] != near[start]
    has_far = far[stop] != far[start]
    if has_near and not has_far:
        return Verdict.COVERED
    if has_far and not has_near:
        return Verdict.DISJOINT
    return Verdict.STABBED


def count(idx: CountingIndex, q: np.ndarray, verify: bool = False) -> CountAnswer:
    """Approximate weight of the ball around ``q``, by one tree walk.

    The returned weight is the exact cumulative weight of a point set S with
    (ball of radius r) <= S <= (ball of radius (1+eps) r).  In verification
    mode the answer also carries the path-order ranges whose union is S.
    """
    qw = idx.transform_query(q)
    tree = idx.tree
    near, far = prefix_counts(idx, qw)
    weight = 0.0
    visited = 0
    verdicts = {"stabbed": 0, "covered": 0, "disjoint": 0}
    ranges: list[tuple[int, int]] = []
    leaf_limit = (1.0 + idx.working.eps) * idx.working.radius

    stack = [0]
    while stack:
        i = stack.pop()
        node = tree.node(i)
        visited += 1
        if node.is_leaf:
            p = idx.working_points[tree.order[node.start]]
            if math.dist(p, qw) <= leaf_limit:
                weight += node.cum_weight
                ranges.append((node.start, node.stop))
            continue
        verdict = node_verdict(near, far, node.start, node.stop)
        verdicts[verdict.value] += 1
        if verdict is Verdict.COVERED:
            weight += node.cum_weight
            ranges.append((node.start, node.stop))
        elif verdict is Verdict.STABBED:
            left, right = tree.children(i)
            stack.append(right)
            stack.append(left)
        # DISJOINT contributes nothing and stops the walk

    answer = CountAnswer(
        weight=weight,
        visited_nodes=visited,
        verdict_counts=verdicts,
        member_ranges=sorted(ranges) if verify else None,
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

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
COVERED, far points only is DISJOINT, both is STABBED.  The walk then adds
the cumulative weight of a COVERED node and stops, stops empty at a
DISJOINT node, recurses into a STABBED node, and includes a leaf when its
one point is near.  The answer weight is therefore always the exact total
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
    snap_to_grid,
    sq_dists_to,
)
from .learned import QuerySample, learned_spanning_tree, pair_stab_counts
from .ptree import PartitionTree, SpanningPath, path_to_partition_tree, split, tree_to_path
from .spantree import LightEdgeParams, SpanningTree, generate_grid_queries, build_low_stab_tree
# ``classify`` is not called here; the name stays importable from this module
# because the benchmark's hook tests patch ``arccount.counter.classify``.
from .stabber import Verdict, classify  # noqa: F401

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
    params: EpsParams  # full target error
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
    params = EpsParams(cfg.eps, cfg.radius)
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
        params=params,
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

    cum_weight = tree.cum_weight
    stack = [(0, 0, tree.n)]
    while stack:
        i, lo, hi = stack.pop()
        visited += 1
        if hi - lo == 1:
            if near[hi] != near[lo]:
                weight += cum_weight[i]
                ranges.append((lo, hi))
            continue
        verdict = node_verdict(near, far, lo, hi)
        verdicts[verdict.value] += 1
        if verdict is Verdict.COVERED:
            weight += cum_weight[i]
            ranges.append((lo, hi))
        elif verdict is Verdict.STABBED:
            mid = split(lo, hi)
            stack.append((2 * i + 2, mid, hi))
            stack.append((2 * i + 1, lo, mid))
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

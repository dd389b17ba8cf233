"""End-to-end approximate range counting index.

Build pipeline: find a leaf order, which is the balanced partition tree
over it (``ptree.PartitionTree``).  The tree keeps the order alone; its
node arrays are derived from ``n`` on the walk's first run and kept, so
an index whose answers' telemetry is never read never builds them.  The
paper's tree sources build a spanning tree (worst-case grid machinery, or
learned from a query sample) and linearize it into a tree; a
``StoredOrder``, such as a loaded model's, gives a tree fitted earlier,
and the index keeps it as it is.
The index works on the points and queries exactly as given, held once, in
path order (``points()``).  All internal structures run at the halved
error ``eps/2``, so every answer lands inside the full ``eps`` sandwich.

A query's answer set is exactly the points within the working outer
radius ``outer = (1 + eps/2) r``, whatever the tree (see ``count``).
``count`` checks the query once, with ``core.point_and_norm`` at the
data's dimension, which yields its norm by ``math.hypot`` beside the
shape, size and finiteness checks.  It finds the weight by one distance
pass over the points in path order, at that one threshold, at a radius
whose squares ``BuildConfig`` keeps normal.  One certified routine,
``_within``, gives the mask of every radius asked of it: one BLAS
matrix-vector product (GEMV) against half the squared norms, stored at
build time, gives ``(|q|**2 - d2) / 2`` up to the rounding bound of
``core.band_half_width``, with ``d2`` from ``core.sq_dists_to``.  Only
the points within that bound of a threshold are measured again with
``sq_dists_to``, so each mask is exactly ``d2 <= R**2``; a query the
pass does not certify is measured once with ``sq_dists_to``, and that
one pass gives every mask.  The weight is the sum of the masked point
weights in path order.

The tree walk, ``ptree.walk``, reports how the paper's index reaches that
set: the nodes it visits, their verdicts and the path ranges it includes.
It runs when an answer's telemetry is first read, or at once under
``verify``, on the two closed-ball masks of ``core``, ``d2 <= outer**2``
and ``d2 <= r**2`` at the working radii.  Both come from one ``_within``
call on the query as checked: ``verify`` asks its one call for both
radii, and a telemetry read asks for them with the norm its answer
kept.  ``visiting_number`` takes the same masks from ``sq_dists_to``,
so ``visited_nodes`` is the paper's visiting number at the working
error, ``ptree.visiting_number``, bit for bit.

``evaluate_visiting(idx, holdout)`` audits an index on a holdout sample:
it checks each verified answer against the oracle's brute-force scans of
the index's own points, at the full-error sandwich of its own config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Union

import numpy as np

from .core import (
    FLOAT64,
    ContractViolation,
    EpsParams,
    GridSpec,
    Seed,
    WeightedPointSet,
    band_half_width,
    point_and_norm,
    sq_dists_to,
)
from .learned import QuerySample, learned_spanning_tree, pair_stab_counts
from .oracle import exact_zones, point_rows
from . import ptree
from .ptree import PartitionTree, tree_to_path
from .spantree import LightEdgeParams, SpanningTree, generate_grid_queries, build_low_stab_tree
# ``classify`` is not called here; the name stays importable from this module
# because the benchmark's hook tests patch ``arccount.counter.classify``.
from .stabber import classify  # noqa: F401

_SEED_TREE = 2


@dataclass(frozen=True)
class WorstCaseSource:
    """Distribution-free tree source: grid query universe plus light edges.

    ``grid_side`` defaults to ``(eps/2) * radius / sqrt(d)``.  The light-edge
    net exponent ``rho`` is not a parameter: the paper fixes it as a function
    of the error, ``LightEdgeParams.for_eps`` of the working error ``eps/2``.
    """

    kind: ClassVar[str] = "worstcase"
    grid_side: float | None = None

    def __post_init__(self) -> None:
        if self.grid_side is not None:
            GridSpec(self.grid_side)  # validate


@dataclass(frozen=True)
class LearnedSource:
    """Tree source that fits edge costs to a training query sample."""

    kind: ClassVar[str] = "learned"
    sample: QuerySample


@dataclass(frozen=True, eq=False)
class StoredOrder:
    """A partition tree fitted earlier by the tree source named ``kind``, such as a loaded model's."""

    tree: PartitionTree
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in (WorstCaseSource.kind, LearnedSource.kind):
            raise ContractViolation(f"unknown tree source {self.kind!r}")


TreeSource = Union[WorstCaseSource, LearnedSource, StoredOrder]


@dataclass(frozen=True)
class BuildConfig:
    eps: float
    seed: Seed
    tree_source: TreeSource
    radius: float = 1.0

    def __post_init__(self) -> None:
        EpsParams(self.eps, self.radius)  # validate
        # the closed balls compare squares: past float64's normal range a
        # point's d2 and R*R could both overflow to inf, or underflow to 0
        outer = (1.0 + self.eps) * self.radius
        if not (self.radius * self.radius >= FLOAT64.tiny and outer * outer <= FLOAT64.max):
            raise ContractViolation(f"radius {self.radius} at eps {self.eps} squares outside float64's normal range")


@dataclass
class CountAnswer:
    """A query's weight and the tree walk's telemetry.

    An answer from ``count`` without ``verify`` holds its weight only: the
    walk runs on the first read of ``visited_nodes`` or ``verdict_counts``
    (``==``, ``repr`` and ``dataclasses.replace`` read them too), and the
    answer then drops its references to the index and the query.  It
    holds the query as the list of its coordinates that the check made,
    which no caller can reach, and its norm, and hands both to
    ``_within`` for the walk's two masks without checking the query again.
    """

    weight: float
    visited_nodes: int
    verdict_counts: dict[str, int]
    member_ranges: list[tuple[int, int]] | None = None

    @classmethod
    def _unwalked(cls, weight: float, idx: CountingIndex, coords: list[float], norm: float) -> CountAnswer:
        ans = cls.__new__(cls)
        ans.weight = weight
        ans._walk = (idx, coords, norm)
        return ans

    def __getattr__(self, name: str):
        # reached only for an attribute that is not set: the telemetry of an
        # answer whose walk has not run yet
        pending = self.__dict__.get("_walk")
        if pending is not None and name in ("visited_nodes", "verdict_counts"):
            idx, coords, norm = pending
            masks = _within(idx, np.array(coords), norm, (idx.working.outer_radius, idx.working.radius))
            self.visited_nodes, self.verdict_counts, _ = ptree.walk(idx.tree, *masks)
            self.__dict__.pop("_walk", None)
            return self.__dict__[name]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")


@dataclass
class CountingIndex:
    config: BuildConfig
    working: EpsParams  # halved error used by node verdicts and leaves
    tree: PartitionTree
    path_points: np.ndarray  # the points, in path order
    path_weights: np.ndarray  # their weights, in path order
    half_sq_norms: np.ndarray  # half the squared norms of path_points, by einsum
    max_norm: float  # the largest norm of path_points, from half_sq_norms
    spanning_tree: SpanningTree | None = None  # built by the paper's sources for n >= 2

    def points(self) -> WeightedPointSet:
        """The points and weights in data order, bit for bit as built; a new set on each call."""
        inverse = np.argsort(self.tree.order)
        return WeightedPointSet(self.path_points[inverse], self.path_weights[inverse])


def build_counting_index(pts: WeightedPointSet, cfg: BuildConfig) -> CountingIndex:
    """Build the full index over the leaf order of ``cfg.tree_source``.

    A ``StoredOrder`` skips tree construction and its tree becomes the
    index's own, so an index over a saved order answers bit-identically
    to the one that fitted it.  Whatever the source, the tree must hold
    one leaf per point.
    """
    working = EpsParams(cfg.eps / 2.0, cfg.radius)
    tree, spanning = _leaf_order(pts, working, cfg)
    if tree.n != len(pts):
        raise ContractViolation(f"path length {tree.n} does not match point count {len(pts)}")
    path_points = pts.points[tree.order]
    half_sq_norms = 0.5 * np.einsum("ij,ij->i", path_points, path_points)

    return CountingIndex(
        config=cfg,
        working=working,
        tree=tree,
        path_points=path_points,
        path_weights=pts.weights[tree.order],
        half_sq_norms=half_sq_norms,
        max_norm=math.sqrt(2.0 * half_sq_norms.max()),
        spanning_tree=spanning,
    )


def _leaf_order(
    pts: WeightedPointSet, working: EpsParams, cfg: BuildConfig
) -> tuple[PartitionTree, SpanningTree | None]:
    """The partition tree over ``cfg.tree_source``'s leaf order, and the spanning tree it linearizes, if one was built."""
    source = cfg.tree_source
    if isinstance(source, StoredOrder):
        return source.tree, None
    if isinstance(source, LearnedSource) and source.sample.queries.shape[1] != pts.dim:
        k = source.sample.queries.shape[1]
        raise ContractViolation(f"training sample dimension {k} does not match data dimension {pts.dim}")
    if len(pts) == 1:
        return PartitionTree(np.zeros(1, dtype=np.int64)), None
    if isinstance(source, WorstCaseSource):
        side = source.grid_side or working.eps * working.radius / math.sqrt(pts.dim)
        queries = generate_grid_queries(pts, working, GridSpec(side))
        lp = LightEdgeParams.for_eps(working.eps)
        spanning = build_low_stab_tree(pts, queries, working, lp, cfg.seed.derive(_SEED_TREE))
    elif isinstance(source, LearnedSource):
        spanning = learned_spanning_tree(pair_stab_counts(pts, source.sample, working), len(pts))
    else:
        raise ContractViolation(f"unknown tree source {type(source).__name__}")
    return tree_to_path(spanning, pts), spanning


def _within(idx: CountingIndex, qw: np.ndarray, norm: float, radii: tuple[float, ...]) -> list[np.ndarray]:
    """For each of ``radii``, whether each path point lies within it: exactly ``sq_dists_to(path_points, q) <= R*R``.

    ``norm`` is ``|q|`` by ``math.hypot``, and each ``R`` is a working
    radius.  The float64 pass of ``core.band_half_width``, centred at 0,
    gives ``h = P @ q - pp / 2`` and, for ``T = R*R``, the threshold
    ``s = (qq - T) / 2``: an ``h`` at or above the upper edge ``s + B/2``
    has ``d2 < T``, one below the lower edge ``s - B/2`` has ``d2 > T``.
    The upper edge decides each point; only the band between the edges is
    measured again with ``sq_dists_to``.  ``h`` and ``B``, which covers
    both working radii, are found once for all of ``radii``.  Where
    ``core.FLOAT64`` does not certify the query (``2M + B`` past its
    largest value, as when a square overflows, or d past its dimension
    limit), one ``sq_dists_to`` pass over every point gives every mask.
    """
    working = idx.working
    outer, r = working.outer_radius, working.radius
    # Python floats: a square that overflows is inf, with no warning
    qq = norm * norm
    m = idx.max_norm + norm
    m *= m
    d = idx.path_points.shape[1]
    half = band_half_width(d, m, qq - outer * outer, qq - r * r, FLOAT64)
    # a NaN fails the compare too, so it takes the exact pass
    if not (2.0 * m + 2.0 * half <= FLOAT64.max and d <= FLOAT64.max_dim):
        d2 = sq_dists_to(idx.path_points, qw)
        return [d2 <= R * R for R in radii]
    h = idx.path_points.dot(qw)
    h -= idx.half_sq_norms
    masks = []
    for R in radii:
        s = 0.5 * (qq - R * R)
        # mask lies within low, and the band is what low adds to it
        mask, low = h >= s + half, h >= s - half
        if np.count_nonzero(low) != np.count_nonzero(mask):
            band = np.flatnonzero(low ^ mask)
            mask[band] = sq_dists_to(idx.path_points[band], qw) <= R * R
        masks.append(mask)
    return masks


def count(idx: CountingIndex, q: np.ndarray, verify: bool = False) -> CountAnswer:
    """Approximate weight of the ball around ``q``, by one certified pass at the working outer radius.

    The returned weight is the exact total weight of the point set
    S = (ball of radius (1 + eps/2) r), so (ball of radius r) <= S <= (ball
    of radius (1+eps) r).  It is the tree walk's set for every tree: a
    point in the working annulus makes every slice holding it STABBED, so
    its leaf is reached and included; a point within r lies in a COVERED
    stop or a near leaf; and a point beyond (1 + eps/2) r lies in a
    DISJOINT stop or a far leaf.  The weight is numpy's sum of the path
    weights of S in path order, plus 0.0: a set whose weights are all -0.0
    weighs 0.0, as it did when the walk added from 0.0.

    The walk's telemetry is found on its first read (see ``CountAnswer``).
    In verification mode the walk runs at once, the answer also carries
    the path-order ranges whose union is S, and those ranges must cover
    exactly the positions whose weights were summed.
    """
    qw, coords, norm = point_and_norm(q, idx.path_points.shape[1])
    if not verify:
        (mask,) = _within(idx, qw, norm, (idx.working.outer_radius,))
        # ``ndarray.sum``'s reduction, bit for bit, without its Python wrapper
        weight = float(np.add.reduce(idx.path_weights[mask])) + 0.0
        return CountAnswer._unwalked(weight, idx, coords, norm)

    mask, inner = _within(idx, qw, norm, (idx.working.outer_radius, idx.working.radius))
    weight = float(np.add.reduce(idx.path_weights[mask])) + 0.0
    tree = idx.tree
    visited, verdicts, included = ptree.walk(tree, mask, inner)
    # included slices are disjoint, so preorder lists them by ``lo``
    ranges = list(zip(tree.lo[included].tolist(), tree.hi[included].tolist()))
    members = np.zeros_like(mask)
    for lo, hi in ranges:
        members[lo:hi] = True
    if not np.array_equal(members, mask):
        raise AssertionError("the walk's member ranges are not the set the weight was summed over")
    return CountAnswer(weight, visited, verdicts, ranges)


@dataclass
class EvalReport:
    """Holdout evaluation of a counting index."""

    mean_visiting: float
    mean_tq: float
    sandwich_pass_rate: float
    per_query: list[dict] = field(default_factory=list)
    # None for a learned order stored without its sample (a loaded model)
    holdout_overlaps_training: bool | None = False


def evaluate_visiting(idx: CountingIndex, holdout: QuerySample) -> EvalReport:
    """Exact visiting numbers, ambiguity counts, and sandwich checks on a holdout.

    The index is audited against its own points, ``idx.points()``, and
    the full-error sandwich of its own config.  For every holdout query the
    reported set is re-derived in verification mode and compared against
    exact range scans: the inner ball must be contained in the answer set
    and the answer set in the outer ball.  If the index was trained on
    queries and any holdout row coincides with a training row, the report
    flags the overlap (the caller is responsible for keeping holdouts
    fresh).  A ``StoredOrder`` of kind ``"learned"``, such as a loaded
    model's, does not hold the sample its order was fitted to and reports
    the overlap as None.

    The visiting number is the walk's own ``visited_nodes``, the paper's
    visiting number on closed balls at the working error, where the walk
    runs: ``ptree.visiting_number(idx.tree, q, idx.points(), idx.working)``.
    The sandwich check and ``t_q`` stay at the full error.
    """
    params = EpsParams(idx.config.eps, idx.config.radius)
    source = idx.config.tree_source
    overlaps: bool | None = False
    if isinstance(source, LearnedSource):
        train_rows = {row.tobytes() for row in source.sample.queries}
        overlaps = any(row.tobytes() in train_rows for row in holdout.queries)
    elif source.kind == LearnedSource.kind:
        overlaps = None

    pts_rows = point_rows(idx.points())
    rows: list[dict] = []
    passes = 0
    for q in holdout.queries:
        ans = count(idx, q, verify=True)
        answer_set: set[int] = set()
        for lo, hi in ans.member_ranges:
            answer_set.update(int(v) for v in idx.tree.order[lo:hi])
        inner, outer, t_q = exact_zones(pts_rows, q, params)
        ok = inner.issubset(answer_set) and answer_set.issubset(outer)
        passes += ok
        rows.append(
            {
                "visiting": ans.visited_nodes,
                "t_q": t_q,
                "sandwich_ok": bool(ok),
            }
        )
    m = len(holdout)
    return EvalReport(
        mean_visiting=float(np.mean([r["visiting"] for r in rows])),
        mean_tq=float(np.mean([r["t_q"] for r in rows])),
        sandwich_pass_rate=passes / m,
        per_query=rows,
        holdout_overlaps_training=overlaps,
    )

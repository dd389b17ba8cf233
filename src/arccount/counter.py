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
read-only arrays in path order (``points()``); like its tree and point sets,
it is frozen and compared by identity.  All internal structures run at the
halved error ``eps/2`` of ``BuildConfig.working``, so every answer lands
inside the full ``eps`` sandwich.

A query's answer set is exactly the points within the working outer
radius ``outer = (1 + eps/2) r``, whatever the tree (see ``count``).
``count`` checks the query once, with ``core.point_and_norm`` at the
data's dimension, which yields its norm by ``math.hypot`` beside the
shape, size and finiteness checks.  It finds the weight by one distance
pass over the points in path order, at that one threshold, at a radius
whose squares ``BuildConfig`` keeps normal.  One certified routine,
``_within``, gives the mask of every squared radius asked of it: one
BLAS matrix-vector product (GEMV) against half the squared norms
gives ``(|q|**2 - d2) / 2`` up to the rounding bound of
``core.band_half_width``, with ``d2`` from ``core.sq_dists_to``.  Only
the points within that bound of a threshold are measured again with
``sq_dists_to``, so each mask is exactly ``d2 <= R**2``; a query the
pass does not certify is measured once with ``sq_dists_to``, and that
one pass gives every mask.  The weight is the sum of the masked point
weights in path order.  What the pass reads of the index, its
``operands``, is derived once per index, on the first read: the path
arrays, their half squared norms, d, the squared working radii, the
bound's coefficients from ``core.band_coefficients`` and the largest
norm.  The index's fields hold nothing that can be derived, so a call
does no set-up of its own, and an index made by ``dataclasses.replace``
or ``io.load_model`` answers from its own points and config.

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

A verified answer comes from one step, ``_verified``, which both
``count(verify=True)`` and the audit call: it returns the answer and the
mask over path positions that its weight was summed over, once the walk's
included slices are checked to cover exactly that mask.
``evaluate_visiting(idx, holdout)`` audits that mask against the balls of
the full-error sandwich of its config, which one numpy prune and the
oracle's ``math.dist`` find.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar, NamedTuple, Union

import numpy as np

from .core import (
    FLOAT64,
    ContractViolation,
    EpsParams,
    GridSpec,
    Seed,
    WeightedPointSet,
    band_coefficients,
    point_and_norm,
    sq_dists_to,
)
from .learned import QuerySample, learned_spanning_tree, pair_stab_counts
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
        if not isinstance(self.tree, PartitionTree):
            raise ContractViolation(f"a stored order takes a PartitionTree, got {type(self.tree).__name__}")
        if self.kind not in (WorstCaseSource.kind, LearnedSource.kind):
            raise ContractViolation(f"unknown tree source {self.kind!r}")


TreeSource = Union[WorstCaseSource, LearnedSource, StoredOrder]


@dataclass(frozen=True)
class BuildConfig:
    """The full error ``eps``, the radius and the tree source; ``working`` is the halved error the index runs at."""

    eps: float
    seed: Seed
    tree_source: TreeSource
    radius: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.seed, Seed):
            raise ContractViolation(f"seed must be a Seed, got {type(self.seed).__name__}")
        if not isinstance(self.tree_source, (WorstCaseSource, LearnedSource, StoredOrder)):
            raise ContractViolation(f"unknown tree source {type(self.tree_source).__name__}")
        EpsParams(self.eps, self.radius)  # validate
        # the closed balls compare squares: past float64's normal range a
        # point's d2 and R*R could both overflow to inf, or underflow to 0
        outer = (1.0 + self.eps) * self.radius
        if not (self.radius * self.radius >= FLOAT64.tiny and outer * outer <= FLOAT64.max):
            raise ContractViolation(f"radius {self.radius} at eps {self.eps} squares outside float64's normal range")

    @cached_property
    def working(self) -> EpsParams:
        """The halved error ``eps/2`` at ``radius``, at which the tree is built and every query answered."""
        return EpsParams(self.eps / 2.0, self.radius)


@dataclass
class CountAnswer:
    """A query's weight and the tree walk's telemetry.

    An answer from ``count`` without ``verify``, which ``count`` makes
    without ``__init__``, holds its weight only: the walk runs on the
    first read of ``visited_nodes`` or ``verdict_counts`` (``==``, ``repr``
    and ``dataclasses.replace`` read them too), and the answer then drops
    its references to the index and the query.  It holds the query as the
    list of its coordinates that the check made, which no caller can
    reach, and its norm, and hands both to ``_within``, with the index's
    operands, for the walk's two masks without checking the query again.
    """

    weight: float
    visited_nodes: int
    verdict_counts: dict[str, int]
    member_ranges: list[tuple[int, int]] | None = None

    def __getattr__(self, name: str):
        # reached only for an attribute that is not set: the telemetry of an
        # answer whose walk has not run yet
        pending = self.__dict__.get("_walk")
        if pending is not None and name in ("visited_nodes", "verdict_counts"):
            idx, coords, norm = pending
            ops = idx.operands
            masks = _within(ops, np.array(coords), norm, (ops.outer_sq, ops.inner_sq))
            self.visited_nodes, self.verdict_counts, _ = ptree.walk(idx.tree, *masks)
            self.__dict__.pop("_walk", None)
            return self.__dict__[name]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")


class PassOperands(NamedTuple):
    """What ``_within``'s certified pass reads of an index, derived once per index."""

    path_points: np.ndarray
    path_weights: np.ndarray
    half_sq_norms: np.ndarray
    d: int
    outer_sq: float  # the working outer radius, squared
    inner_sq: float  # the working radius, squared
    band_a: float  # core.band_coefficients(d, FLOAT64)
    band_b: float
    max_norm: float


@dataclass(frozen=True, eq=False)
class CountingIndex:
    """The index: its config, tree and path-order arrays, and the operands of its certified pass.

    The fields hold only what cannot be derived.  ``operands`` is no field:
    each index derives it from its own points and config on the first read
    and keeps it, so an index made by ``dataclasses.replace`` or
    ``io.load_model`` answers from the points and radii it holds, and a
    load that answers nothing derives nothing.
    """

    config: BuildConfig
    tree: PartitionTree
    path_points: np.ndarray  # the points, in path order
    path_weights: np.ndarray  # their weights, in path order
    spanning_tree: SpanningTree | None = None  # built by the paper's sources for n >= 2

    @cached_property
    def operands(self) -> PassOperands:
        """What the certified pass reads, derived from this index's own fields on the first read."""
        points, working = self.path_points, self.config.working
        d = points.shape[1]
        half_sq_norms = 0.5 * np.einsum("ij,ij->i", points, points)
        half_sq_norms.setflags(write=False)
        outer, r = working.outer_radius, working.radius
        return PassOperands(
            points, self.path_weights, half_sq_norms, d, outer * outer, r * r,
            *band_coefficients(d, FLOAT64), math.sqrt(2.0 * half_sq_norms.max()),
        )

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
    tree, spanning = _leaf_order(pts, cfg)
    if tree.n != len(pts):
        raise ContractViolation(f"path length {tree.n} does not match point count {len(pts)}")
    path_points, path_weights = pts.points[tree.order], pts.weights[tree.order]
    for arr in (path_points, path_weights):
        arr.setflags(write=False)
    return CountingIndex(cfg, tree, path_points, path_weights, spanning)


def _leaf_order(pts: WeightedPointSet, cfg: BuildConfig) -> tuple[PartitionTree, SpanningTree | None]:
    """The partition tree over ``cfg.tree_source``'s leaf order, and the spanning tree it linearizes, if one was built."""
    # read for every source: a halved eps that underflows to 0 refuses the build
    source, working = cfg.tree_source, cfg.working
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
    else:
        spanning = learned_spanning_tree(pair_stab_counts(pts, source.sample, working), len(pts))
    return tree_to_path(spanning, pts), spanning


def _within(ops: PassOperands, qw: np.ndarray, norm: float, thresholds: tuple[float, ...]) -> list[np.ndarray]:
    """For each of ``thresholds``, whether each path point lies within it: exactly ``sq_dists_to(path_points, q) <= T``.

    ``ops`` are an index's operands, ``norm`` is ``|q|`` by ``math.hypot``,
    and each ``T`` is a working radius squared, as ``ops`` holds them.  The
    float64 pass of ``core.band_half_width``, centred at 0, gives
    ``h = P @ q - pp / 2`` and the threshold ``s = (qq - T) / 2``: an ``h``
    at or above the upper edge ``s + B/2`` has ``d2 < T``, one below the
    lower edge ``s - B/2`` has ``d2 > T``.  The upper edge decides each
    point; only the band between the edges is measured again with
    ``sq_dists_to``.  ``h`` and ``B/2``, which ``ops``' band coefficients
    give for both working radii, are found once for all of ``thresholds``.
    Where ``core.FLOAT64``, read on each call, does not certify the query
    (``2M + B`` past its largest value, as when a square overflows, or d
    past its dimension limit), one ``sq_dists_to`` pass over every point
    gives every mask.
    """
    points, _, half_sq_norms, d, outer_sq, inner_sq, a, b, max_norm = ops
    # Python floats: a square that overflows is inf, with no warning
    qq = norm * norm
    m = max_norm + norm
    m *= m
    half = a * (m + abs(qq - outer_sq) + abs(qq - inner_sq)) + b
    # a NaN fails the compare too, so it takes the exact pass
    if not (2.0 * m + 2.0 * half <= FLOAT64.max and d <= FLOAT64.max_dim):
        d2 = sq_dists_to(points, qw)
        return [d2 <= T for T in thresholds]
    h = points.dot(qw)
    h -= half_sq_norms
    masks = []
    for T in thresholds:
        s = 0.5 * (qq - T)
        # mask lies within low, and the band is what low adds to it: empty
        # when their bytes are equal
        mask, low = h >= s + half, h >= s - half
        if low.tobytes() != mask.tobytes():
            band = np.flatnonzero(low ^ mask)
            mask[band] = sq_dists_to(points[band], qw) <= T
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

    Everything the pass reads of the index comes from ``idx.operands``,
    so no call after the index's first does set-up of its own.  The walk's telemetry is found on
    its first read (see ``CountAnswer``).  In verification mode the answer
    is ``_verified``'s: the walk runs at once, the answer also carries the
    path-order ranges whose union is S, and those ranges must cover
    exactly the positions whose weights were summed.
    """
    ops = idx.operands
    qw, coords, norm = point_and_norm(q, ops.d)
    if verify:
        return _verified(idx, qw, norm)[0]
    (mask,) = _within(ops, qw, norm, (ops.outer_sq,))
    ans = CountAnswer.__new__(CountAnswer)
    # ``ndarray.sum``'s reduction, bit for bit, without its Python wrapper
    ans.weight = float(np.add.reduce(ops.path_weights[mask])) + 0.0
    ans._walk = (idx, coords, norm)
    return ans


def _verified(idx: CountingIndex, qw: np.ndarray, norm: float) -> tuple[CountAnswer, np.ndarray]:
    """The verified answer to the checked query ``qw`` of norm ``norm``, and the mask its weight was summed over.

    One ``_within`` call gives both working masks; the walk runs on them,
    and the union of the slices it includes must be that mask, or the
    step raises ``AssertionError``.  ``count(verify=True)`` returns the
    answer, and ``evaluate_visiting`` audits the mask.
    """
    ops = idx.operands
    mask, inner = _within(ops, qw, norm, (ops.outer_sq, ops.inner_sq))
    weight = float(np.add.reduce(ops.path_weights[mask])) + 0.0
    tree = idx.tree
    visited, verdicts, included = ptree.walk(tree, mask, inner)
    # included slices are disjoint, so preorder lists them by ``lo``
    ranges = list(zip(tree.lo[included].tolist(), tree.hi[included].tolist()))
    members = np.zeros_like(mask)
    for lo, hi in ranges:
        members[lo:hi] = True
    if not np.array_equal(members, mask):
        raise AssertionError("the walk's member ranges are not the set the weight was summed over")
    return CountAnswer(weight, visited, verdicts, ranges), mask


@dataclass
class EvalReport:
    """Holdout evaluation of a counting index."""

    mean_visiting: float
    mean_tq: float
    sandwich_pass_rate: float
    per_query: list[dict] = field(default_factory=list)
    # None for a learned order stored without its sample (a loaded model)
    holdout_overlaps_training: bool | None = False


def _row_keys(rows: np.ndarray) -> set[bytes]:
    """The bytes of each row of a sample's C-ordered ``rows`` plus 0.0, which turns -0.0 into 0.0."""
    rows = rows + 0.0
    return set(rows.view(f"V{rows.strides[0]}").ravel().tolist())


def _zones(points: np.ndarray, q: np.ndarray, params: EpsParams) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the ``points`` within ``params.radius`` and ``params.outer_radius`` of ``q``, by the oracle's ``math.dist``.

    One numpy pass, sharing no code with ``_within``, drops a point only
    if its ``e``, the squared differences summed against ones, exceeds
    ``(c R)**2``: ``R = (1+eps) r``, ``c = 1 + (d + 4) 2**-50``.  With
    ``u = 2**-53`` and ``D`` the exact squared norm of the rounded
    ``p - q`` that ``math.dist`` also takes, ``e <= (1 + (d+1) u) D``
    plus ``d 2**-1075`` from subnormal squares, under ``2 d u R**2`` as
    ``BuildConfig`` keeps ``r*r`` normal; ``math.dist`` is ``sqrt(D)``
    within one ulp, and ``c`` and its square round by ``u`` each.  So a
    dropped point's ``math.dist`` exceeds ``R``: ``c - 1`` is over five
    times the ``(3d + 8) u / 2`` these errors need.  Every other point,
    one whose ``e`` overflowed to inf included, is measured.
    """
    with np.errstate(over="ignore"):
        diff = points - q
        diff *= diff
        e = diff.dot(np.ones(points.shape[1]))
    cut = (1.0 + (points.shape[1] + 4) * 2.0**-50) * params.outer_radius
    kept = np.flatnonzero(~((e > cut * cut) & np.isfinite(e)))
    qt = q.tolist()
    dists = np.array([math.dist(p, qt) for p in points[kept].tolist()])
    inner, outer = np.zeros((2, len(points)), dtype=bool)
    inner[kept], outer[kept] = dists <= params.radius, dists <= params.outer_radius
    return inner, outer


def evaluate_visiting(idx: CountingIndex, holdout: QuerySample) -> EvalReport:
    """Exact visiting numbers, ambiguity counts, and sandwich checks on a holdout.

    Each holdout query is checked once and answered by ``_verified``, the
    step behind ``count(verify=True)``.  The mask its weight was summed
    over, which the walk's member ranges cover exactly, must hold the
    inner ball of ``_zones`` (the index's own points, its config's full
    error) and fit in the outer; ``t_q`` is their difference in size.  All
    three are as the oracle's scans find them.  A holdout row equal to a
    training row (``-0.0`` to ``0.0``) flags the overlap, which a
    ``StoredOrder`` of kind ``"learned"``, holding no sample, reports as
    None.  The visiting number is the walk's ``visited_nodes``:
    ``ptree.visiting_number`` at the working error.
    """
    params = EpsParams(idx.config.eps, idx.config.radius)
    source = idx.config.tree_source
    overlaps: bool | None = False
    if isinstance(source, LearnedSource):
        overlaps = not _row_keys(source.sample.queries).isdisjoint(_row_keys(holdout.queries))
    elif source.kind == LearnedSource.kind:
        overlaps = None

    d = idx.path_points.shape[1]
    rows: list[dict] = []
    for q in holdout.queries:
        qw, _, norm = point_and_norm(q, d)
        ans, members = _verified(idx, qw, norm)
        inner, outer = _zones(idx.path_points, qw, params)
        ok = not (inner & ~members).any() and not (members & ~outer).any()
        t_q = int(np.count_nonzero(outer)) - int(np.count_nonzero(inner))
        rows.append({"visiting": ans.visited_nodes, "t_q": t_q, "sandwich_ok": ok})
    return EvalReport(
        mean_visiting=float(np.mean([r["visiting"] for r in rows])),
        mean_tq=float(np.mean([r["t_q"] for r in rows])),
        sandwich_pass_rate=sum(r["sandwich_ok"] for r in rows) / len(rows),
        per_query=rows,
        holdout_overlaps_training=overlaps,
    )

"""Low-stabbing spanning trees via multiplicative weight updates.

The builder maintains a multiset of queries, initially one copy of every
grid point near the data.  Each iteration finds an edge stabbed by as little
query weight as possible, adds it, doubles the weight of every query that
stabs it, and retires one endpoint.  Weights start at one and only double,
so the multiset is its support plus one stab exponent per query.  Heavy
queries are drawn more often into the candidate-generating net, so regions
that keep getting stabbed steer later edges away.  Contracting components
and repeating yields a full spanning tree whose worst-case stabbing number
grows only logarithmically in the size of the query universe.

The light-edge search never trusts approximate geometry for scoring: the
net and the cell bucketing only pick a small candidate set, and every
candidate is scored by its exact stabbing weight.
Points, cells and queries never move, so a build computes once every
point's near and far masks over the universe, by ``core.stab_masks``, the
package's one eps-stab rule, which queries each point's bucket cell
reaches (the cell-hit table), the list of point pairs sorted by distance,
and the pairs that share a bucket cell.  Forest rounds mask the points
they retire instead of copying the rest, and a search finds its candidates
without any n x n pass: it keeps the cell pairs whose ends are live, reads
its outsiders from the net's rows of the cell-hit table and pairs them up,
reads the closest live pairs from the sorted list, and merges all of them
as sorted keys ``a * n + b``.  Neither the net's draws nor the merged keys
are deduplicated: a query drawn twice reaches the same cells, and a pair
found twice scores the same twice, so the first of the lowest scores is
the same pair.  The universe, the tables and the sorted pairs are made in
whole-array passes over blocks, the differences laid out one axis at a
time, each squared distance summed as ``core.sq_dists_to`` sums it.
Query weights change only when an edge stabs some query, so the draw
weights, their running sums and the pair weights are derived again only
then, by :class:`PairWeights`.  It keeps the weight stabbing each pair in
one n x n matrix, since only the queries that stab the chosen edge change
weight: a candidate's score is two reads of it.  A doubling updates only
the pairs of the round's representatives, since every later search reads
pairs of them alone.  Weights are powers of two, so the matrix is exact
while their exponents span fewer than 53 - ceil(log2 m) bits.  It is never
rescaled: once the sums are inexact, or an entry could outgrow float64,
it is dropped and each candidate is summed on its own.  A build whose
tables or pair arrays exceed a fixed byte budget is refused before any of
them is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import ContractViolation, EpsParams, GridSpec, Seed, WeightedPointSet, sq_norms, stab_masks


class Edge(NamedTuple):
    a: int
    b: int


class UnionFind:
    """Disjoint sets over 0..n-1 with path compression."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


@dataclass
class QueryMultiset:
    """Distinct query points and how often each one's weight has doubled.

    Weights start at one and only double, so query ``i`` weighs exactly
    ``2**stab_exponents[i]``; :meth:`weights` derives them when needed.
    """

    support: np.ndarray  # (m, d), read-only
    stab_exponents: np.ndarray  # (m,) int64

    def __post_init__(self) -> None:
        self.support = np.ascontiguousarray(np.asarray(self.support, dtype=np.float64))
        self.support.flags.writeable = False
        self.stab_exponents = np.asarray(self.stab_exponents, dtype=np.int64)

    def __len__(self) -> int:
        return self.support.shape[0]

    @classmethod
    def from_support(cls, support: np.ndarray) -> "QueryMultiset":
        support = np.asarray(support, dtype=np.float64)
        if support.ndim != 2 or support.shape[0] == 0:
            raise ContractViolation("query support must be a nonempty (m, d) array")
        return cls(support=support, stab_exponents=np.zeros(support.shape[0], dtype=np.int64))

    def weights(self) -> np.ndarray:
        """Every query's weight over the heaviest one's, ``2**(e - max e)``.

        The common power-of-two scale keeps the weights finite.  While the
        exponents span at most 1022 it is exact, so it changes neither the
        order nor the ties of any sum of them.
        """
        e = self.stab_exponents
        return np.ldexp(1.0, e - e.max())

    def exponents_match_weights(self) -> bool:
        """Derived weight of every query is 2**(exponent - largest exponent), exactly."""
        e = self.stab_exponents
        with np.errstate(divide="ignore"):
            return bool(np.array_equal(np.log2(self.weights()), e - e.max()))


@dataclass(frozen=True)
class Forest:
    """Edges of one forest round."""

    n: int
    edges: tuple[Edge, ...]


@dataclass(frozen=True)
class SpanningTree:
    """A validated spanning tree on ``n`` vertices; frozen, its edges kept as a tuple."""

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(self.edges))
        if len(self.edges) != self.n - 1:
            raise ContractViolation(
                f"spanning tree on {self.n} vertices needs {self.n - 1} edges, got {len(self.edges)}"
            )
        uf = UnionFind(self.n)
        for e in self.edges:
            if e.a == e.b or not (0 <= e.a < self.n and 0 <= e.b < self.n):
                raise ContractViolation(f"bad edge {e}")
            if not uf.union(e.a, e.b):
                raise ContractViolation(f"edge {e} closes a cycle")

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        for row in adj:
            row.sort()
        return adj


@dataclass(frozen=True)
class LightEdgeParams:
    """Net exponent ``rho`` of the light-edge search; a build takes ``for_eps`` of its working error."""

    rho: float

    def __post_init__(self) -> None:
        if not (0.0 < self.rho < 1.0):
            raise ContractViolation(f"rho must lie in (0, 1), got {self.rho}")

    @classmethod
    def for_eps(cls, eps: float) -> "LightEdgeParams":
        return cls(rho=default_rho(eps))


def default_rho(eps: float) -> float:
    """Default net exponent eps^2 / (4*ln(1/eps) + 8)."""
    if not (0.0 < eps < 1.0):
        raise ContractViolation(f"eps must lie in (0, 1), got {eps}")
    return eps * eps / (4.0 * math.log(1.0 / eps) + 8.0)


# -- query universe ---------------------------------------------------------

_DIM_CAP = 8
_MAX_GRID_CELLS = 5_000_000
# largest grid cell index magnitude: every integer up to it is exact in float64
_MAX_CELL_INDEX = 2**53
# bytes of the arrays a worst-case build holds for its whole game: the three
# n x m bool tables over the universe (near and far masks, cell hits) may
# take 12,000,000 (n * m up to 4,000,000, which also bounds each search's
# passes over the universe), and the n(n-1)/2 int64 pair keys with the
# n x n float64 pair-weight matrix 2**28 (n up to about 4700)
_MAX_MASK_BYTES = 12_000_000
_MAX_PAIR_BYTES = 2**28
# bytes of each temporary array in the blocked passes below
_BLOCK_BYTES = 1 << 17
# queries and rows per GEMM block of the pair-weight matrix's first fill
_GEMM_BLOCK = 64


def _bucket_side(params: EpsParams, d: int) -> float:
    """Side of the light-edge search's bucket cells, ``eps * radius / (4 * sqrt(d))``."""
    return params.eps * params.radius / (4.0 * math.sqrt(d))


def light_edge_bytes(n: int, m: int) -> tuple[int, int]:
    """Bytes a worst-case build over ``n`` points and ``m`` queries holds: its n x m tables, and its pair arrays."""
    return 3 * n * m, 4 * n * (n - 1) + 8 * n * n


def generate_grid_queries(
    pts: WeightedPointSet,
    params: EpsParams,
    grid: GridSpec,
) -> QueryMultiset:
    """Every grid point within ``(1+eps) * radius`` of some input point, weight one.

    The support lists the grid cells in lexicographic order of their integer
    indices.  Enumeration cost grows exponentially with dimension, so
    dimensions above ``_DIM_CAP`` are refused outright; use sampled queries
    (or the learned builder) there instead.  Each point's box of cells is
    scanned, in whole-array passes over groups of points, and a scan past
    ``_MAX_GRID_CELLS`` cells is refused before any cell is made.  While
    the points' bounding box of cells holds no more cells than the scan
    makes, the kept cells are marked in a bool array over it and read back
    in order; else they are sorted and their repeats dropped.
    """
    d = pts.dim
    if d > _DIM_CAP:
        raise ContractViolation(
            f"grid query enumeration is infeasible in dimension {d} (cap {_DIM_CAP}); "
            "use sampled queries or the learned tree builder"
        )
    side = grid.side
    reach = params.outer_radius
    # the cell index bounds and counts stay float64 until the budget has
    # admitted them, so a tiny side is refused before any cast or arange; an
    # overflow there gives inf or nan, which the budget refuses
    with np.errstate(over="ignore", invalid="ignore"):
        lows = np.ceil((pts.points - reach) / side)
        highs = np.floor((pts.points + reach) / side)
        axes = highs - lows + 1.0
        counts = np.where(np.any(axes <= 0.0, axis=1), 0.0, np.prod(axes, axis=1))
        # written negated, so an inf or nan count is refused too
        over = ~(np.cumsum(counts) <= _MAX_GRID_CELLS)
        inexact = (counts != 0) & (np.maximum(-lows.min(axis=1), highs.max(axis=1)) > _MAX_CELL_INDEX)
    # refused as a scan point by point would meet them: the budget first
    over_at = int(np.argmax(over)) if over.any() else len(pts)
    if inexact[:over_at].any():
        raise ContractViolation(
            f"grid cell indices exceed {_MAX_CELL_INDEX}, where float64 cell "
            "centres stop being exact; use a larger grid side"
        )
    if over_at < len(pts):
        raise ContractViolation(
            "grid query enumeration exceeded the cell budget; "
            "use sampled queries or the learned tree builder"
        )
    owners = np.flatnonzero(counts)
    if owners.size == 0:
        raise ContractViolation("no grid queries fall near the data; grid side may be too large")
    sizes = counts[owners].astype(np.int64)
    lows, axes = lows[owners].astype(np.int64), axes[owners].astype(np.int64)
    ends = np.cumsum(sizes)
    # the owners' bounding box of cells: while it holds no more cells than
    # the scan makes, each kept cell is marked in a bool array over it, and
    # the marks read back in C order are the distinct cells in lexicographic
    # order; else the kept cells are sorted and their repeats dropped
    corner = lows.min(axis=0)
    box = tuple(int(k) for k in (lows + axes).max(axis=0) - corner)
    marks = np.zeros(box, dtype=bool) if math.prod(box) <= int(ends[-1]) else None
    per_pass = max(1, _BLOCK_BYTES // (8 * d))
    kept = [np.empty((0, d), dtype=np.int64)]
    lo = 0
    while lo < owners.size:
        # whole points, about per_pass cells, and at least one point
        base = int(ends[lo] - sizes[lo])
        hi = max(lo + 1, int(np.searchsorted(ends, base + per_pass, side="right")))
        owner = np.repeat(np.arange(lo, hi), sizes[lo:hi])
        point = pts.points[owners[lo:hi]]
        # each cell's offset in its point's box, taken apart last axis first
        # into the cell's index and its centre's difference to the point on
        # each axis
        rest = np.arange(owner.size) - np.repeat(ends[lo:hi] - sizes[lo:hi] - base, sizes[lo:hi])
        index: list[np.ndarray] = []
        diff = np.empty((owner.size, d))
        for k in range(d - 1, -1, -1):
            rest, at = np.divmod(rest, axes[owner, k])
            at += lows[owner, k]
            np.subtract(at * side, point[owner - lo, k], out=diff[:, k])
            index.insert(0, at)
        near = sq_norms(diff) <= reach * reach
        if marks is None:
            kept.append(np.stack([i[near] for i in index], axis=1))
        else:
            marks.reshape(-1)[np.ravel_multi_index([i[near] - c for i, c in zip(index, corner)], box)] = True
        lo = hi
    if marks is None:
        cells = np.concatenate(kept)
        order, fresh = _row_groups(cells)
        cells = cells[order[fresh]]  # the distinct cells, in lexicographic order
    else:
        cells = np.stack(np.unravel_index(np.flatnonzero(marks), box), axis=1) + corner
    if cells.shape[0] == 0:
        raise ContractViolation("no grid queries fall near the data; grid side may be too large")
    return QueryMultiset.from_support(cells.astype(np.float64) * side)


def _row_groups(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable lexicographic order of an integer array's rows, and which sorted rows start a run of equal rows."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    fresh = np.ones(rows.shape[0], dtype=bool)
    fresh[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    return order, fresh


# -- light edges ------------------------------------------------------------


@dataclass(frozen=True)
class BallRows:
    """What the light-edge search reads of each point, one row per point.

    ``near[i]`` marks the queries within ``radius`` of point ``i`` and
    ``far[i]`` those at least ``(1+eps)*radius`` away, over the whole query
    support: ``core.stab_masks`` of the point's ``sq_dists_to`` row.
    ``hits[q, i]`` is whether query ``q`` lies within ``(1+eps)*radius`` of
    the box of point ``i``'s bucket cell, of side
    ``eps * radius / (4 * sqrt(d))``: :func:`_cell_box_hits_net` over the
    whole support, so a net's rows of it give the net's outsiders.
    ``pairs`` lists every pair ``a < b`` as the key ``a * n + b``, ranked
    by squared distance, ties by ``(a, b)``, and ``cell_pairs`` the sorted
    keys of the pairs that share a bucket cell.  Points and queries never
    move, so a build computes these once for all its points; forest rounds
    and light-edge searches read them by point and query id and never copy
    a row.  A pair's mask alone is
    ``BallRows.of(np.stack([x, y]), support, params).stab_mask(0, 1)``.
    """

    near: np.ndarray  # (n, m) bool
    far: np.ndarray  # (n, m) bool
    hits: np.ndarray  # (m, n) bool
    pairs: np.ndarray  # (n * (n - 1) / 2,) int64
    cell_pairs: np.ndarray  # (pairs sharing a cell,) int64, ascending

    @classmethod
    def of(cls, points: np.ndarray, support: np.ndarray, params: EpsParams) -> "BallRows":
        (n, d), m = points.shape, support.shape[0]
        near = np.empty((n, m), dtype=bool)
        far = np.empty_like(near)
        step = max(1, _BLOCK_BYTES // (8 * m * d))
        for lo in range(0, n, step):
            d2 = _sq_dists_across(support, points[lo : lo + step])
            near[lo : lo + step], far[lo : lo + step] = stab_masks(d2, params)
        # the upper triangle in blocks of rows, then stably sorted: no n x n
        # matrix is formed.  Row a's pairs (a, a + 1 ...) take the flat
        # positions from starts[a]; a block's rows against the points past
        # its first row hold its part of the triangle, which is kept
        per_row = np.arange(n - 1, -1, -1)
        starts = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(per_row, out=starts[1:])
        d2 = np.empty(starts[-1])
        step = max(1, _BLOCK_BYTES // (8 * d))
        lo = 0
        while lo < n - 1:
            cols = n - 1 - lo
            hi = min(n - 1, lo + max(1, step // cols))
            block = _sq_dists_across(points[lo + 1 :], points[lo:hi])
            d2[starts[lo] : starts[hi]] = block[np.arange(cols) >= np.arange(hi - lo)[:, None]]
            lo = hi
        pairs = np.argsort(d2, kind="stable")
        del d2
        # flat position k of row a becomes the key a * n + b, b = a + 1 + k - starts[a],
        # in place, a block at a time, through an int32 row of each position
        row_of = np.repeat(np.arange(n, dtype=np.int32), per_row)
        shift = np.arange(n) * (n + 1) + 1 - starts[:-1]
        for lo in range(0, len(pairs), _BLOCK_BYTES // 8):
            block = pairs[lo : lo + _BLOCK_BYTES // 8]
            block += shift[row_of[block]]
        del row_of
        side = _bucket_side(params, d)
        cells = np.floor(points / side).astype(np.int64)
        # the cell boxes against blocks of queries, an (n, block, d) float64 pass each
        hits = np.empty((m, n), dtype=bool)
        step = max(1, _BLOCK_BYTES // (8 * n * d))
        for lo in range(0, m, step):
            hits[lo : lo + step] = _cell_box_hits_net(cells, side, support[lo : lo + step], params.outer_radius).T
        cell_a, cell_b = _cell_pairs(cells)
        return cls(near, far, hits, pairs, np.sort(cell_a * n + cell_b))

    def stab_mask(self, a: int | np.ndarray, b: int | np.ndarray) -> np.ndarray:
        """Which queries eps-stab the pair of rows ``a`` and ``b``; index arrays give one row per pair."""
        return (self.near[a] & self.far[b]) | (self.near[b] & self.far[a])


def _sq_dists_across(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``sq_dists_to(x, p)`` of every row ``p`` of ``y``, one row each, bit for bit.

    The (len(y), len(x), d) differences are laid out C-ordered one axis at
    a time, in whole-array passes, and summed by ``core.sq_norms``.
    """
    diff = np.empty((y.shape[0], x.shape[0], x.shape[1]))
    for k in range(x.shape[1]):
        np.subtract(x[:, k], y[:, k, None], out=diff[:, :, k])
    return sq_norms(diff.reshape(-1, x.shape[1])).reshape(y.shape[0], x.shape[0])


def _add_stabbed(x: np.ndarray, near: np.ndarray, far: np.ndarray, w: np.ndarray) -> None:
    """``x += (near * w) @ far.T`` for bool ``near`` and ``far`` over the same queries.

    Float64 GEMMs over blocks of ``_GEMM_BLOCK`` queries and as many rows.
    """
    for j in range(0, far.shape[1], _GEMM_BLOCK):
        cols = slice(j, j + _GEMM_BLOCK)
        far_t = far[:, cols].T.astype(np.float64)
        for i in range(0, x.shape[0], _GEMM_BLOCK):
            r = slice(i, i + _GEMM_BLOCK)
            x[r] += (near[r, cols] * w[cols]) @ far_t


# mask entries per scoring block of _stabbed_weights
_SCORE_CHUNK = 1 << 16


def _stabbed_weights(rows: BallRows, a: np.ndarray, b: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Current query weight stabbing each candidate pair ``(a[i], b[i])``, one sum per candidate.

    Each candidate's stabbed weights are summed on their own, as numpy
    sums them; :meth:`PairWeights.scores` reads this once its matrix is
    gone.  Blocks hold at most ``_SCORE_CHUNK`` mask entries.
    """
    scores = np.empty(a.size)
    step = max(1, _SCORE_CHUNK // weights.size)
    for lo in range(0, a.size, step):
        stabbed = rows.stab_mask(a[lo : lo + step], b[lo : lo + step])
        scores[lo : lo + step] = [weights[mask].sum() for mask in stabbed]
    return scores


class PairWeights:
    """The query weights the light-edge search reads, kept current through a build.

    ``query_weights`` is ``queries.weights()``, and ``running_sums`` its
    running sums, from which each search draws its net.  They change only
    when an edge stabs some query, so :meth:`double` derives them again
    then, and no search does.

    ``x[a, b]`` is ``sum 2**(e[q] - e0)`` over the queries ``q`` near ``a``
    and far from ``b``, with ``e0`` the largest exponent at construction,
    so a pair's stabbed weight, scaled by ``2**-e0``, is
    ``x[a, b] + x[b, a]``: one point's near and far masks are disjoint, so
    no query counts twice.  Every term is a power of two, so while the
    exponents pass :func:`sums_are_exact` every entry and score is exact,
    and equal to the per-pair sum ``weights[mask].sum()`` up to a
    power-of-two scale.  The matrix is one blocked GEMM at the start.
    Doubling the queries ``Q`` that stab an edge adds, in one product,
    ``(near[R][:, Q] * 2**(e[Q] - e0)) @ far[reps][:, Q].T`` to the rows
    ``R`` of the representatives ``reps`` near some query of ``Q``, over the
    columns of ``reps``: the search reads only pairs of the round's
    representatives, and a round's representatives hold every later
    round's, so the entries of any other pair go stale unread.

    The matrix is dropped for the rest of the build once the sums are
    inexact, or once an entry, at most ``m * 2**(max e - e0)``, could pass
    float64's range; :meth:`scores` then sums each pair on its own.
    """

    def __init__(self, rows: BallRows, queries: QueryMultiset) -> None:
        self.rows = rows
        self.queries = queries
        self.e0 = int(queries.stab_exponents.max())
        n = rows.near.shape[0]
        self.x: np.ndarray | None = np.zeros((n, n))
        self._derive()
        if self.x is not None:
            # the weights are 2**(e - e0) while e0 is the largest exponent
            _add_stabbed(self.x, rows.near, rows.far, self.query_weights)

    def _derive(self) -> None:
        """The draw weights and running sums of the current exponents, and the matrix's drop rule."""
        e = self.queries.stab_exponents
        self.query_weights = self.queries.weights()
        self.running_sums = np.cumsum(self.query_weights)
        if not sums_are_exact(e) or int(e.max()) - self.e0 + (e.size - 1).bit_length() >= 1023:
            self.x = None

    def scores(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Stabbed weight of each pair ``(a[i], b[i])`` of representatives, up to a power-of-two scale.

        Two reads of the matrix while it is kept, scaled by ``2**-e0``; else
        one sum per pair over ``query_weights``.
        """
        if self.x is None:
            return _stabbed_weights(self.rows, a, b, self.query_weights)
        return self.x[a, b] + self.x[b, a]

    def double(self, stabbed: np.ndarray, reps: np.ndarray) -> None:
        """Double the weight of the queries ``stabbed`` (ids), bumping their exponents; ``reps``' pairs stay current."""
        e = self.queries.stab_exponents
        if self.x is not None:
            near = self.rows.near[np.ix_(reps, stabbed)]
            hit = np.flatnonzero(near.any(axis=1))
            w = np.ldexp(1.0, e[stabbed] - self.e0)
            self.x[np.ix_(reps[hit], reps)] += (near[hit] * w) @ self.rows.far[np.ix_(reps, stabbed)].T
        e[stabbed] += 1
        self._derive()


class LiveRows:
    """The rows of a :class:`BallRows` that a forest round still searches.

    A round starts with its representatives ``reps`` alive and retires one
    point per edge by clearing its entry in ``alive``.  ``head`` indexes the
    sorted ``pairs``: every pair before it has a retired end, and since no
    point comes back to life within a round, it only moves forward.
    ``weights`` is the build's :class:`PairWeights`, shared by all its
    rounds; each doubling keeps the pairs of ``reps`` current.
    """

    def __init__(self, rows: BallRows, ids: np.ndarray | list[int], weights: PairWeights) -> None:
        self.rows = rows
        self.weights = weights
        self.alive = np.zeros(rows.near.shape[0], dtype=bool)
        self.alive[ids] = True
        self.reps = np.flatnonzero(self.alive)
        self.head = 0

    @classmethod
    def of(cls, pts: WeightedPointSet, queries: QueryMultiset, params: EpsParams) -> "LiveRows":
        """Every point of ``pts`` live, with their ball rows and pair weights under ``queries``."""
        rows = BallRows.of(pts.points, queries.support, params)
        return cls(rows, np.arange(len(pts)), PairWeights(rows, queries))

    def ids(self) -> np.ndarray:
        """The live rows, ascending."""
        return np.flatnonzero(self.alive)

    def live_keys(self, keys: np.ndarray) -> np.ndarray:
        """Which pair keys ``a * n + b`` have both ends live."""
        a, b = np.divmod(keys, self.alive.size)
        return self.alive[a] & self.alive[b]

    def cell_pairs(self) -> np.ndarray:
        """The sorted keys of the live pairs that share a bucket cell."""
        keys = self.rows.cell_pairs
        return keys[self.live_keys(keys)]

    def closest_pairs(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``count`` closest pairs ``a < b`` of live rows, ranked as in ``pairs``.

        The sorted pairs are read from the head in slices of n, each slice
        twice the last, up to ``max(n, _BLOCK_BYTES // 8)``, and the head
        moves to the first live pair seen.
        """
        n, pairs = self.alive.size, self.rows.pairs
        found: list[np.ndarray] = []
        want, pos, step = count, self.head, n
        while count > 0 and pos < pairs.size:
            keys = pairs[pos : pos + step]
            live = np.flatnonzero(self.live_keys(keys))
            if count == want:
                self.head = pos + (int(live[0]) if live.size else keys.size)
            found.append(keys[live[:count]])
            count -= found[-1].size
            pos += step
            step = min(2 * step, max(n, _BLOCK_BYTES // 8))
        return np.divmod(np.concatenate(found), n)


def _cell_box_hits_net(cells: np.ndarray, side: float, net: np.ndarray, reach: float) -> np.ndarray:
    """For each cell (integer row) and net point, whether the point is within ``reach`` of the cell box."""
    lo = cells * side
    hi = lo + side
    # the clip of each net point to each box, less the point: np.clip's
    # bounds are finite with lo <= hi, where it is maximum then minimum.
    # One (n, b) pass per axis into the (n, b, d) array the einsum sums
    diff = np.empty((cells.shape[0], net.shape[0], net.shape[1]))
    for k in range(net.shape[1]):
        axis = diff[:, :, k]
        np.maximum(net[:, k], lo[:, k, None], out=axis)
        np.minimum(axis, hi[:, k, None], out=axis)
        axis -= net[:, k]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    return d2 <= reach * reach


def sums_are_exact(exponents: np.ndarray) -> bool:
    """Whether every subset sum of the weights ``2**exponents`` is exact in float64.

    True when (largest exponent - smallest exponent) + ceil(log2 m) < 53:
    a subset sum is then a multiple of the smallest weight and less than
    2**53 times it, so any summation order gives the same, exact, result.
    """
    span = int(exponents.max()) - int(exponents.min())
    return span + (exponents.size - 1).bit_length() < 53


def weighted_draws(sums: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` indices drawn with replacement, each in proportion to its weight, from the running sums ``sums``.

    One uniform per draw, scaled to the total and located in the running
    sums.  A draw at the total, which no running sum exceeds, takes the
    last index.
    """
    u = rng.random(size) * sums[-1]
    return np.minimum(np.searchsorted(sums, u, side="right"), sums.size - 1)


def _cell_pairs(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every pair ``a < b`` of rows of ``cells`` that are equal, grouped by sorting the rows."""
    n = cells.shape[0]
    order, fresh = _row_groups(cells)  # stable: equal rows keep their order
    starts = np.flatnonzero(fresh)
    sizes = np.diff(np.append(starts, n))
    # sorted position p pairs with every later position of its group
    later = np.repeat(starts + sizes, sizes) - np.arange(n) - 1
    first = np.repeat(np.arange(n), later)
    second = first + 1 + np.arange(first.size) - np.repeat(np.cumsum(later) - later, later)
    return order[first], order[second]


def find_light_edge(
    pts: WeightedPointSet,
    queries: QueryMultiset,
    params: EpsParams,
    lp: LightEdgeParams,
    seed: Seed,
    live: LiveRows | None = None,
) -> Edge:
    """An edge over the live points of ``pts`` stabbed by (close to) the least current query weight.

    Candidates come from three sources: pairs sharing a bucket cell of side
    ``eps * radius / (4 * sqrt(d))``, all pairs of points whose cells every
    net query misses, and the three closest live pairs as an unconditional
    fallback.  Every candidate is then scored exactly against the full
    multiset, and the lowest score wins, ties to the lexicographically
    smallest pair, so the result is deterministic given the seed.

    ``live`` holds the ball rows, sorted pairs and pair weights of all of
    ``pts`` under ``queries``, and which of them the search runs over; by
    default they are computed here (:meth:`LiveRows.of`) and every point is
    live.  The edge's ends are indices into ``pts``.  The net is drawn from
    the running sums :class:`PairWeights` keeps, and the candidates are
    found without any n x n pass: the build's cell pairs with both ends
    live, the pairs of the live points that no net query's row of the
    cell-hit table reaches, and the closest live pairs from the sorted
    pairs.  The net's draws are not deduplicated: a repeated draw's row
    reaches the same cells.  The candidates are merged as sorted keys
    ``a * n + b``, repeats kept, and scored by their exact stabbed weights
    through :meth:`PairWeights.scores`: two reads of its matrix while kept,
    one sum per candidate once dropped.  A repeated key scores the same
    each time, so the first lowest score is still the smallest such pair.
    """
    if live is None:
        live = LiveRows.of(pts, queries, params)
    ids = live.ids()
    n = ids.size
    if n < 2:
        raise ContractViolation("light edge search needs at least 2 points")
    d = pts.dim
    weights = live.weights

    # 1. net: heavy queries show up proportionally to their current weight
    delta = min(0.99, d / n**lp.rho)
    raw = (d / delta) * (math.log(1.0 / delta) + math.log(max(2, n)))
    net_size = max(1, min(len(queries), math.ceil(raw)))
    picks = weighted_draws(weights.running_sums, seed.derive(0).generator(), net_size)

    # 2. pairs of points whose cells every net query misses by more than (1+eps)r
    size = len(pts)
    outsiders = ids[~live.rows.hits[picks].any(axis=0)[ids]]
    later = outsiders[:, None] < outsiders  # ascending, so a < b
    outsider_keys = (outsiders[:, None] * size + outsiders)[later]

    # the three closest live pairs, always in play
    near_a, near_b = live.closest_pairs(min(3, n * (n - 1) // 2))

    # 3. exact scoring against the full multiset, current weights included
    keys = np.sort(np.concatenate([live.cell_pairs(), outsider_keys, near_a * size + near_b]))
    a, b = np.divmod(keys, size)
    best = int(np.argmin(weights.scores(a, b)))
    return Edge(int(a[best]), int(b[best]))


# -- forests and trees ------------------------------------------------------


def build_low_stab_forest(
    pts: WeightedPointSet,
    queries: QueryMultiset,
    params: EpsParams,
    lp: LightEdgeParams,
    seed: Seed,
    live: LiveRows | None = None,
) -> Forest:
    """Halve the components of the live points of ``pts`` with light edges, updating query weights.

    Runs ceil(k/2) iterations for k live points.  Each one adds the light
    edge over the still live points, doubles the weight of every query that
    stabs it by bumping its exponent, and retires the edge's first endpoint
    by masking its row.  Every surviving live point represents a distinct
    component, so the edge set is acyclic by construction.  ``live`` holds
    the ball rows and pair weights of all of ``pts`` under ``queries`` and
    the round's points; by default they are computed here and every point
    is live.  An edge that stabs no query changes no weight; otherwise
    :meth:`PairWeights.double` bumps the exponents and derives the weights
    again.  The edges' ends are indices into ``pts``.
    """
    if live is None:
        live = LiveRows.of(pts, queries, params)
    k = int(np.count_nonzero(live.alive))
    if k < 2:
        raise ContractViolation("forest building needs at least 2 points")
    uf = UnionFind(len(pts))
    edges: list[Edge] = []
    for it in range(math.ceil(k / 2)):
        edge = find_light_edge(pts, queries, params, lp, seed.derive(it), live)
        merged = uf.union(edge.a, edge.b)
        assert merged, "light edge would close a cycle"
        edges.append(edge)
        stabbed = np.flatnonzero(live.rows.stab_mask(edge.a, edge.b))
        if stabbed.size:
            live.weights.double(stabbed, live.reps)
        live.alive[edge.a] = False
    return Forest(n=len(pts), edges=tuple(edges))


def build_low_stab_tree(
    pts: WeightedPointSet,
    queries: QueryMultiset,
    params: EpsParams,
    lp: LightEdgeParams,
    seed: Seed,
) -> SpanningTree:
    """Repeat forest rounds on component representatives until one tree remains.

    The query multiset carries its weights across rounds, so after the build
    each query's exponent equals the exact number of tree edges it stabs.
    Components at least halve per round, giving at most ceil(log2 n) + 1
    rounds and exactly n - 1 edges.  The points' ball rows, cell-hit table,
    sorted pairs, cell pairs and pair weights are computed once for the
    whole build.  A build whose near, far and cell-hit tables or pair arrays
    (:func:`light_edge_bytes`) exceed ``_MAX_MASK_BYTES`` or
    ``_MAX_PAIR_BYTES`` is refused before any of them is allocated.
    """
    n = len(pts)
    if n < 2:
        raise ContractViolation("spanning tree construction needs at least 2 points")
    masks, pairs = light_edge_bytes(n, len(queries))
    if masks > _MAX_MASK_BYTES or pairs > _MAX_PAIR_BYTES:
        raise ContractViolation(
            f"worst-case tree over {len(queries)} grid queries and {n} points needs "
            f"{masks} bytes of near, far and cell-hit tables and {pairs} of pair arrays, over the budget of "
            f"{_MAX_MASK_BYTES} and {_MAX_PAIR_BYTES}; "
            "use --mode learned, a larger eps or a coarser --query-grid-side"
        )
    rows = BallRows.of(pts.points, queries.support, params)
    weights = PairWeights(rows, queries)
    uf = UnionFind(n)
    edges: list[Edge] = []
    max_rounds = math.ceil(math.log2(n)) + 1
    for round_no in range(max_rounds + 1):
        reps = sorted({uf.find(i) for i in range(n)})
        if len(reps) == 1:
            break
        live = LiveRows(rows, reps, weights)
        forest = build_low_stab_forest(pts, queries, params, lp, seed.derive(round_no), live)
        for a, b in forest.edges:
            merged = uf.union(a, b)
            assert merged, "cross-round edge would close a cycle"
            edges.append(Edge(a, b))
    else:
        raise AssertionError("contraction failed to reach a single component in the round budget")
    return SpanningTree(n=n, edges=edges)

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
Points never move, so a build computes every point's near and far masks
over the universe, by ``core.stab_masks``, the package's one eps-stab
rule, and the list of point pairs sorted by distance, once.
Forest rounds mask the points they retire instead of copying the rest, and
a search finds its candidates without any n x n pass: it sorts the cell
rows into groups, pairs up the outsiders, reads the closest live pairs
from the sorted list, and merges all of them as sorted keys ``a * n + b``.
It then scores them with one product of their stab masks and the current
weights.  Weights are powers of two, so that product is exact while their
exponents span fewer than 53 - ceil(log2 m) bits; beyond that each
candidate is summed on its own.  A universe whose size times n exceeds a
fixed budget is refused before the first round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import ContractViolation, EpsParams, GridSpec, Seed, WeightedPointSet, sq_dists_to, stab_masks


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


@dataclass
class Forest:
    """Edges of one forest round."""

    n: int
    edges: list[Edge]


@dataclass
class SpanningTree:
    """A validated spanning tree on ``n`` vertices."""

    n: int
    edges: list[Edge]

    def __post_init__(self) -> None:
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
# universe size times point count: the light-edge search scores candidates
# against the whole universe, and a build holds two n x m masks
_MAX_LIGHT_EDGE_WORK = 4_000_000


def generate_grid_queries(
    pts: WeightedPointSet,
    params: EpsParams,
    grid: GridSpec,
) -> QueryMultiset:
    """Every grid point within ``(1+eps) * radius`` of some input point, weight one.

    The support lists the grid cells in lexicographic order of their integer
    indices.  Enumeration cost grows exponentially with dimension, so
    dimensions above ``_DIM_CAP`` are refused outright; use sampled queries
    (or the learned builder) there instead.
    """
    d = pts.dim
    if d > _DIM_CAP:
        raise ContractViolation(
            f"grid query enumeration is infeasible in dimension {d} (cap {_DIM_CAP}); "
            "use sampled queries or the learned tree builder"
        )
    side = grid.side
    reach = params.outer_radius
    kept = [np.empty((0, d), dtype=np.int64)]
    scanned = 0
    # the cell index bounds and counts stay float64 until the budget has
    # admitted them, so a tiny side is refused before any cast or arange; an
    # overflow there gives inf or nan, which the budget refuses
    with np.errstate(over="ignore", invalid="ignore"):
        lows = np.ceil((pts.points - reach) / side)
        highs = np.floor((pts.points + reach) / side)
        axes = highs - lows + 1.0
        counts = np.where(np.any(axes <= 0.0, axis=1), 0.0, np.prod(axes, axis=1))
    for p, lo, hi, count in zip(pts.points, lows, highs, counts.tolist()):
        if count == 0:
            continue
        # written negated, so an inf or nan count is refused too
        if not scanned + count <= _MAX_GRID_CELLS:
            raise ContractViolation(
                "grid query enumeration exceeded the cell budget; "
                "use sampled queries or the learned tree builder"
            )
        if max(-lo.min(), hi.max()) > _MAX_CELL_INDEX:
            raise ContractViolation(
                f"grid cell indices exceed {_MAX_CELL_INDEX}, where float64 cell "
                "centres stop being exact; use a larger grid side"
            )
        scanned += int(count)
        spans = [np.arange(l, h + 1) for l, h in zip(lo.astype(np.int64), hi.astype(np.int64))]
        mesh = np.stack(np.meshgrid(*spans, indexing="ij"), axis=-1).reshape(-1, d)
        centers = mesh * side
        kept.append(mesh[sq_dists_to(centers, p) <= reach * reach])
    cells = np.concatenate(kept)
    order, fresh = _row_groups(cells)
    cells = cells[order[fresh]]  # the distinct cells, in lexicographic order
    if cells.shape[0] == 0:
        raise ContractViolation("no grid queries fall near the data; grid side may be too large")
    return QueryMultiset.from_support(cells.astype(np.float64) * side)


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct entries of a 1-d array, ascending; ``np.unique`` without its hash table."""
    values = np.sort(values)
    return values[np.append(True, values[1:] != values[:-1])]


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
    ``pairs`` lists every pair ``a < b`` as the key ``a * n + b``, ranked
    by squared distance, ties by ``(a, b)``.  Points never move, so a build
    computes these once for all its points; forest rounds and light-edge
    searches read them by point id and never copy a row.  A pair's mask
    alone is ``BallRows.of(np.stack([x, y]), support, params).stab_mask(0, 1)``.
    """

    near: np.ndarray  # (n, m) bool
    far: np.ndarray  # (n, m) bool
    pairs: np.ndarray  # (n * (n - 1) / 2,) int64

    @classmethod
    def of(cls, points: np.ndarray, support: np.ndarray, params: EpsParams) -> "BallRows":
        n = points.shape[0]
        near = np.empty((n, support.shape[0]), dtype=bool)
        far = np.empty_like(near)
        for i, p in enumerate(points):
            near[i], far[i] = stab_masks(sq_dists_to(support, p), params)
        # the upper triangle row by row, each distance rounded as
        # sq_dists_to rounds it, then stably sorted: no n x n matrix is formed
        d2 = np.concatenate([sq_dists_to(points[i + 1 :], points[i]) for i in range(n)])
        order = np.argsort(d2, kind="stable")
        del d2
        return cls(near, far, np.flatnonzero(~np.tri(n, dtype=bool))[order])

    def stab_mask(self, a: int | np.ndarray, b: int | np.ndarray) -> np.ndarray:
        """Which queries eps-stab the pair of rows ``a`` and ``b``; index arrays give one row per pair."""
        return (self.near[a] & self.far[b]) | (self.near[b] & self.far[a])


class LiveRows:
    """The rows of a :class:`BallRows` that a forest round still searches.

    A round starts with its representatives alive and retires one point per
    edge by clearing its entry in ``alive``.  ``head`` indexes the sorted
    ``pairs``: every pair before it has a retired end, and since no point
    comes back to life within a round, it only moves forward.
    """

    def __init__(self, rows: BallRows, ids: np.ndarray | list[int]) -> None:
        self.rows = rows
        self.alive = np.zeros(rows.near.shape[0], dtype=bool)
        self.alive[ids] = True
        self.head = 0

    def ids(self) -> np.ndarray:
        """The live rows, ascending."""
        return np.flatnonzero(self.alive)

    def closest_pairs(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``count`` closest pairs ``a < b`` of live rows, ranked as in ``pairs``.

        The sorted pairs are read in slices of n from the head, and the head
        moves to the first live pair seen.
        """
        n, pairs = self.alive.size, self.rows.pairs
        found: list[np.ndarray] = []
        want, pos = count, self.head
        while count > 0 and pos < pairs.size:
            keys = pairs[pos : pos + n]
            live = np.flatnonzero(self.alive[keys // n] & self.alive[keys % n])
            if count == want:
                self.head = pos + (int(live[0]) if live.size else keys.size)
            found.append(keys[live[:count]])
            count -= found[-1].size
            pos += n
        return np.divmod(np.concatenate(found), n)


def _cell_box_hits_net(cells: np.ndarray, side: float, net: np.ndarray, reach: float) -> np.ndarray:
    """For each cell (integer row), whether some net point is within ``reach`` of the cell box."""
    lo = cells * side
    hi = lo + side
    # the clip of each net point to each box, less the point: np.clip's
    # bounds are finite with lo <= hi, where it is maximum then minimum
    diff = np.maximum(net, lo[:, None, :])
    np.minimum(diff, hi[:, None, :], out=diff)
    diff -= net
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    return (d2 <= reach * reach).any(axis=1)


def sums_are_exact(exponents: np.ndarray) -> bool:
    """Whether every subset sum of the weights ``2**exponents`` is exact in float64.

    True when (largest exponent - smallest exponent) + ceil(log2 m) < 53:
    a subset sum is then a multiple of the smallest weight and less than
    2**53 times it, so any summation order gives the same, exact, result.
    """
    span = int(exponents.max()) - int(exponents.min())
    return span + (exponents.size - 1).bit_length() < 53


def weighted_draws(weights: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` indices drawn with replacement, each in proportion to its weight.

    One uniform per draw, scaled to the total and located in the running
    sums.  A draw at the total, which no running sum exceeds, takes the
    last index.
    """
    cum = np.cumsum(weights)
    u = rng.random(size) * cum[-1]
    return np.minimum(np.searchsorted(cum, u, side="right"), weights.size - 1)


# mask entries per scoring block; the product casts a block to float64
_SCORE_CHUNK = 1 << 16


def _stabbed_weights(
    rows: BallRows, a: np.ndarray, b: np.ndarray, weights: np.ndarray, exact: bool
) -> np.ndarray:
    """Current query weight stabbing each candidate pair ``(a[i], b[i])``.

    When every subset sum of the weights is ``exact``, a block of
    candidates is scored by one mask-times-weights product; otherwise each
    candidate's stabbed weights are summed on their own, as numpy sums
    them.  Blocks hold at most ``_SCORE_CHUNK`` mask entries.
    """
    scores = np.empty(a.size)
    step = max(1, _SCORE_CHUNK // weights.size)
    for lo in range(0, a.size, step):
        stabbed = rows.stab_mask(a[lo : lo + step], b[lo : lo + step])
        if exact:
            scores[lo : lo + step] = stabbed @ weights
        else:
            scores[lo : lo + step] = [weights[mask].sum() for mask in stabbed]
    return scores


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

    ``live`` holds the ball masks and sorted pairs of all of ``pts`` and
    which of them the search runs over; by default they are computed here
    and every point is live.  The edge's ends are indices into ``pts``.
    The candidates are found without any n x n pass: cell groups by
    sorting the cell rows, outsider pairs from the outsider list, and the
    closest live pairs from the sorted pairs.  They are merged as sorted
    keys ``a * n + b`` and scored by their exact stabbed weights: one
    product over all candidates while the query exponents pass
    :func:`sums_are_exact`, else one sum per candidate.  The weights are
    derived once per search, and the net is drawn from them.
    """
    if live is None:
        live = LiveRows(BallRows.of(pts.points, queries.support, params), np.arange(len(pts)))
    ids = live.ids()
    n = ids.size
    if n < 2:
        raise ContractViolation("light edge search needs at least 2 points")
    d = pts.dim
    points = pts.points[ids]

    # 1. net: heavy queries show up proportionally to their current weight
    delta = min(0.99, d / n**lp.rho)
    raw = (d / delta) * (math.log(1.0 / delta) + math.log(max(2, n)))
    net_size = max(1, min(len(queries), math.ceil(raw)))
    weights = queries.weights()
    picks = _sorted_unique(weighted_draws(weights, seed.derive(0).generator(), net_size))
    net = queries.support[picks]

    # 2. bucket by cells of side eps*radius/(4*sqrt(d)): pairs sharing a cell
    side = params.eps * params.radius / (4.0 * math.sqrt(d))
    cells = np.floor(points / side).astype(np.int64)
    cell_a, cell_b = _cell_pairs(cells)

    # pairs of points whose cells every net query misses by more than (1+eps)r
    outsiders = np.flatnonzero(~_cell_box_hits_net(cells, side, net, params.outer_radius))
    out_a, out_b = np.triu_indices(outsiders.size, 1)

    # the three closest live pairs, always in play
    near_a, near_b = live.closest_pairs(min(3, n * (n - 1) // 2))

    # 3. exact scoring against the full multiset, current weights included
    size = len(pts)
    keys = _sorted_unique(
        np.concatenate(
            [
                ids[cell_a] * size + ids[cell_b],
                ids[outsiders[out_a]] * size + ids[outsiders[out_b]],
                near_a * size + near_b,
            ]
        )
    )
    a, b = np.divmod(keys, size)
    scores = _stabbed_weights(live.rows, a, b, weights, sums_are_exact(queries.stab_exponents))
    best = int(np.argmin(scores))
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
    the ball masks of all of ``pts`` and the round's points; by default they
    are computed here and every point is live.  The edges' ends are indices
    into ``pts``.
    """
    if live is None:
        live = LiveRows(BallRows.of(pts.points, queries.support, params), np.arange(len(pts)))
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
        queries.stab_exponents[live.rows.stab_mask(edge.a, edge.b)] += 1
        live.alive[edge.a] = False
    return Forest(n=len(pts), edges=edges)


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
    rounds and exactly n - 1 edges.  The points' ball masks and sorted
    pairs are computed once for the whole build.  A universe whose size
    times n exceeds ``_MAX_LIGHT_EDGE_WORK`` is refused before the first
    round.
    """
    n = len(pts)
    if n < 2:
        raise ContractViolation("spanning tree construction needs at least 2 points")
    work = len(queries) * n
    if work > _MAX_LIGHT_EDGE_WORK:
        raise ContractViolation(
            f"worst-case tree over {len(queries)} grid queries and {n} points "
            f"({work} query-point pairs) exceeds the budget of {_MAX_LIGHT_EDGE_WORK}; "
            "use --mode learned, a larger eps or a coarser --query-grid-side"
        )
    rows = BallRows.of(pts.points, queries.support, params)
    uf = UnionFind(n)
    edges: list[Edge] = []
    max_rounds = math.ceil(math.log2(n)) + 1
    for round_no in range(max_rounds + 1):
        reps = sorted({uf.find(i) for i in range(n)})
        if len(reps) == 1:
            break
        forest = build_low_stab_forest(pts, queries, params, lp, seed.derive(round_no), LiveRows(rows, reps))
        for a, b in forest.edges:
            merged = uf.union(a, b)
            assert merged, "cross-round edge would close a cycle"
            edges.append(Edge(a, b))
    else:
        raise AssertionError("contraction failed to reach a single component in the round budget")
    return SpanningTree(n=n, edges=edges)

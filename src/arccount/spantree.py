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
net, the shared projection, and the cell bucketing only pick a small
candidate set, and every candidate is scored by its exact stabbing weight.
Points never move, so each forest round computes every point's near and far
masks over the universe once, and a search scores all its candidates with
one product of their stab masks and the current weights.  Weights are
powers of two, so that product is exact while their exponents span fewer
than 53 - ceil(log2 m) bits; beyond that each candidate is summed on its
own.  A universe whose size times n exceeds a fixed budget is refused
before the first round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import ContractViolation, EpsParams, GridSpec, Seed, WeightedPointSet, gaussian_projection_matrix, sq_dists_to


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
# universe size times point count: the light-edge search scores candidates
# against the whole universe, and each forest round holds two n x m masks
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
    for p in pts.points:
        lo = np.ceil((p - reach) / side).astype(np.int64)
        hi = np.floor((p + reach) / side).astype(np.int64)
        spans = [np.arange(l, h + 1) for l, h in zip(lo, hi)]
        count = int(np.prod([len(s) for s in spans]))
        scanned += count
        if scanned > _MAX_GRID_CELLS:
            raise ContractViolation(
                "grid query enumeration exceeded the cell budget; "
                "use sampled queries or the learned tree builder"
            )
        if count == 0:
            continue
        mesh = np.stack(np.meshgrid(*spans, indexing="ij"), axis=-1).reshape(-1, d)
        centers = mesh * side
        kept.append(mesh[sq_dists_to(centers, p) <= reach * reach])
    cells = _sorted_unique_rows(np.concatenate(kept))
    if cells.shape[0] == 0:
        raise ContractViolation("no grid queries fall near the data; grid side may be too large")
    return QueryMultiset.from_support(cells.astype(np.float64) * side)


def _sorted_unique_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of an integer array, in lexicographic order."""
    rows = rows[np.lexsort(rows.T[::-1])]
    fresh = np.ones(rows.shape[0], dtype=bool)
    fresh[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    return rows[fresh]


# -- light edges ------------------------------------------------------------


def _stab_weight_columns(
    support: np.ndarray, point: np.ndarray, params: EpsParams
) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks over queries: within ``radius`` of ``point`` and beyond ``(1+eps)*radius``."""
    d2 = sq_dists_to(support, point)
    r2 = params.radius * params.radius
    big2 = params.outer_radius * params.outer_radius
    return d2 <= r2, d2 >= big2


def stab_mask_for_pair(
    support: np.ndarray, x: np.ndarray, y: np.ndarray, params: EpsParams
) -> np.ndarray:
    """Which support queries eps-stab the pair (x, y); vectorized over queries."""
    near_x, far_x = _stab_weight_columns(support, x, params)
    near_y, far_y = _stab_weight_columns(support, y, params)
    return (near_x & far_y) | (near_y & far_x)


def _pair_sq_dists(points: np.ndarray) -> np.ndarray:
    """The (n, n) matrix of squared distances between the rows of ``points``."""
    diffs = points[:, None, :] - points[None, :, :]
    return np.einsum("ijk,ijk->ij", diffs, diffs)


@dataclass(frozen=True)
class BallRows:
    """What the light-edge search reads of each point, one row per point.

    ``near[i]`` marks the queries within ``radius`` of point ``i`` and
    ``far[i]`` those at least ``(1+eps)*radius`` away, over the whole query
    support; ``pair_d2`` holds the squared distances between the points.
    Points never move, so a forest round computes these once, hands them
    to every light-edge search and drops each retired point's row.
    """

    near: np.ndarray  # (n, m) bool
    far: np.ndarray  # (n, m) bool
    pair_d2: np.ndarray  # (n, n)

    @classmethod
    def of(cls, points: np.ndarray, support: np.ndarray, params: EpsParams) -> "BallRows":
        near = np.empty((points.shape[0], support.shape[0]), dtype=bool)
        far = np.empty_like(near)
        for i, p in enumerate(points):
            near[i], far[i] = _stab_weight_columns(support, p, params)
        return cls(near, far, _pair_sq_dists(points))

    def without(self, row: int) -> "BallRows":
        """These rows less row ``row``."""
        keep = np.arange(self.near.shape[0]) != row
        return BallRows(self.near[keep], self.far[keep], self.pair_d2[np.ix_(keep, keep)])

    def stab_mask(self, a: int | np.ndarray, b: int | np.ndarray) -> np.ndarray:
        """Which queries eps-stab the pair of rows ``a`` and ``b``; index arrays give one row per pair."""
        return (self.near[a] & self.far[b]) | (self.near[b] & self.far[a])


def _cell_box_hits_net(cells: np.ndarray, side: float, net: np.ndarray, reach: float) -> np.ndarray:
    """For each cell (integer row), whether some net point is within ``reach`` of the cell box."""
    lo = cells * side
    hi = lo + side
    diff = np.clip(net[None, :, :], lo[:, None, :], hi[:, None, :]) - net[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    return (d2 <= reach * reach).any(axis=1)


def closest_pairs(pair_d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The three closest pairs ``a < b`` of a square distance matrix.

    Pairs are ranked by distance, ties by ``(a, b)``: the same pairs, in
    the same order, as a stable argsort of the upper triangle, found with a
    partition and a sort of the entries at or below the cut.
    """
    n = pair_d2.shape[0]
    flat = np.where(np.tri(n, dtype=bool), np.inf, pair_d2).ravel()
    count = min(3, n * (n - 1) // 2)
    cut = np.partition(flat, count - 1)[count - 1]
    pos = np.nonzero(flat <= cut)[0]
    pos = pos[np.argsort(flat[pos], kind="stable")[:count]]
    return np.divmod(pos, n)


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


def find_light_edge(
    pts: WeightedPointSet,
    queries: QueryMultiset,
    params: EpsParams,
    lp: LightEdgeParams,
    seed: Seed,
    rows: BallRows | None = None,
) -> Edge:
    """An edge over ``pts`` stabbed by (close to) the least current query weight.

    Candidates come from three sources: pairs sharing a bucket cell after a
    shared Gaussian projection, all pairs of points far from every net
    query, and the three closest projected pairs as an unconditional
    fallback.  Every candidate is then scored exactly against the full
    multiset, and the lowest score wins, ties to the lexicographically
    smallest pair, so the result is deterministic given the seed.

    ``rows`` are the points' ball masks and pair distances, in the order of
    ``pts``; they are computed here when not given.  Scores are the exact
    stabbed weights: one product over all candidates while the query
    exponents pass :func:`sums_are_exact`, else one sum per candidate.
    The weights are derived once per search, and the net is drawn from them.
    """
    n = len(pts)
    if n < 2:
        raise ContractViolation("light edge search needs at least 2 points")
    d = pts.dim
    if rows is None:
        rows = BallRows.of(pts.points, queries.support, params)

    # 1. net: heavy queries show up proportionally to their current weight
    delta = min(0.99, d / n**lp.rho)
    raw = (d / delta) * (math.log(1.0 / delta) + math.log(max(2, n)))
    net_size = max(1, min(len(queries), math.ceil(raw)))
    weights = queries.weights()
    picks = np.unique(weighted_draws(weights, seed.derive(0).generator(), net_size))
    net = queries.support[picks]

    # 2. shared projection; skip it when it would not reduce the dimension
    k = max(1, math.ceil(math.log(max(2, len(picks))) / (params.eps**2)))
    if k < d:
        matrix = gaussian_projection_matrix(d, k, seed.derive(1))
        proj_pts = pts.points @ matrix
        proj_net = net @ matrix
        proj_d2 = _pair_sq_dists(proj_pts)
        k_eff = k
    else:
        proj_pts = pts.points
        proj_net = net
        proj_d2 = rows.pair_d2
        k_eff = d

    # 3. bucket by cells of side eps*radius/(4*sqrt(k)): pairs sharing a cell
    side = params.eps * params.radius / (4.0 * math.sqrt(k_eff))
    cells = np.floor(proj_pts / side).astype(np.int64)
    candidate = np.ones((n, n), dtype=bool)
    for col in cells.T:
        candidate &= col[:, None] == col[None, :]

    # pairs of points whose cells every net query misses by more than (1+eps)r
    outsider = ~_cell_box_hits_net(cells, side, proj_net, params.outer_radius)
    candidate |= outsider[:, None] & outsider[None, :]

    # fallback: the three closest projected pairs are always in play
    candidate[closest_pairs(proj_d2)] = True

    # 4. exact scoring against the full multiset, current weights included
    a, b = np.nonzero(candidate & ~np.tri(n, dtype=bool))
    scores = _stabbed_weights(rows, a, b, weights, sums_are_exact(queries.stab_exponents))
    best = int(np.argmin(scores))
    return Edge(int(a[best]), int(b[best]))


# -- forests and trees ------------------------------------------------------


def build_low_stab_forest(
    pts: WeightedPointSet,
    queries: QueryMultiset,
    params: EpsParams,
    lp: LightEdgeParams,
    seed: Seed,
) -> Forest:
    """Halve the components of ``pts`` with light edges, updating query weights.

    Runs ceil(n/2) iterations.  Each one adds the light edge over the still
    active points, doubles the weight of every query that stabs it by
    bumping its exponent, and retires the edge's first endpoint.  Every
    surviving active point represents a distinct component, so the edge set
    is acyclic by construction.  The points' ball masks are computed once
    for the round.
    """
    n = len(pts)
    if n < 2:
        raise ContractViolation("forest building needs at least 2 points")
    rows = BallRows.of(pts.points, queries.support, params)
    active = list(range(n))
    uf = UnionFind(n)
    edges: list[Edge] = []
    for it in range(math.ceil(n / 2)):
        sub = WeightedPointSet(pts.points[active], pts.weights[active])
        local = find_light_edge(sub, queries, params, lp, seed.derive(it), rows)
        a, b = active[local.a], active[local.b]
        merged = uf.union(a, b)
        assert merged, "light edge would close a cycle"
        edges.append(Edge(a, b))
        queries.stab_exponents[rows.stab_mask(local.a, local.b)] += 1
        del active[local.a]
        rows = rows.without(local.a)
    return Forest(n=n, edges=edges)


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
    rounds and exactly n - 1 edges.  A universe whose size times n exceeds
    ``_MAX_LIGHT_EDGE_WORK`` is refused before the first round.
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
    uf = UnionFind(n)
    edges: list[Edge] = []
    max_rounds = math.ceil(math.log2(n)) + 1
    for round_no in range(max_rounds + 1):
        reps = sorted({uf.find(i) for i in range(n)})
        if len(reps) == 1:
            break
        rep_pts = WeightedPointSet(pts.points[reps], pts.weights[reps])
        forest = build_low_stab_forest(rep_pts, queries, params, lp, seed.derive(round_no))
        for la, lb in forest.edges:
            a, b = reps[la], reps[lb]
            merged = uf.union(a, b)
            assert merged, "cross-round edge would close a cycle"
            edges.append(Edge(a, b))
    else:
        raise AssertionError("contraction failed to reach a single component in the round budget")
    return SpanningTree(n=n, edges=edges)

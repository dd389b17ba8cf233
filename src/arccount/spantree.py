"""Low-stabbing spanning trees via multiplicative weight updates.

The builder maintains a multiset of queries, initially one copy of every
grid point near the data.  Each iteration finds an edge stabbed by as little
query weight as possible, adds it, doubles the weight of every query that
stabs it, and retires one endpoint.  Heavy queries are sampled more often
into the candidate-generating net, so regions that keep getting stabbed
steer later edges away.  Contracting components and repeating yields a full
spanning tree whose worst-case stabbing number grows only logarithmically
in the size of the query universe.

The light-edge search never trusts approximate geometry for scoring: the
net, the shared projection, and the cell bucketing only pick a small
candidate set, and every candidate is scored by its exact stabbing weight.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import ContractViolation, EpsParams, GridSpec, Seed, WeightedPointSet, gaussian_projection_matrix, sq_dists_to
from .sampler import WeightedSampler, build_sampler


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

    def component_count(self) -> int:
        return sum(1 for i, p in enumerate(self.parent) if self.find(i) == i)


@dataclass
class QueryMultiset:
    """Distinct query points plus multiplicity state for the weight updates.

    ``sampler`` holds the current (possibly rescaled) weights; the stored
    weight of query ``i`` is exactly ``2**stab_exponents[i]`` up to the
    sampler's global scale, because weights start at one and only double.
    """

    support: np.ndarray  # (m, d), read-only
    sampler: WeightedSampler
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
        m = support.shape[0]
        return cls(
            support=support,
            sampler=build_sampler(np.ones(m)),
            stab_exponents=np.zeros(m, dtype=np.int64),
        )

    def stored_weights(self) -> np.ndarray:
        leaves = self.sampler._tree[self.sampler._leaf_count : self.sampler._leaf_count + len(self)]
        return leaves.copy()

    def exponents_match_weights(self) -> bool:
        """Stored weight of every query is 2**(exponent - 400*rescales), exactly."""
        shift = self.sampler.scale_exponent
        w = self.stored_weights()
        expected = self.stab_exponents.astype(np.float64) - shift
        with np.errstate(divide="ignore"):
            actual = np.log2(w)
        return bool(np.array_equal(actual, expected))


@dataclass
class Forest:
    """Edges collected so far plus the component structure they induce."""

    n: int
    edges: list[Edge]
    components: UnionFind


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
    """Knob of the light-edge search: ``rho`` trades net size against the stabbing bound."""

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

_DEFAULT_DIM_CAP = 8
_MAX_GRID_CELLS = 5_000_000


def generate_grid_queries(
    pts: WeightedPointSet,
    params: EpsParams,
    grid: GridSpec,
    dim_cap: int = _DEFAULT_DIM_CAP,
) -> QueryMultiset:
    """Every grid point within ``(1+eps) * radius`` of some input point, weight one.

    Enumeration cost grows exponentially with dimension, so dimensions above
    ``dim_cap`` are refused outright; use sampled queries (or the learned
    builder) there instead.
    """
    d = pts.dim
    if d > dim_cap:
        raise ContractViolation(
            f"grid query enumeration is infeasible in dimension {d} (cap {dim_cap}); "
            "use sampled queries or the learned tree builder"
        )
    side = grid.side
    reach = params.outer_radius
    seen: dict[tuple[int, ...], None] = {}
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
        keep = sq_dists_to(centers, p) <= reach * reach
        for v in mesh[keep]:
            seen.setdefault(tuple(int(c) for c in v), None)
    if not seen:
        raise ContractViolation("no grid queries fall near the data; grid side may be too large")
    cells = np.asarray(sorted(seen.keys()), dtype=np.float64)
    return QueryMultiset.from_support(cells * side)


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


def _cell_box_hits_net(cells: np.ndarray, side: float, net: np.ndarray, reach: float) -> np.ndarray:
    """For each cell (integer row), whether some net point is within ``reach`` of the cell box."""
    lo = cells * side
    hi = lo + side
    hits = np.zeros(cells.shape[0], dtype=bool)
    reach2 = reach * reach
    for g in net:
        clamped = np.clip(g, lo, hi)
        diff = clamped - g
        d2 = np.einsum("ij,ij->i", diff, diff)
        hits |= d2 <= reach2
    return hits


def find_light_edge(
    pts: WeightedPointSet,
    queries: QueryMultiset,
    params: EpsParams,
    lp: LightEdgeParams,
    seed: Seed,
) -> Edge:
    """An edge over ``pts`` stabbed by (close to) the least current query weight.

    Candidates come from three sources: pairs sharing a bucket cell after a
    shared Gaussian projection, all pairs of points far from every net
    query, and the three closest projected pairs as an unconditional
    fallback.  Every candidate is then scored exactly against the full
    multiset and ties break lexicographically, so the result is
    deterministic given the seed.
    """
    n = len(pts)
    if n < 2:
        raise ContractViolation("light edge search needs at least 2 points")
    d = pts.dim

    # 1. net: heavy queries show up proportionally to their current weight
    delta = min(0.99, d / n**lp.rho)
    raw = (d / delta) * (math.log(1.0 / delta) + math.log(max(2, n)))
    net_size = max(1, min(len(queries), math.ceil(raw)))
    rng = seed.derive(0).generator()
    picks = sorted({queries.sampler.sample(rng) for _ in range(net_size)})
    net = queries.support[picks]

    # 2. shared projection; skip it when it would not reduce the dimension
    k = max(1, math.ceil(math.log(max(2, len(picks))) / (params.eps**2)))
    if k < d:
        matrix = gaussian_projection_matrix(d, k, seed.derive(1))
        proj_pts = pts.points @ matrix
        proj_net = net @ matrix
        k_eff = k
    else:
        proj_pts = pts.points
        proj_net = net
        k_eff = d

    # 3. bucket by cells of side eps*radius/(4*sqrt(k))
    side = params.eps * params.radius / (4.0 * math.sqrt(k_eff))
    cells = np.floor(proj_pts / side).astype(np.int64)
    by_cell: dict[tuple[int, ...], list[int]] = {}
    for i, c in enumerate(map(tuple, cells)):
        by_cell.setdefault(c, []).append(i)

    candidates: set[tuple[int, int]] = set()
    for members in by_cell.values():
        if len(members) > 1:
            candidates.update(itertools.combinations(members, 2))

    # pairs of points whose cells every net query misses by more than (1+eps)r
    covered = _cell_box_hits_net(cells, side, proj_net, params.outer_radius)
    outsiders = np.nonzero(~covered)[0]
    if len(outsiders) > 1:
        candidates.update(itertools.combinations(outsiders.tolist(), 2))

    # fallback: the three closest projected pairs are always in play
    diffs = proj_pts[:, None, :] - proj_pts[None, :, :]
    pair_d2 = np.einsum("ijk,ijk->ij", diffs, diffs)
    iu = np.triu_indices(n, k=1)
    flat = pair_d2[iu]
    closest = np.argsort(flat, kind="stable")[: min(3, flat.size)]
    for t in closest:
        candidates.add((int(iu[0][t]), int(iu[1][t])))

    # 4. exact scoring against the full multiset, current weights included
    weights = queries.stored_weights()
    col_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def masks(i: int) -> tuple[np.ndarray, np.ndarray]:
        if i not in col_cache:
            col_cache[i] = _stab_weight_columns(queries.support, pts.points[i], params)
        return col_cache[i]

    best: tuple[float, int, int] | None = None
    for a, b in sorted(candidates):
        near_a, far_a = masks(a)
        near_b, far_b = masks(b)
        stabbed = (near_a & far_b) | (near_b & far_a)
        score = float(weights[stabbed].sum())
        key = (score, a, b)
        if best is None or key < best:
            best = key
    assert best is not None
    return Edge(best[1], best[2])


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
    active points, doubles the weight of every query that stabs it, bumps
    those queries' exponents, and retires the edge's first endpoint.  Every
    surviving active point represents a distinct component, so the edge set
    is acyclic by construction.
    """
    n = len(pts)
    if n < 2:
        raise ContractViolation("forest building needs at least 2 points")
    active = list(range(n))
    uf = UnionFind(n)
    edges: list[Edge] = []
    for it in range(math.ceil(n / 2)):
        sub = WeightedPointSet(pts.points[active], pts.weights[active])
        local = find_light_edge(sub, queries, params, lp, seed.derive(it))
        a, b = active[local.a], active[local.b]
        merged = uf.union(a, b)
        assert merged, "light edge would close a cycle"
        edges.append(Edge(a, b))
        mask = stab_mask_for_pair(queries.support, pts.points[a], pts.points[b], params)
        for j in np.nonzero(mask)[0]:
            queries.sampler.scale_weight(int(j), 2.0)
            queries.stab_exponents[j] += 1
        active.remove(a)
    return Forest(n=n, edges=edges, components=uf)


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
    rounds and exactly n - 1 edges.
    """
    n = len(pts)
    if n < 2:
        raise ContractViolation("spanning tree construction needs at least 2 points")
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

"""Spanning trees with low stabbing weight: grid queries, light edges, forests."""

from __future__ import annotations

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from arccount.core import (
    ContractViolation,
    EpsParams,
    GridSpec,
    Seed,
    WeightedPointSet,
    eps_stabs,
    sq_dists_to,
)
from arccount import spantree
from arccount.oracle import exact_sigma
from arccount.spantree import (
    BallRows,
    Edge,
    LightEdgeParams,
    QueryMultiset,
    SpanningTree,
    UnionFind,
    build_low_stab_forest,
    build_low_stab_tree,
    default_rho,
    find_light_edge,
    generate_grid_queries,
    sums_are_exact,
    weighted_draws,
)

PARAMS = EpsParams(eps=0.5)


def pair_mask(support: np.ndarray, x: np.ndarray, y: np.ndarray, params: EpsParams) -> np.ndarray:
    """Which ``support`` queries eps-stab the pair ``{x, y}``, from the two points' ball rows."""
    return BallRows.of(np.stack([x, y]), support, params).stab_mask(0, 1)


def weighted(points: np.ndarray) -> WeightedPointSet:
    return WeightedPointSet(points, np.ones(len(points)))


def scatter(n: int, d: int, seed: int, scale: float = 2.0) -> WeightedPointSet:
    rng = Seed(seed).generator()
    return weighted(rng.uniform(0, scale, size=(n, d)))


def reference_grid_support(pts: WeightedPointSet, params: EpsParams, side: float) -> np.ndarray:
    """The query support enumerated through a dict of integer cell tuples, then sorted."""
    reach = params.outer_radius
    seen: dict[tuple[int, ...], None] = {}
    for p in pts.points:
        lo = np.ceil((p - reach) / side).astype(np.int64)
        hi = np.floor((p + reach) / side).astype(np.int64)
        spans = [np.arange(l, h + 1) for l, h in zip(lo, hi)]
        mesh = np.stack(np.meshgrid(*spans, indexing="ij"), axis=-1).reshape(-1, pts.dim)
        keep = sq_dists_to(mesh * side, p) <= reach * reach
        for v in mesh[keep]:
            seen.setdefault(tuple(int(c) for c in v), None)
    return np.asarray(sorted(seen), dtype=np.float64) * side


def broadcast_cell_box_hits(cells: np.ndarray, side: float, net: np.ndarray, reach: float) -> np.ndarray:
    """Whether each net point lies within ``reach`` of each cell box, by one
    (n, b, d) broadcast of the clip and an einsum over its last axis."""
    lo = cells * side
    diff = np.maximum(net, lo[:, None, :])
    np.minimum(diff, (lo + side)[:, None, :], out=diff)
    diff -= net
    return np.einsum("ijk,ijk->ij", diff, diff) <= reach * reach


def reference_net(weights: np.ndarray, rng: np.random.Generator, size: int) -> list[int]:
    """The net as a binary heap of weight sums draws it: one uniform per draw,
    scaled to the root, then one descent that subtracts each left sum passed;
    a descent past the last positive leaf takes that leaf."""
    leaves = 1 << (weights.size - 1).bit_length()
    tree = np.zeros(2 * leaves)
    tree[leaves : leaves + weights.size] = weights
    for i in range(leaves - 1, 0, -1):
        tree[i] = tree[2 * i] + tree[2 * i + 1]
    picks = set()
    for _ in range(size):
        u = rng.random() * tree[1]
        cell = 1
        while cell < leaves:
            if u < tree[2 * cell]:
                cell = 2 * cell
            else:
                u -= tree[2 * cell]
                cell = 2 * cell + 1
        idx = cell - leaves
        if idx >= weights.size or tree[cell] == 0.0:
            idx = int(np.nonzero(weights)[0][-1])
        picks.add(idx)
    return sorted(picks)


def reference_light_edge(
    pts: WeightedPointSet, queries: QueryMultiset, params: EpsParams, lp: LightEdgeParams, seed: Seed
) -> Edge:
    """The light-edge search as a per-candidate loop: bucket dict, per-net-point
    box test, full stable argsort for the closest pairs, one masked sum per
    sorted candidate and the minimum ``(score, a, b)``, all over the unscaled
    weights ``2**stab_exponents``."""
    n, d = len(pts), pts.dim
    delta = min(0.99, d / n**lp.rho)
    raw = (d / delta) * (math.log(1.0 / delta) + math.log(max(2, n)))
    net_size = max(1, min(len(queries), math.ceil(raw)))
    weights = np.ldexp(1.0, queries.stab_exponents)
    picks = reference_net(weights, seed.derive(0).generator(), net_size)
    net = queries.support[picks]
    side = params.eps * params.radius / (4.0 * math.sqrt(d))
    cells = np.floor(pts.points / side).astype(np.int64)
    by_cell: dict[tuple[int, ...], list[int]] = {}
    for i, c in enumerate(map(tuple, cells)):
        by_cell.setdefault(c, []).append(i)
    candidates: set[tuple[int, int]] = set()
    for members in by_cell.values():
        candidates.update(itertools.combinations(members, 2))
    lo, hi = cells * side, cells * side + side
    covered = np.zeros(n, dtype=bool)
    for g in net:
        diff = np.clip(g, lo, hi) - g
        covered |= np.einsum("ij,ij->i", diff, diff) <= params.outer_radius * params.outer_radius
    candidates.update(itertools.combinations(np.nonzero(~covered)[0].tolist(), 2))
    diffs = pts.points[:, None, :] - pts.points[None, :, :]
    pair_d2 = np.einsum("ijk,ijk->ij", diffs, diffs)
    iu = np.triu_indices(n, k=1)
    for t in np.argsort(pair_d2[iu], kind="stable")[:3]:
        candidates.add((int(iu[0][t]), int(iu[1][t])))
    best = None
    for a, b in sorted(candidates):
        mask = pair_mask(queries.support, pts.points[a], pts.points[b], params)
        key = (float(weights[mask].sum()), a, b)
        if best is None or key < best:
            best = key
    return Edge(best[1], best[2])


def reference_low_stab_tree(
    pts: WeightedPointSet, queries: QueryMultiset, params: EpsParams, lp: LightEdgeParams, seed: Seed
) -> tuple[Edge, ...]:
    """The worst-case build as loops over the reference search: per round the
    component representatives, per edge a copied point set of the points still
    active in the round, and every query that stabs the edge bumped once."""
    n = len(pts)
    uf = UnionFind(n)
    edges: list[Edge] = []
    for round_no in itertools.count():
        reps = sorted({uf.find(i) for i in range(n)})
        if len(reps) == 1:
            return tuple(edges)
        active = list(reps)
        for it in range(math.ceil(len(reps) / 2)):
            sub = pts.subset(np.array(active))
            local = reference_light_edge(sub, queries, params, lp, seed.derive(round_no).derive(it))
            a, b = active[local.a], active[local.b]
            queries.stab_exponents[pair_mask(queries.support, pts.points[a], pts.points[b], params)] += 1
            edges.append(Edge(a, b))
            uf.union(a, b)
            del active[local.a]


def outsider_instance():
    """Two triangles, with heavy queries around the left one only."""
    pts = weighted(
        np.array([[0.0, 0.0], [0.55, 0.0], [0.0, 0.6], [5.0, 0.0], [5.85, 0.0], [5.0, 0.9]])
    )
    params = EpsParams(eps=0.5, radius=0.5)
    qs = generate_grid_queries(pts, params, GridSpec(0.1))
    qs.stab_exponents[qs.support[:, 0] < 2.5] = 20
    return pts, qs, params


class TestUnionFind:
    def test_union_and_count(self):
        uf = UnionFind(5)
        assert uf.union(0, 1)
        assert uf.union(3, 4)
        assert not uf.union(1, 0)
        assert uf.find(1) == uf.find(0)


class TestSpanningTreeValidation:
    def test_good_tree_accepted(self):
        t = SpanningTree(4, [Edge(0, 1), Edge(1, 2), Edge(2, 3)])
        assert t.adjacency()[1] == [0, 2]

    def test_wrong_edge_count_rejected(self):
        with pytest.raises(ContractViolation):
            SpanningTree(4, [Edge(0, 1), Edge(1, 2)])

    def test_cycle_rejected(self):
        with pytest.raises(ContractViolation):
            SpanningTree(4, [Edge(0, 1), Edge(1, 2), Edge(2, 0)])


class TestDefaults:
    def test_default_rho_value(self):
        assert default_rho(0.5) == pytest.approx(0.25 / (4 * math.log(2.0) + 8))

    def test_default_rho_domain(self):
        with pytest.raises(ContractViolation):
            default_rho(0.0)
        with pytest.raises(ContractViolation):
            default_rho(1.0)

    def test_light_edge_params_validation(self):
        with pytest.raises(ContractViolation):
            LightEdgeParams(rho=1.5)


class TestGridQueries:
    def test_single_point_line(self):
        pts = weighted(np.array([[0.0]]))
        qs = generate_grid_queries(pts, PARAMS, GridSpec(0.5))
        # grid multiples of 0.5 within reach 1.5 of the origin: -1.5 .. 1.5
        assert len(qs) == 7
        np.testing.assert_allclose(qs.support[:, 0], np.arange(-3, 4) * 0.5)

    def test_plane_disk_count_matches_double_loop(self):
        pts = weighted(np.array([[0.0, 0.0]]))
        side = 0.4
        qs = generate_grid_queries(pts, PARAMS, GridSpec(side))
        expected = 0
        for i in range(-10, 11):
            for j in range(-10, 11):
                if math.hypot(i * side, j * side) <= 1.5:
                    expected += 1
        assert len(qs) == expected

    def test_nearby_points_do_not_duplicate_cells(self):
        one = generate_grid_queries(weighted(np.array([[0.0, 0.0]])), PARAMS, GridSpec(0.5))
        two = generate_grid_queries(
            weighted(np.array([[0.0, 0.0], [0.01, 0.01]])), PARAMS, GridSpec(0.5)
        )
        assert len(two) >= len(one)
        rows = {tuple(r) for r in two.support}
        assert len(rows) == len(two)

    def test_every_query_is_near_some_point(self):
        pts = scatter(5, 2, seed=60)
        qs = generate_grid_queries(pts, PARAMS, GridSpec(0.5))
        for q in qs.support:
            assert min(np.linalg.norm(pts.points - q, axis=1)) <= PARAMS.outer_radius + 1e-9

    def test_high_dimension_refused_with_guidance(self):
        pts = weighted(np.zeros((3, 9)))
        with pytest.raises(ContractViolation, match="learned"):
            generate_grid_queries(pts, PARAMS, GridSpec(0.5))

    def test_cell_budget_enforced(self):
        pts = weighted(np.zeros((1, 2)))
        with pytest.raises(ContractViolation, match="budget"):
            generate_grid_queries(pts, PARAMS, GridSpec(0.001))

    @pytest.mark.parametrize("side", [1e-12, 1e-300, 5e-324])
    def test_tiny_side_refused_before_any_cell_is_allocated(self, side):
        # 1e-12 once asked numpy for 18 TiB of cell indices; 1e-300 and the
        # smallest subnormal once cast cell bounds out of int64 and built on them
        pts = scatter(5, 2, seed=61)
        with np.errstate(all="raise"), pytest.raises(ContractViolation, match="budget"):
            generate_grid_queries(pts, PARAMS, GridSpec(side))

    @pytest.mark.parametrize("x", [2.0**60, -1e19])
    def test_cell_index_past_float64_exactness_refused(self, x):
        # a few cells, within the budget, whose indices are not exact in
        # float64; past int64, as at -1e19, their cast was once invalid
        pts = weighted(np.array([[x, 0.0]]))
        with np.errstate(all="raise"), pytest.raises(ContractViolation, match="larger grid side"):
            generate_grid_queries(pts, PARAMS, GridSpec(1.0))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_support_order_matches_sorted_cell_tuples(self, d):
        # points on both sides of the origin give negative cell indices, and
        # balls of reach 1.5 around points at most 2 apart overlap
        pts = weighted(Seed(90 + d).generator().uniform(-1.0, 1.0, size=(6, d)))
        for side in (0.3, 0.45):
            qs = generate_grid_queries(pts, PARAMS, GridSpec(side))
            assert np.array_equal(qs.support, reference_grid_support(pts, PARAMS, side))
            assert (qs.support < 0).any() and (qs.support > 0).any()


class TestGridQueriesBothBranches:
    """The universe against :func:`reference_grid_support`, on data whose cells
    fill their bounding box (the marks over it) and on data whose box is
    mostly empty (the sorted kept cells)."""

    # the benchmark's worst-case square: 256 points uniform in a square of
    # side 3, at working eps 0.25 and grid side eps * r / sqrt(2)
    PARAMS = EpsParams(eps=0.25)
    SIDE = 0.25 / math.sqrt(2.0)

    def universe(self, pts):
        with mock.patch.object(spantree, "_row_groups", wraps=spantree._row_groups) as sorts:
            qs = generate_grid_queries(pts, self.PARAMS, GridSpec(self.SIDE))
        return qs, sorts.call_count

    @pytest.mark.parametrize("seed", [1, 2])
    def test_a_filled_box_takes_the_marks(self, seed):
        pts = scatter(256, 2, seed=seed, scale=3.0)
        qs, sorts = self.universe(pts)
        assert sorts == 0
        assert np.array_equal(qs.support, reference_grid_support(pts, self.PARAMS, self.SIDE))

    @pytest.mark.parametrize("d", [2, 3])
    def test_two_clusters_far_apart_take_the_sort(self, d):
        # their box of cells holds far more cells than the balls around them
        rng = Seed(70 + d).generator()
        points = np.concatenate([rng.uniform(0.0, 1.0, size=(20, d)), rng.uniform(40.0, 41.0, size=(20, d))])
        pts = weighted(points)
        qs, sorts = self.universe(pts)
        assert sorts == 1
        assert np.array_equal(qs.support, reference_grid_support(pts, self.PARAMS, self.SIDE))


class TestStabMask:
    def test_matches_scalar_predicate(self):
        rng = Seed(61).generator()
        support = rng.uniform(-2, 2, size=(50, 3))
        x = rng.uniform(-2, 2, size=3)
        y = rng.uniform(-2, 2, size=3)
        mask = pair_mask(support, x, y, PARAMS)
        for q, hit in zip(support, mask):
            assert bool(hit) == eps_stabs(q, x, y, PARAMS)

    def test_coincident_pair_never_stabbed(self):
        rng = Seed(62).generator()
        support = rng.uniform(-3, 3, size=(100, 2))
        p = np.array([0.3, 0.4])
        assert not pair_mask(support, p, p, PARAMS).any()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_ball_rows_eps_stabs_and_oracle_agree_on_both_boundaries(self, d):
        # r = 5/4 and (1+eps) r = 15/8: every coordinate below is a multiple
        # of 1/8 and every squared distance a multiple of 1/64 far below
        # 2**53, so each rounding and summation order gives it exactly, and
        # points sit at exactly r and exactly (1+eps) r from the queries
        params = EpsParams(eps=0.5, radius=1.25)
        r, big = params.radius, params.outer_radius
        assert (r * r, big * big) == (1.5625, 3.515625)
        rng = Seed(66 + d).generator()
        support = rng.integers(-8, 9, size=(12, d)) / 8.0
        # directions of length 5 whose multiples by r / 5 and (1+eps) r / 5
        # are dyadic: the axes, and in the plane of two axes the 3-4-5 ones
        dirs = [s * 5 * np.eye(d, dtype=int)[i] for i in range(d) for s in (1, -1)]
        for i, j in itertools.combinations(range(d), 2):
            for a, b in ((3, 4), (4, -3)):
                v = np.zeros(d, dtype=int)
                v[i], v[j] = a, b
                dirs.append(v)
        rings = [(support[0], dirs), (support[1], dirs[:2])]
        boundary = [q + scale * v / 5 for q, vs in rings for v in vs for scale in (r, big)]
        points = np.concatenate([np.array(boundary), rng.integers(-16, 17, size=(12, d)) / 8.0])
        pts = weighted(points)
        rows = BallRows.of(points, support, params)
        d2 = np.array([[np.sum((p - q) ** 2) for q in support] for p in points])
        assert (d2 == r * r).any() and (d2 == big * big).any()
        assert np.array_equal(rows.near, d2 <= r * r) and np.array_equal(rows.far, d2 >= big * big)
        edges = list(itertools.combinations(range(len(points)), 2))
        a, b = np.array(edges).T
        masks = rows.stab_mask(a, b)  # (edges, queries)
        for k, (x, y) in enumerate(edges):
            assert masks[k].tolist() == [eps_stabs(q, points[x], points[y], params) for q in support]
        for col, q in enumerate(support):
            assert int(masks[:, col].sum()) == exact_sigma(q, edges, pts, params)
        # stabbed pairs whose near end is at exactly r and far end at exactly (1+eps) r
        at_both = (d2[a] == r * r) & (d2[b] == big * big) | (d2[b] == r * r) & (d2[a] == big * big)
        assert at_both.any() and masks[at_both].all()


class TestCellHits:
    """The cell-hit table against :func:`spantree._cell_box_hits_net` on each net."""

    # (1+eps) r = 5 exactly, and the box of cell -1 on every axis ends at 0
    # exactly, so queries 5 from a face or (3, 4) from a corner are exactly
    # at reach, and their next floats past 5 just beyond it
    PARAMS = EpsParams(eps=0.5, radius=10 / 3)

    def boundary_instance(self, d: int, seed: int):
        params = self.PARAMS
        side, reach = spantree._bucket_side(params, d), params.outer_radius
        assert reach == 5.0
        rng = Seed(400 + seed).generator()
        # cell -1 (box [-side, 0]) and cell 0 (box [0, side]) on every axis, and
        # points of negative and positive cells around them
        corner = np.concatenate([np.full((1, d), -side / 2), np.full((1, d), side / 2)])
        points = np.concatenate([corner, rng.uniform(-8 * side, 8 * side, size=(6, d))])
        # each boundary query comes in a pair, at reach and one float past
        # it, from the box of the corner point it is listed with
        queries, owners = [], []
        for owner, sign, inside in ((0, 1.0, -side / 2), (1, -1.0, side / 2)):
            for k in range(d):
                for at in (5.0, np.nextafter(5.0, np.inf)):
                    q = np.full(d, inside)
                    q[k] = sign * at
                    queries.append(q)
                owners.append(owner)
            for i, j in itertools.combinations(range(d), 2):
                for at in (4.0, np.nextafter(4.0, np.inf)):
                    q = np.full(d, inside)
                    q[i], q[j] = sign * 3.0, sign * at
                    queries.append(q)
                owners.append(owner)
        support = np.concatenate([np.array(queries), rng.uniform(-12.0, 12.0, size=(20, d))])
        return points, support, params, side, reach, owners

    @given(
        d=st.integers(1, 3),
        seed=st.integers(0, 1000),
        block=st.sampled_from([8, 100, 1 << 17]),
        nets=st.lists(st.lists(st.integers(0, 10**6), min_size=1, max_size=12), min_size=1, max_size=4),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_table_equals_the_per_net_form(self, d, seed, block, nets):
        points, support, params, side, reach, owners = self.boundary_instance(d, seed)
        with mock.patch.object(spantree, "_BLOCK_BYTES", block):
            hits = BallRows.of(points, support, params).hits
        assert hits.shape == (len(support), len(points))
        cells = np.floor(points / side).astype(np.int64)
        # the boundary queries sit at exactly reach: in, and one float past it out
        for k, owner in enumerate(owners):
            pair = support[2 * k : 2 * k + 2]
            assert spantree._cell_box_hits_net(cells[[owner]], side, pair, reach).tolist() == [[True, False]]
        ids = np.flatnonzero(Seed(seed).generator().random(len(points)) < 0.7)
        for net in nets:
            picks = np.unique(np.array(net) % len(support))
            per_net = spantree._cell_box_hits_net(cells, side, support[picks], reach)
            assert np.array_equal(hits[picks].T, per_net)
            # the search's outsiders, as the per-net form gave them
            outsiders = ids[~hits[picks].any(axis=0)[ids]]
            per_net_outsiders = ids[~spantree._cell_box_hits_net(cells[ids], side, support[picks], reach).any(axis=1)]
            assert np.array_equal(outsiders, per_net_outsiders)

    @pytest.mark.parametrize("block", [8, spantree._BLOCK_BYTES])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_table_equals_the_broadcast_formula(self, d, seed, block):
        points, support, params, side, reach, _ = self.boundary_instance(d, seed)
        cells = np.floor(points / side).astype(np.int64)
        expected = broadcast_cell_box_hits(cells, side, support, reach)
        assert np.array_equal(spantree._cell_box_hits_net(cells, side, support, reach), expected)
        with mock.patch.object(spantree, "_BLOCK_BYTES", block):
            hits = BallRows.of(points, support, params).hits
        assert np.array_equal(hits, expected.T)

    def test_a_query_at_reach_hits_only_its_own_cells(self):
        # d = 1: point 0 in cell -1, box [-side, 0]; point 1 near 20.2. Query 0
        # is exactly 5 from box 0, query 1 one float further, query 2 within 5
        # of box 1 only; a transposed or shifted table reads other cells
        params = self.PARAMS
        side, reach = spantree._bucket_side(params, 1), params.outer_radius
        points = np.array([[-side / 2], [20.2]])
        support = np.array([[5.0], [np.nextafter(5.0, np.inf)], [15.5]])
        expected = np.array([[True, False], [False, False], [False, True]])
        hits = BallRows.of(points, support, params).hits
        assert np.array_equal(hits, expected)
        cells = np.floor(points / side).astype(np.int64)
        for q in range(3):
            per_net = spantree._cell_box_hits_net(cells, side, support[[q]], reach).any(axis=1)
            assert np.array_equal(hits[[q]].any(axis=0), per_net)
            assert np.array_equal(per_net, expected[q])


class TestQueryMultiset:
    def test_from_support_starts_at_weight_one(self):
        qs = QueryMultiset.from_support(np.zeros((4, 2)))
        np.testing.assert_array_equal(qs.weights(), np.ones(4))
        assert qs.exponents_match_weights()

    def test_empty_support_rejected(self):
        with pytest.raises(ContractViolation):
            QueryMultiset.from_support(np.zeros((0, 2)))


# (d, eps, n, largest exponent): exponents up to 60 span at least 53 bits,
# so the scorer falls back to one sum per candidate; at d 4 and eps 0.9 the
# net holds only two or three distinct queries
LIGHT_EDGE_CASES = [
    (1, 0.3, 9, 6),
    (2, 0.5, 12, 6),
    (2, 0.9, 7, 0),
    (3, 0.5, 6, 20),
    (2, 0.5, 12, 60),
    (3, 0.9, 5, 60),
    (4, 0.9, 3, 6),
    (4, 0.9, 5, 6),
]


def random_exponent_instance(d: int, eps: float, n: int, top: int, seed: int):
    rng = Seed(300 + seed).generator()
    pts = rng.uniform(0.0, 2.0, size=(n, d))
    pts[rng.integers(0, n, size=n // 3)] = pts[0]  # duplicate points
    pts = weighted(np.round(pts * 4.0) / 4.0)  # equal pair distances
    params = EpsParams(eps=eps, radius=0.5)
    qs = generate_grid_queries(pts, params, GridSpec(0.25))
    exponents = rng.integers(0, top + 1, size=len(qs))
    exponents[0], exponents[-1] = 0, top
    qs.stab_exponents[:] = exponents
    return pts, qs, params


class TestFindLightEdge:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("d, eps, n, top", LIGHT_EDGE_CASES)
    def test_matches_the_reference_loop(self, d, eps, n, top, seed):
        pts, qs, params = random_exponent_instance(d, eps, n, top, seed)
        assert sums_are_exact(qs.stab_exponents) == (top < 53 - (len(qs) - 1).bit_length())
        lp = LightEdgeParams.for_eps(eps)
        expected = reference_light_edge(pts, qs, params, lp, Seed(seed))
        assert find_light_edge(pts, qs, params, lp, Seed(seed)) == expected

    def test_outsider_pairs_compete(self):
        # heavy queries around the left triangle put every net query there, so
        # the right triangle's points are outsiders: its pairs share no cell
        # and are not among the three closest, yet one of them wins
        pts, qs, params = outsider_instance()
        lp = LightEdgeParams.for_eps(0.5)
        edge = find_light_edge(pts, qs, params, lp, Seed(97))
        assert edge == reference_light_edge(pts, qs, params, lp, Seed(97))
        assert min(edge) >= 3

    def test_planted_zero_stab_pair_is_chosen(self):
        # indices 0 and 1 coincide, so no query stabs them; they are also the
        # closest pair, hence always a candidate, and zero is unbeatable
        pts = weighted(
            np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 0.0], [0.0, 3.0], [3.0, 3.0], [1.5, 1.5]])
        )
        qs = generate_grid_queries(pts, PARAMS, GridSpec(0.5))
        edge = find_light_edge(pts, qs, PARAMS, LightEdgeParams.for_eps(0.5), Seed(63))
        assert edge == Edge(0, 1)

    def test_at_most_the_closest_pairs_score(self):
        # the three closest pairs are always candidates, so the winner can
        # never score worse than they do
        pts = scatter(9, 2, seed=64, scale=3.0)
        qs = generate_grid_queries(pts, PARAMS, GridSpec(0.5))
        weights = qs.weights()
        edge = find_light_edge(pts, qs, PARAMS, LightEdgeParams.for_eps(0.5), Seed(65))

        def score(a: int, b: int) -> float:
            mask = pair_mask(qs.support, pts.points[a], pts.points[b], PARAMS)
            return float(weights[mask].sum())

        d2 = np.array(
            [
                (np.sum((pts.points[a] - pts.points[b]) ** 2), a, b)
                for a in range(9)
                for b in range(a + 1, 9)
            ]
        )
        closest = d2[np.argsort(d2[:, 0], kind="stable")[:3]]
        bound = min(score(int(a), int(b)) for _, a, b in closest)
        assert score(edge.a, edge.b) <= bound

    def test_same_seed_same_edge(self):
        pts = scatter(8, 2, seed=66)
        lp = LightEdgeParams.for_eps(0.5)
        qs1 = generate_grid_queries(pts, PARAMS, GridSpec(0.5))
        qs2 = generate_grid_queries(pts, PARAMS, GridSpec(0.5))
        assert find_light_edge(pts, qs1, PARAMS, lp, Seed(67)) == find_light_edge(
            pts, qs2, PARAMS, lp, Seed(67)
        )

    def test_needs_two_points(self):
        pts = weighted(np.zeros((1, 2)))
        qs = QueryMultiset.from_support(np.zeros((1, 2)))
        with pytest.raises(ContractViolation):
            find_light_edge(pts, qs, PARAMS, LightEdgeParams.for_eps(0.5), Seed(68))


class TestSquaredDistancesAcross:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(nx=st.integers(1, 30), ny=st.integers(1, 6), d=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_each_row_is_sq_dists_to_of_its_point(self, nx, ny, d, seed):
        rng = np.random.default_rng(seed)
        x, y = rng.normal(0.0, 3.0, size=(nx, d)), rng.normal(0.0, 3.0, size=(ny, d))
        got = spantree._sq_dists_across(x, y)
        assert got.shape == (ny, nx)
        for i in range(ny):
            assert got[i].tobytes() == sq_dists_to(x, y[i]).tobytes()


class TestClosestPairs:
    """:meth:`LiveRows.closest_pairs` against a ranking of the live pairs by
    their squared distance, each measured alone, ties by ``(a, b)``."""

    @staticmethod
    def ranking(points: np.ndarray, live: list[int]) -> list[tuple[int, int]]:
        keyed = [
            (float(sq_dists_to(points[b : b + 1], points[a])[0]), a, b)
            for a, b in itertools.combinations(sorted(live), 2)
        ]
        return [(a, b) for _, a, b in sorted(keyed)]

    @pytest.mark.parametrize("block", [8, spantree._BLOCK_BYTES])
    @pytest.mark.parametrize("d, n, seed", [(1, 30, 0), (2, 40, 1), (3, 25, 2)])
    def test_ranked_as_a_sort_of_the_live_pairs_while_points_retire(self, d, n, seed, block):
        rng = Seed(500 + seed).generator()
        # rounded coordinates and repeated points give equal distances
        points = np.round(rng.uniform(0.0, 3.0, size=(n, d)) * 2.0) / 2.0
        points[rng.integers(0, n, size=n // 5)] = points[0]
        pts = weighted(points)
        qs = generate_grid_queries(pts, PARAMS, GridSpec(0.5))
        # a round over some points, the others retired from the start
        live = sorted(rng.choice(n, size=n - 4, replace=False).tolist())
        with mock.patch.object(spantree, "_BLOCK_BYTES", block):
            rows = spantree.LiveRows.of(pts, qs, PARAMS)
            rows = spantree.LiveRows(rows.rows, live, rows.weights)
            while len(live) >= 2:
                expected = self.ranking(pts.points, live)
                for count in (1, 3, len(expected)):
                    a, b = rows.closest_pairs(count)
                    assert list(zip(a.tolist(), b.tolist())) == expected[:count]
                gone = live.pop(int(rng.integers(0, len(live))))
                rows.alive[gone] = False


class TestExactSums:
    def test_guard_follows_the_exponent_span(self):
        assert sums_are_exact(np.zeros(7, dtype=np.int64))
        assert sums_are_exact(np.array([5, 2, 4]))
        assert sums_are_exact(np.array([0, 51]))
        assert not sums_are_exact(np.array([0, 52]))
        # 64 weights need 6 bits of carries on top of the span
        assert sums_are_exact(np.array([0] * 63 + [46]))
        assert not sums_are_exact(np.array([0] * 63 + [47]))


class FixedUniforms:
    """A stand-in generator whose every uniform is ``value``."""

    def __init__(self, value: float) -> None:
        self.value = value

    def random(self, size: int | None = None) -> float | np.ndarray:
        return self.value if size is None else np.full(size, self.value)


class TestNetDraw:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_heap_descent_on_exact_instances(self, seed):
        rng = Seed(320 + seed).generator()
        m = int(rng.integers(1, 300))
        exponents = rng.integers(0, 53 - (m - 1).bit_length(), size=m)
        qs = QueryMultiset(np.zeros((m, 1)), exponents)
        assert sums_are_exact(qs.stab_exponents)
        draws = weighted_draws(np.cumsum(qs.weights()), Seed(seed).generator(), 200)
        expected = reference_net(np.ldexp(1.0, exponents), Seed(seed).generator(), 200)
        assert np.unique(draws).tolist() == expected

    def test_a_draw_at_the_total_takes_the_last_index(self):
        # a draw at the total is exceeded by no running sum; the heap
        # descent ends past the last leaf there and falls back to it
        weights = np.ones(3)
        assert weighted_draws(np.cumsum(weights), FixedUniforms(1.0), 4).tolist() == [2] * 4
        assert reference_net(weights, FixedUniforms(1.0), 1) == [2]
        assert weighted_draws(np.cumsum(weights), FixedUniforms(1.0 - 2.0**-53), 1).tolist() == [2]
        assert weighted_draws(np.cumsum(weights), FixedUniforms(0.0), 1).tolist() == [0]

    def test_a_draw_on_a_running_sum_takes_the_next_index(self):
        # u = 0.5 * 4 lands on the running sum 2 of both [2, 1, 1] and [1, 1, 2]
        for weights, expected in (([2.0, 1.0, 1.0], 1), ([1.0, 1.0, 2.0], 2)):
            weights = np.array(weights)
            assert weighted_draws(np.cumsum(weights), FixedUniforms(0.5), 1).tolist() == [expected]
            assert reference_net(weights, FixedUniforms(0.5), 1) == [expected]

    def test_chi_square_against_exact_ratios(self):
        qs = QueryMultiset(np.zeros((5, 1)), [1, 2, 3, 4, 0])
        w = qs.weights()
        np.testing.assert_array_equal(w, [0.125, 0.25, 0.5, 1.0, 0.0625])
        m = 40000
        counts = np.bincount(weighted_draws(np.cumsum(w), Seed(2).generator(), m), minlength=len(w))
        expected = m * w / w.sum()
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < stats.chi2.ppf(0.999, df=len(w) - 1)


class TestBudget:
    def test_refused_above_the_budget_with_guidance(self, monkeypatch):
        pts = scatter(4, 2, seed=95)
        qs = generate_grid_queries(pts, PARAMS, GridSpec(0.5))
        lp = LightEdgeParams.for_eps(0.5)
        masks, _ = spantree.light_edge_bytes(4, len(qs))
        monkeypatch.setattr(spantree, "_MAX_MASK_BYTES", masks - 1)
        with pytest.raises(ContractViolation, match="--mode learned"):
            build_low_stab_tree(pts, qs, PARAMS, lp, Seed(96))
        monkeypatch.setattr(spantree, "_MAX_MASK_BYTES", masks)
        assert len(build_low_stab_tree(pts, qs, PARAMS, lp, Seed(96)).edges) == 3

    def test_pair_arrays_have_their_own_budget(self, monkeypatch):
        pts = scatter(4, 2, seed=95)
        qs = generate_grid_queries(pts, PARAMS, GridSpec(0.5))
        lp = LightEdgeParams.for_eps(0.5)
        _, pairs = spantree.light_edge_bytes(4, len(qs))
        assert pairs == 6 * 8 + 16 * 8  # 6 int64 pair keys and a 4 x 4 float64 matrix
        monkeypatch.setattr(spantree, "_MAX_PAIR_BYTES", pairs - 1)
        with pytest.raises(ContractViolation, match="--mode learned"):
            build_low_stab_tree(pts, qs, PARAMS, lp, Seed(96))
        monkeypatch.setattr(spantree, "_MAX_PAIR_BYTES", pairs)
        assert len(build_low_stab_tree(pts, qs, PARAMS, lp, Seed(96)).edges) == 3

    def test_every_job_of_the_old_pair_budget_is_admitted_to_n_4096(self):
        # the budget was 4,000,000 query-point pairs; a job at n points held
        # at most 4,000,000 // n queries under it
        for n in range(2, 4097):
            masks, pairs = spantree.light_edge_bytes(n, 4_000_000 // n)
            assert masks <= spantree._MAX_MASK_BYTES and pairs <= spantree._MAX_PAIR_BYTES

    def test_refused_before_any_array_is_allocated(self, monkeypatch):
        pts = scatter(4, 2, seed=95)
        qs = generate_grid_queries(pts, PARAMS, GridSpec(0.5))
        monkeypatch.setattr(spantree, "_MAX_PAIR_BYTES", 0)
        monkeypatch.setattr(spantree.BallRows, "of", mock.Mock(side_effect=AssertionError("allocated")))
        with pytest.raises(ContractViolation, match="bytes"):
            build_low_stab_tree(pts, qs, PARAMS, LightEdgeParams.for_eps(0.5), Seed(96))


class TestForest:
    def build(self, n: int, seed: int):
        pts = scatter(n, 2, seed=seed, scale=3.0)
        qs = generate_grid_queries(pts, PARAMS, GridSpec(0.5))
        forest = build_low_stab_forest(pts, qs, PARAMS, LightEdgeParams.for_eps(0.5), Seed(seed + 1))
        return pts, qs, forest

    def test_edge_count_and_acyclicity(self):
        for n in (2, 5, 9, 12):
            pts, _qs, forest = self.build(n, seed=70 + n)
            assert len(forest.edges) == math.ceil(n / 2)
            uf = UnionFind(n)
            for e in forest.edges:
                assert uf.union(e.a, e.b), "forest edge closed a cycle"

    def test_exponents_equal_exact_stab_counts(self):
        pts, qs, forest = self.build(10, seed=71)
        for j, q in enumerate(qs.support):
            assert qs.stab_exponents[j] == exact_sigma(q, forest.edges, pts, PARAMS)

    def test_weights_track_exponents_exactly(self):
        _pts, qs, _forest = self.build(11, seed=72)
        assert qs.exponents_match_weights()


class TestTree:
    def build(self, n: int, seed: int, d: int = 2):
        pts = scatter(n, d, seed=seed, scale=3.0)
        qs = generate_grid_queries(pts, PARAMS, GridSpec(0.5))
        tree = build_low_stab_tree(pts, qs, PARAMS, LightEdgeParams.for_eps(0.5), Seed(seed + 1))
        return pts, qs, tree

    def test_tree_shape(self):
        for n in (2, 3, 7, 16):
            pts, _qs, tree = self.build(n, seed=80 + n)
            assert tree.n == n
            assert len(tree.edges) == n - 1  # SpanningTree validates acyclicity

    def test_exponents_equal_tree_wide_stab_counts(self):
        pts, qs, tree = self.build(13, seed=81)
        for j, q in enumerate(qs.support):
            assert qs.stab_exponents[j] == exact_sigma(q, tree.edges, pts, PARAMS)
        assert qs.exponents_match_weights()

    def test_stabbing_stays_logarithmic_on_known_instance(self):
        # regression pin: worst query stabbing for this fixed instance and
        # seed; the multiplicative update should keep it well under n - 1
        pts, qs, _tree = self.build(16, seed=82)
        worst = int(qs.stab_exponents.max())
        assert worst <= 2 * (math.ceil(math.log2(16)) + 1)

    def test_same_seed_same_tree(self):
        pts = scatter(9, 2, seed=83, scale=3.0)
        lp = LightEdgeParams.for_eps(0.5)
        t1 = build_low_stab_tree(pts, generate_grid_queries(pts, PARAMS, GridSpec(0.5)), PARAMS, lp, Seed(84))
        t2 = build_low_stab_tree(pts, generate_grid_queries(pts, PARAMS, GridSpec(0.5)), PARAMS, lp, Seed(84))
        assert t1.edges == t2.edges

    def test_needs_two_points(self):
        pts = weighted(np.zeros((1, 2)))
        qs = QueryMultiset.from_support(np.zeros((1, 2)))
        with pytest.raises(ContractViolation):
            build_low_stab_tree(pts, qs, PARAMS, LightEdgeParams.for_eps(0.5), Seed(85))


class TestTreeMatchesReference:
    """The build against :func:`reference_low_stab_tree`: the same edges in the
    same order, the same final stab exponents, and one search per edge."""

    def check(self, pts, qs, params, seed, monkeypatch):
        searches = []
        real = spantree.find_light_edge
        monkeypatch.setattr(spantree, "find_light_edge", lambda *args: searches.append(1) or real(*args))
        lp = LightEdgeParams.for_eps(params.eps)
        ref_qs = QueryMultiset(qs.support, qs.stab_exponents.copy())
        expected = reference_low_stab_tree(pts, ref_qs, params, lp, Seed(seed))
        tree = build_low_stab_tree(pts, qs, params, lp, Seed(seed))
        assert tree.edges == expected
        assert np.array_equal(qs.stab_exponents, ref_qs.stab_exponents)
        assert len(searches) == len(pts) - 1

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("d, eps, n, top", LIGHT_EDGE_CASES)
    def test_duplicates_and_equal_distances(self, d, eps, n, top, seed, monkeypatch):
        pts, qs, params = random_exponent_instance(d, eps, n, top, seed)
        self.check(pts, qs, params, seed, monkeypatch)

    @pytest.mark.parametrize("n, seed", [(17, 3), (24, 4)])
    def test_several_rounds(self, n, seed, monkeypatch):
        pts, qs, params = random_exponent_instance(2, 0.5, n, 6, seed)
        self.check(pts, qs, params, seed, monkeypatch)

    def test_outsiders(self, monkeypatch):
        pts, qs, params = outsider_instance()
        self.check(pts, qs, params, 97, monkeypatch)


def matrix_is_current(pts, queries, live) -> bool:
    """Whether the search's pair weights hold exact scores; if so, assert every
    pair of the round's representatives, live or retired, scores its own masked
    sum up to the scale.  Other pairs go stale by design: no search reads them."""
    e = queries.stab_exponents
    if live.weights.x is None:
        return False
    i, j = np.triu_indices(live.reps.size, 1)
    a, b = live.reps[i], live.reps[j]
    weights = queries.weights()
    expected = [weights[mask].sum() for mask in live.rows.stab_mask(a, b)]
    got = np.ldexp(live.weights.scores(a, b), live.weights.e0 - int(e.max()))
    assert np.array_equal(got, expected)
    return True


def build_against_reference(pts, qs, params, seed, shift=0):
    """Build the tree of ``qs``, and the reference one of a copy whose exponents
    are lowered by ``shift``; assert the same edges and final exponents, and
    return, per search, whether the matrix was current and its ``e0``."""
    seen = []
    real = spantree.find_light_edge

    def watched(pts, queries, params, lp, seed, live):
        seen.append((matrix_is_current(pts, queries, live), live.weights.e0))
        return real(pts, queries, params, lp, seed, live)

    lp = LightEdgeParams.for_eps(params.eps)
    ref_qs = QueryMultiset(qs.support, qs.stab_exponents - shift)
    expected = reference_low_stab_tree(pts, ref_qs, params, lp, Seed(seed))
    with mock.patch.object(spantree, "find_light_edge", watched):
        tree = build_low_stab_tree(pts, qs, params, lp, Seed(seed))
    assert tree.edges == expected
    assert np.array_equal(qs.stab_exponents, ref_qs.stab_exponents + shift)
    assert len(seen) == len(pts) - 1
    return seen


class TestPairWeights:
    """The maintained pair-weight matrix: equal to per-pair sums while they are
    exact, and a build that keeps it gives the reference tree across the switch
    to per-candidate sums."""

    @given(
        d=st.integers(1, 3),
        eps=st.sampled_from([0.3, 0.5, 0.9]),
        n=st.integers(2, 12),
        top=st.integers(0, 50),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_scores_equal_per_pair_sums_at_every_search(self, d, eps, n, top, seed):
        pts, qs, params = random_exponent_instance(d, eps, n, top, seed)
        exact_at_start = sums_are_exact(qs.stab_exponents)
        current, rounds = [], []
        real = spantree.find_light_edge
        real_scores, real_double = spantree.PairWeights.scores, spantree.PairWeights.double

        def checked(pts, queries, params, lp, seed, live):
            rounds.append(live)
            current.append(matrix_is_current(pts, queries, live))
            # the draw weights kept between doublings are the queries' own
            assert np.array_equal(live.weights.query_weights, queries.weights())
            assert np.array_equal(live.weights.running_sums, np.cumsum(queries.weights()))
            return real(pts, queries, params, lp, seed, live)

        def scores(weights, a, b):
            # only pairs of the round's representatives are read
            assert np.isin(a, rounds[-1].reps).all() and np.isin(b, rounds[-1].reps).all()
            return real_scores(weights, a, b)

        def double(weights, stabbed, reps):
            assert stabbed.size > 0, "an edge that stabs no query changes no weight"
            return real_double(weights, stabbed, reps)

        with (
            mock.patch.object(spantree, "find_light_edge", checked),
            mock.patch.object(spantree.PairWeights, "scores", scores),
            mock.patch.object(spantree.PairWeights, "double", double),
        ):
            build_low_stab_tree(pts, qs, params, LightEdgeParams.for_eps(eps), Seed(seed))
        assert current[0] == exact_at_start

    @pytest.mark.parametrize("seed", [5, 6])
    def test_build_switches_to_per_pair_sums_partway(self, seed):
        # every query but the first sits three doublings below the largest
        # exact span, so the sums turn inexact once one of them is stabbed thrice
        pts, qs, params = random_exponent_instance(2, 0.5, 24, 0, seed)
        top = 52 - (len(qs) - 1).bit_length()
        qs.stab_exponents[:] = top - 2
        qs.stab_exponents[0] = 0
        assert sums_are_exact(qs.stab_exponents)
        current = [c for c, _ in build_against_reference(pts, qs, params, seed)]
        assert current[0] and not current[-1]
        # once dropped, the matrix stays dropped
        assert current == sorted(current, reverse=True)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_exponents_past_float64s_range(self, seed):
        # 2**1100 overflows float64, so the matrix holds 2**(e - e0), and e0
        # is the largest exponent at the start, never moved
        pts, qs, params = random_exponent_instance(2, 0.5, 17, 6, seed)
        qs.stab_exponents += 1100
        seen = build_against_reference(pts, qs, params, seed, shift=1100)
        assert all(c for c, _ in seen)
        assert [e0 for _, e0 in seen] == [1106] * len(seen)

    def test_matrix_dropped_before_an_entry_could_outgrow_float64(self):
        # every query doubles each time, so the span stays 0 and the sums stay
        # exact: only the largest exponent's rise above e0 can drop the matrix
        pts, qs, params = random_exponent_instance(2, 0.5, 6, 0, 0)
        rows = BallRows.of(pts.points, qs.support, params)
        weights = spantree.PairWeights(rows, qs)
        reps = np.arange(len(pts))
        a, b = np.triu_indices(reps.size, 1)
        everything = np.arange(len(qs))
        expected = rows.stab_mask(a, b).sum(axis=1).astype(np.float64)  # every weight is one
        last = 1023 - (len(qs) - 1).bit_length()
        for _ in range(last - 1):
            weights.double(everything, reps)
        assert weights.x is not None
        scale = weights.e0 - int(qs.stab_exponents.max())
        assert np.array_equal(np.ldexp(weights.scores(a, b), scale), expected)
        weights.double(everything, reps)
        assert sums_are_exact(qs.stab_exponents)
        assert weights.x is None
        masked = [weights.query_weights[mask].sum() for mask in rows.stab_mask(a, b)]
        assert np.array_equal(weights.scores(a, b), masked)
        assert np.array_equal(masked, expected)

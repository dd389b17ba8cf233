"""Spanning trees with low stabbing weight: grid queries, light edges, forests."""

from __future__ import annotations

import math

import numpy as np
import pytest

from arccount.core import ContractViolation, EpsParams, GridSpec, Seed, WeightedPointSet, eps_stabs
from arccount.oracle import exact_sigma
from arccount.spantree import (
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
    stab_mask_for_pair,
)

PARAMS = EpsParams(eps=0.5)


def weighted(points: np.ndarray) -> WeightedPointSet:
    return WeightedPointSet(points, np.ones(len(points)))


def scatter(n: int, d: int, seed: int, scale: float = 2.0) -> WeightedPointSet:
    rng = Seed(seed).generator()
    return weighted(rng.uniform(0, scale, size=(n, d)))


class TestUnionFind:
    def test_union_and_count(self):
        uf = UnionFind(5)
        assert uf.component_count() == 5
        assert uf.union(0, 1)
        assert uf.union(3, 4)
        assert not uf.union(1, 0)
        assert uf.component_count() == 3
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


class TestStabMask:
    def test_matches_scalar_predicate(self):
        rng = Seed(61).generator()
        support = rng.uniform(-2, 2, size=(50, 3))
        x = rng.uniform(-2, 2, size=3)
        y = rng.uniform(-2, 2, size=3)
        mask = stab_mask_for_pair(support, x, y, PARAMS)
        for q, hit in zip(support, mask):
            assert bool(hit) == eps_stabs(q, x, y, PARAMS)

    def test_coincident_pair_never_stabbed(self):
        rng = Seed(62).generator()
        support = rng.uniform(-3, 3, size=(100, 2))
        p = np.array([0.3, 0.4])
        assert not stab_mask_for_pair(support, p, p, PARAMS).any()


class TestQueryMultiset:
    def test_from_support_starts_at_weight_one(self):
        qs = QueryMultiset.from_support(np.zeros((4, 2)))
        np.testing.assert_array_equal(qs.stored_weights(), np.ones(4))
        assert qs.exponents_match_weights()

    def test_empty_support_rejected(self):
        with pytest.raises(ContractViolation):
            QueryMultiset.from_support(np.zeros((0, 2)))


class TestFindLightEdge:
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
        # the three closest pairs are always candidates (no projection at
        # this dimension), so the winner can never score worse than they do
        pts = scatter(9, 2, seed=64, scale=3.0)
        qs = generate_grid_queries(pts, PARAMS, GridSpec(0.5))
        weights = qs.stored_weights()
        edge = find_light_edge(pts, qs, PARAMS, LightEdgeParams.for_eps(0.5), Seed(65))

        def score(a: int, b: int) -> float:
            mask = stab_mask_for_pair(qs.support, pts.points[a], pts.points[b], PARAMS)
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

    def test_total_weight_bounds_every_exponent(self):
        # each query's weight 2^sigma is a summand of the total, so sigma
        # can never exceed log2 of the total weight
        _pts, qs, _forest = self.build(12, seed=73)
        assert qs.stab_exponents.max() <= qs.sampler.log2_total() + 1e-9


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

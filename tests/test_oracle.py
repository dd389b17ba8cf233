"""Sanity checks on the brute-force oracles themselves."""

from __future__ import annotations

import math

import numpy as np
import pytest

from arccount.core import ContractViolation, EpsParams, WeightedPointSet
from arccount.oracle import (
    enumerate_spanning_trees,
    exact_range_indices,
    exact_range_weight,
    exact_sigma,
    exact_tq,
    exact_visiting_oracle,
    exact_zones,
    point_rows,
)


def unit_grid(side: int) -> WeightedPointSet:
    pts = np.array([[float(i), float(j)] for i in range(side) for j in range(side)])
    return WeightedPointSet(pts, np.ones(len(pts)))


class TestRangeWeight:
    def test_grid_disk_count_matches_inline_loop(self):
        grid = unit_grid(10)
        q = np.array([4.5, 4.5])
        expected = 0
        for i in range(10):
            for j in range(10):
                if math.hypot(i - 4.5, j - 4.5) <= 1.5:
                    expected += 1
        assert exact_range_weight(grid, q, 1.5) == expected
        assert expected == 4  # the four lattice neighbours of the cell center

    def test_weights_are_summed_not_counted(self):
        pts = WeightedPointSet(np.array([[0.0], [0.5], [3.0]]), np.array([2.0, 0.25, 99.0]))
        assert exact_range_weight(pts, np.array([0.0]), 1.0) == 2.25

    def test_closed_boundary(self):
        pts = WeightedPointSet(np.array([[1.0, 0.0]]), np.array([1.0]))
        assert exact_range_weight(pts, np.zeros(2), 1.0) == 1.0

    def test_negative_radius_rejected(self):
        pts = unit_grid(2)
        with pytest.raises(ContractViolation):
            exact_range_weight(pts, np.zeros(2), -0.5)

    def test_indices_agree_with_weight(self):
        rng = np.random.default_rng(50)
        pts = WeightedPointSet(rng.uniform(-2, 2, size=(30, 3)), rng.uniform(0.1, 2, size=30))
        q = np.zeros(3)
        idx = exact_range_indices(pts, q, 1.0)
        assert exact_range_weight(pts, q, 1.0) == pytest.approx(sum(pts.weights[i] for i in idx))


class TestSigmaAndAmbiguity:
    def test_partition_identity(self):
        # inner ball + ambiguity zone + strictly beyond partitions the set
        rng = np.random.default_rng(51)
        pts = WeightedPointSet(rng.uniform(-2, 2, size=(60, 3)), np.ones(60))
        params = EpsParams(eps=0.5)
        q = np.zeros(3)
        inner = len(exact_range_indices(pts, q, params.radius))
        outer = len(exact_range_indices(pts, q, params.outer_radius))
        assert inner + exact_tq(q, pts, params) == outer

    def test_zones_equal_the_separate_scans(self):
        # boundary points at exactly r and (1+eps) r included
        rng = np.random.default_rng(52)
        points = np.vstack([rng.uniform(-2, 2, size=(60, 3)), [[1.0, 0.0, 0.0], [0.0, -1.5, 0.0]]])
        pts = WeightedPointSet(points, np.ones(len(points)))
        params = EpsParams(eps=0.5)
        rows = point_rows(pts)
        for q in [np.zeros(3), *rng.uniform(-2, 2, size=(20, 3))]:
            assert exact_zones(rows, q, params) == (
                exact_range_indices(pts, q, params.radius),
                exact_range_indices(pts, q, params.outer_radius),
                exact_tq(q, pts, params),
            )

    def test_single_stabbed_edge(self):
        pts = WeightedPointSet(np.array([[0.5, 0.0], [1.7, 0.0], [0.6, 0.0]]), np.ones(3))
        params = EpsParams(eps=0.5)
        q = np.zeros(2)
        edges = [(0, 1), (0, 2), (1, 2)]
        # only edges pairing an inside point with the far point are stabbed
        assert exact_sigma(q, edges, pts, params) == 2

    def test_annulus_endpoint_never_stabs(self):
        pts = WeightedPointSet(np.array([[0.5, 0.0], [1.2, 0.0]]), np.ones(2))
        params = EpsParams(eps=0.5)
        assert exact_sigma(np.zeros(2), [(0, 1)], pts, params) == 0
        assert exact_tq(np.zeros(2), pts, params) == 1


class TestSpanningTreeEnumeration:
    @pytest.mark.parametrize("n,count", [(2, 1), (3, 3), (4, 16), (5, 125), (6, 1296), (7, 16807)])
    def test_cayley_counts_with_no_duplicates(self, n, count):
        seen = set()
        for edges in enumerate_spanning_trees(n):
            assert len(edges) == n - 1
            key = frozenset(edges)
            assert key not in seen
            seen.add(key)
        assert len(seen) == count

    def test_trees_are_connected(self):
        for edges in enumerate_spanning_trees(5):
            reach = {0}
            frontier = [0]
            adj = {v: [] for v in range(5)}
            for a, b in edges:
                adj[a].append(b)
                adj[b].append(a)
            while frontier:
                v = frontier.pop()
                for u in adj[v]:
                    if u not in reach:
                        reach.add(u)
                        frontier.append(u)
            assert reach == set(range(5))

    def test_out_of_range_rejected(self):
        with pytest.raises(ContractViolation):
            list(enumerate_spanning_trees(9))
        with pytest.raises(ContractViolation):
            list(enumerate_spanning_trees(1))


class TestVisitingOracle:
    def test_all_far_visits_only_root(self):
        pts = WeightedPointSet(np.full((8, 2), 50.0), np.ones(8))
        assert exact_visiting_oracle(range(8), pts, np.zeros(2), EpsParams(0.5)) == 1

    def test_all_near_visits_only_root(self):
        pts = WeightedPointSet(np.zeros((8, 2)), np.ones(8))
        assert exact_visiting_oracle(range(8), pts, np.zeros(2), EpsParams(0.5)) == 1

    def test_hand_worked_four_leaf_case(self):
        # leaves at distances [0.5, 2.0, 0.5, 0.5]; root is stabbed, its left
        # child {0.5, 2.0} is stabbed again, the right child {0.5, 0.5} is not:
        # 1 + 2 (root expands) + 2 (left child expands) = 5
        pts = WeightedPointSet(np.array([[0.5], [2.0], [0.5], [0.5]]), np.ones(4))
        assert exact_visiting_oracle([0, 1, 2, 3], pts, np.zeros(1), EpsParams(0.5)) == 5

    def test_order_changes_the_count(self):
        # grouping near with near and far with far stops the recursion one
        # level down; interleaving them forces both halves to expand
        pts = WeightedPointSet(np.array([[0.5], [0.5], [2.0], [2.0]]), np.ones(4))
        grouped = exact_visiting_oracle([0, 1, 2, 3], pts, np.zeros(1), EpsParams(0.5))
        interleaved = exact_visiting_oracle([0, 2, 1, 3], pts, np.zeros(1), EpsParams(0.5))
        assert grouped == 3
        assert interleaved == 7

    def test_rejects_non_permutations(self):
        pts = WeightedPointSet(np.zeros((3, 1)), np.ones(3))
        with pytest.raises(ContractViolation):
            exact_visiting_oracle([0, 1, 1], pts, np.zeros(1), EpsParams(0.5))

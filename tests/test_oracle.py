"""Sanity checks on the brute-force oracles themselves, and the holdout audit held to them."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arccount import counter
from arccount.core import ContractViolation, EpsParams, Seed, WeightedPointSet
from arccount.counter import BuildConfig, StoredOrder, build_counting_index, count, evaluate_visiting
from arccount.learned import QuerySample
from arccount.oracle import (
    enumerate_spanning_trees,
    exact_range_indices,
    exact_range_weight,
    exact_sigma,
    exact_tq,
    exact_visiting_oracle,
)
from arccount.ptree import PartitionTree


def audit_case(
    kind: str, n: int, d: int, step: float, k: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, float]:
    """Points, queries and a radius of one ``kind`` of audit input.

    ``lattice`` takes the radius ``k`` steps of a lattice of side ``step``
    and puts 3-4-5 triples of steps at 3, 4 and 5 steps of lattice
    queries, on ``r`` and, at eps 2/3 (k 3) or 0.25 (k 4), on ``(1+eps) r``;
    at steps 0.1 and 1.1, unlike 0.3, comparing squared distances there
    decides some points otherwise than ``math.dist``.  ``offset`` moves
    random data by 10**6; ``huge`` takes a radius near ``BuildConfig``'s
    limit, with points whose squared distances overflow.
    """
    if kind == "lattice":
        ticks = np.arange(-6, 7)
        grid = step * np.stack(np.meshgrid(ticks, ticks), axis=-1).reshape(-1, 2)
        points = grid[rng.choice(len(grid), size=min(n, len(grid)), replace=False)]
        queries = step * rng.integers(-4, 5, size=(6, 2))
        triples = [(3, 4), (-4, 3), (0, 5), (5, 0), (3, 0), (0, -4), (-3, -4)]
        ties = [queries[0] + step * np.array(t) for t in triples]
        return np.vstack([points, ties]), queries, step * k
    if kind == "huge":
        radius = 5e153
        points = rng.uniform(-1.0, 1.0, size=(n, 2)) * 1.5e155
        points[: n // 2] = rng.uniform(-1.0, 1.0, size=(n // 2, 2)) * 2.0 * radius
        queries = np.vstack([np.zeros((1, 2)), points[:3], [[radius, 0.0], [1.5 * radius, 0.0]]])
        return points, queries, radius
    points = rng.uniform(-2.0, 2.0, size=(n, d))
    queries = np.vstack([np.zeros((1, d)), points[:2], rng.uniform(-2.0, 2.0, size=(4, d))])
    points[0] = np.eye(d)[0]  # at exactly r from the first query, the origin
    if kind == "offset":
        points, queries = points + 1e6, queries + 1e6
    return points, queries, 1.0


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

    @given(
        kind=st.sampled_from(["random", "lattice", "offset", "huge"]),
        n=st.integers(1, 40),
        d=st.integers(1, 4),
        eps=st.sampled_from([0.5, 2.0 / 3.0, 0.25]) | st.floats(0.01, 0.99),
        step=st.sampled_from([0.3, 0.1, 1.1]),
        k=st.integers(3, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(kind="lattice", n=40, d=2, eps=0.5, step=0.3, k=5, seed=0)
    @example(kind="lattice", n=40, d=2, eps=2.0 / 3.0, step=0.1, k=3, seed=1)
    @example(kind="lattice", n=40, d=2, eps=0.25, step=1.1, k=4, seed=2)
    @example(kind="lattice", n=40, d=2, eps=0.5, step=0.1, k=5, seed=3)
    @example(kind="offset", n=30, d=3, eps=0.5, step=0.3, k=3, seed=4)
    @example(kind="huge", n=20, d=2, eps=0.5, step=0.3, k=3, seed=5)
    @settings(max_examples=60, deadline=None)
    def test_zones_equal_the_separate_scans(self, kind, n, d, eps, step, k, seed):
        # the holdout audit's zones, t_q and sandwich flag against the
        # separate scans, over path positions mapped back to point ids
        points, queries, radius = audit_case(kind, n, d, step, k, np.random.default_rng(seed))
        pts = WeightedPointSet(points, np.ones(len(points)))
        order = PartitionTree(np.random.default_rng(seed).permutation(len(points)))
        cfg = BuildConfig(eps=eps, seed=Seed(0), tree_source=StoredOrder(order, "learned"), radius=radius)
        idx = build_counting_index(pts, cfg)
        params = EpsParams(eps, radius)
        report = evaluate_visiting(idx, QuerySample(queries, source="audit"))
        ids = idx.tree.order
        for q, row in zip(queries, report.per_query):
            inner = exact_range_indices(pts, q, params.radius)
            outer = exact_range_indices(pts, q, params.outer_radius)
            got_inner, got_outer = counter._zones(idx.path_points, q, params)
            assert set(ids[got_inner].tolist()) == inner
            assert set(ids[got_outer].tolist()) == outer
            assert row["t_q"] == exact_tq(q, pts, params)
            ranges = count(idx, q, verify=True).member_ranges
            answer = {int(i) for lo, hi in ranges for i in ids[lo:hi]}
            assert row["sandwich_ok"] is (inner <= answer <= outer)

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

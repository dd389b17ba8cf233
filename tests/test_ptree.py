"""Partition trees: linearization, shape, visiting counts."""

from __future__ import annotations

import math

import numpy as np
import pytest

from arccount import ptree
from arccount.core import ContractViolation, EpsParams, Seed, WeightedPointSet
from arccount.oracle import exact_visiting_oracle
from arccount.ptree import PartitionTree, split, tree_to_path, visiting_number
from arccount.spantree import Edge, SpanningTree

PARAMS = EpsParams(eps=0.5)
NODE_ARRAYS = ("lo", "hi", "parent", "inner", "twice_size")


def weighted(points: np.ndarray) -> WeightedPointSet:
    return WeightedPointSet(points, np.ones(len(points)))


def children(k: int, lo: int, hi: int) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """Preorder position and range of each child: the left subtree directly follows its parent."""
    mid = split(lo, hi)
    return (k + 1, lo, mid), (k + 2 * (mid - lo), mid, hi)


def internal_ranges(t: PartitionTree) -> list[tuple[int, int, int]]:
    """``(k, lo, hi)`` of every internal node in preorder: parents first, left before right."""
    inner = np.flatnonzero(t.inner)
    return list(zip(inner.tolist(), t.lo[inner].tolist(), t.hi[inner].tolist()))


def leaf_ranges(t: PartitionTree) -> list[tuple[int, int, int]]:
    """``(k, lo, hi)`` of every leaf, sorted by ``lo``: the root, or children owning one position."""
    if t.n == 1:
        return [(0, 0, 1)]
    leaves = [c for node in internal_ranges(t) for c in children(*node) if c[2] - c[1] == 1]
    return sorted(leaves, key=lambda c: c[1])


class TestPartitionTreeOrder:
    def test_accepts_permutation(self):
        assert PartitionTree(np.array([2, 0, 1])).n == 3

    @pytest.mark.parametrize("order", [[0, 0, 1], [0, 2], [[0, 1]]])
    def test_rejects_non_permutation(self, order):
        with pytest.raises(ContractViolation, match="must be a permutation of"):
            PartitionTree(np.array(order))

    @pytest.mark.parametrize("order", [[0.5, 1.5, 2.9], [0.0, 1.0, 2.0], [True, False]])
    def test_refuses_an_order_that_is_not_integer_rather_than_truncate_it(self, order):
        # cast to int64, the first would read [0 1 2] and the last [1 0]
        with pytest.raises(ContractViolation, match="must hold integers"):
            PartitionTree(np.array(order))

    @pytest.mark.parametrize("dtype", [np.int32, np.uint16, np.int64])
    def test_keeps_a_read_only_int64_copy(self, dtype):
        given = np.array([2, 0, 1], dtype=dtype)
        t = PartitionTree(given)
        assert t.order.dtype == np.int64 and not np.shares_memory(t.order, given)
        given[[0, 1]] = given[[1, 0]]
        assert t.order.tolist() == [2, 0, 1]
        with pytest.raises(ValueError):
            t.order[0] = 1


class TestTreeToPath:
    def test_path_graph_gives_identity_order(self):
        t = SpanningTree(4, [Edge(0, 1), Edge(1, 2), Edge(2, 3)])
        path = tree_to_path(t, weighted(np.zeros((4, 1))))
        assert path.order.tolist() == [0, 1, 2, 3]

    def test_star_visits_leaves_in_index_order(self):
        t = SpanningTree(4, [Edge(0, 1), Edge(0, 2), Edge(0, 3)])
        path = tree_to_path(t, weighted(np.zeros((4, 1))))
        assert path.order.tolist() == [0, 1, 2, 3]

    def test_hand_worked_branching_tree(self):
        # 0 - 2, 2 - 1, 2 - 4, 0 - 3: from 0 visit 2 first (ascending
        # neighbours), descend through 2's subtree {1, 4}, then return for 3
        t = SpanningTree(5, [Edge(0, 2), Edge(1, 2), Edge(2, 4), Edge(0, 3)])
        path = tree_to_path(t, weighted(np.zeros((5, 1))))
        assert path.order.tolist() == [0, 2, 1, 4, 3]

    def test_size_mismatch_rejected(self):
        t = SpanningTree(3, [Edge(0, 1), Edge(1, 2)])
        with pytest.raises(ContractViolation):
            tree_to_path(t, weighted(np.zeros((4, 1))))


class TestPartitionTreeShape:
    def test_five_leaf_ranges(self):
        # ceil-splits of [0, 5): left gets 3, then 2/1, then 1/1 at the bottom
        t = PartitionTree(np.arange(5))
        assert internal_ranges(t) == [(0, 0, 5), (1, 0, 3), (2, 0, 2), (6, 3, 5)]
        assert leaf_ranges(t) == [(3, 0, 1), (4, 1, 2), (5, 2, 3), (7, 3, 4), (8, 4, 5)]
        assert list(zip(t.lo.tolist(), t.hi.tolist())) == [(0, 5), (0, 3), (0, 2), (0, 1), (1, 2), (2, 3), (3, 5), (3, 4), (4, 5)]
        assert t.parent.tolist() == [0, 0, 1, 2, 2, 1, 0, 6, 6]

    def test_leaf_count_and_depth(self):
        for n in (1, 2, 3, 4, 7, 8, 9, 33):
            t = PartitionTree(np.arange(n))
            assert len(leaf_ranges(t)) == n
            assert len(internal_ranges(t)) == n - 1
            assert t.depth == (0 if n == 1 else math.ceil(math.log2(n)))

    def test_sibling_sizes_differ_by_at_most_one(self):
        t = PartitionTree(np.arange(21))
        for node in internal_ranges(t):
            (_, llo, lhi), (_, rlo, rhi) = children(*node)
            assert 0 <= (lhi - llo) - (rhi - rlo) <= 1

    def test_children_sit_at_their_preorder_positions(self):
        for n in (2, 5, 6, 17, 33):
            t = PartitionTree(np.arange(n))
            assert t.lo.size == 2 * n - 1
            for node in internal_ranges(t):
                for k, lo, hi in children(*node):
                    assert (t.lo[k], t.hi[k]) == (lo, hi)
                    assert t.parent[k] == node[0]

    def test_inner_and_twice_size_follow_the_ranges(self):
        # kept per tree so that no query recomputes them from lo and hi
        for n in (1, 2, 5, 6, 17, 33):
            t = PartitionTree(np.arange(n))
            np.testing.assert_array_equal(t.inner, t.hi - t.lo > 1)
            np.testing.assert_array_equal(t.twice_size, 2 * (t.hi - t.lo))
            assert t.inner.dtype == bool and t.twice_size.dtype == np.intp

    def test_member_indices_follow_the_order(self):
        # a node owns the points order[lo:hi] of its path range
        order = np.array([3, 1, 4, 0, 2])
        t = PartitionTree(order)
        members = {i: t.order[lo:hi] for i, lo, hi in internal_ranges(t)}
        np.testing.assert_array_equal(members[0], order)
        np.testing.assert_array_equal(members[1], order[:3])
        np.testing.assert_array_equal(members[6], order[3:])

    def test_leaf_ranges_tile_the_path_left_to_right(self):
        for n in (1, 2, 5, 6, 17):
            t = PartitionTree(np.arange(n))
            leaves = leaf_ranges(t)
            assert [(lo, hi) for _, lo, hi in leaves] == [(k, k + 1) for k in range(n)]
            assert len({k for k, _, _ in leaves}) == n


def eager_node_arrays(n: int) -> dict[str, np.ndarray]:
    """The node arrays as the tree once laid them out at every construction, one level at a time."""
    lo = np.empty(2 * n - 1, dtype=np.int64)
    hi = np.empty(2 * n - 1, dtype=np.int64)
    parent = np.zeros(2 * n - 1, dtype=np.int64)
    k, a, b = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64), np.full(1, n, dtype=np.int64)
    while k.size:
        lo[k], hi[k] = a, b
        inner = b - a > 1
        k, a, b = k[inner], a[inner], b[inner]
        mid = split(a, b)
        left, right = k + 1, k + 2 * (mid - a)
        parent[left] = parent[right] = k
        k, a, b = np.concatenate((left, right)), np.concatenate((a, mid)), np.concatenate((mid, b))
    size = hi - lo
    return {"lo": lo, "hi": hi, "parent": parent, "inner": size > 1, "twice_size": 2 * size}


def node_arrays_held(t: PartitionTree) -> set[str]:
    """The names of the node arrays that ``t`` holds: none, or all five."""
    held = vars(t).get("_nodes")
    return {name for name, arr in zip(NODE_ARRAYS, held or ()) if isinstance(arr, np.ndarray)}


class TestNodeArraysOnFirstRead:
    def test_a_new_tree_holds_its_order_alone(self):
        t = PartitionTree(np.arange(9))
        assert set(vars(t)) == {"order"}

    @pytest.mark.parametrize("name", NODE_ARRAYS)
    def test_the_first_read_of_any_array_lays_out_all_of_them_once(self, name, monkeypatch):
        t = PartitionTree(np.arange(9))
        calls = []
        real = ptree._node_arrays
        monkeypatch.setattr(ptree, "_node_arrays", lambda n: calls.append(n) or real(n))
        first = getattr(t, name)
        assert node_arrays_held(t) == set(NODE_ARRAYS)
        held = dict(zip(NODE_ARRAYS, vars(t)["_nodes"]))
        for k in NODE_ARRAYS:
            assert getattr(t, k) is held[k]
        assert getattr(t, name) is first and calls == [9]

    def test_the_arrays_equal_the_eager_level_loop(self):
        for n in [*range(1, 301), 4097]:
            t = PartitionTree(np.arange(n))
            expected = eager_node_arrays(n)
            for name in NODE_ARRAYS:
                got = getattr(t, name)
                assert got.dtype == expected[name].dtype
                np.testing.assert_array_equal(got, expected[name])

    def test_the_arrays_are_read_only(self):
        t = PartitionTree(np.arange(6))
        for name in NODE_ARRAYS:
            with pytest.raises(ValueError):
                getattr(t, name)[0] = 1

    def test_the_first_walk_lays_them_out_and_later_walks_reuse_them(self, monkeypatch):
        pts = weighted(np.zeros((8, 2)))
        t = PartitionTree(np.arange(8))
        calls = []
        real = ptree._node_arrays
        monkeypatch.setattr(ptree, "_node_arrays", lambda n: calls.append(n) or real(n))
        first = visiting_number(t, np.zeros(2), pts, PARAMS)
        assert node_arrays_held(t) == set(NODE_ARRAYS)
        held = vars(t)["_nodes"]
        assert visiting_number(t, np.ones(2), pts, PARAMS) >= 1 and first >= 1
        assert vars(t)["_nodes"] is held and calls == [8]


class TestCanonicalPath:
    def test_round_trip(self):
        # read left to right, the leaves give back the path order
        rng = Seed(91).generator()
        for n in (1, 2, 6, 17):
            order = rng.permutation(n)
            t = PartitionTree(order)
            back = [t.order[lo] for _, lo, _ in leaf_ranges(t)]
            np.testing.assert_array_equal(back, order)


class TestVisitingNumber:
    def test_agrees_with_independent_oracle(self):
        rng = Seed(92).generator()
        for trial in range(30):
            n = int(rng.integers(2, 24))
            pts = weighted(rng.uniform(-2, 2, size=(n, 3)))
            order = rng.permutation(n)
            t = PartitionTree(order)
            q = rng.uniform(-2.5, 2.5, size=3)
            assert visiting_number(t, q, pts, PARAMS) == exact_visiting_oracle(order, pts, q, PARAMS)
        # half-integer lattices at eps 0.5, r 1: squared distances are
        # multiples of 1/4, so members sit exactly at r and at (1+eps) r
        assert (PARAMS.radius, PARAMS.outer_radius) == (1.0, 1.5)
        for trial in range(290):
            n, d = 1 + trial % 29, 1 + trial % 3
            pts = weighted(rng.integers(-4, 5, size=(n, d)) / 2.0)
            order = rng.permutation(n)
            t = PartitionTree(order)
            q = rng.integers(-2, 3, size=d) / 2.0
            assert visiting_number(t, q, pts, PARAMS) == exact_visiting_oracle(order, pts, q, PARAMS)

    def test_far_query_visits_one_node(self):
        pts = weighted(np.zeros((8, 2)))
        t = PartitionTree(np.arange(8))
        assert visiting_number(t, np.array([40.0, 0.0]), pts, PARAMS) == 1

    def test_dimension_mismatch_rejected(self):
        pts = weighted(np.zeros((4, 2)))
        t = PartitionTree(np.arange(4))
        with pytest.raises(ContractViolation):
            visiting_number(t, np.zeros(3), pts, PARAMS)

    @pytest.mark.parametrize("n", [4, 16])
    def test_point_set_of_another_size_rejected(self, n):
        # a larger set would be answered on its first 8 points, a smaller
        # one would index past its end
        t = PartitionTree(np.arange(8))
        with pytest.raises(ContractViolation):
            visiting_number(t, np.zeros(2), weighted(np.zeros((n, 2))), PARAMS)

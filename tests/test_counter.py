"""End-to-end counting index: build modes, traversal, verification."""

from __future__ import annotations

import gc
import math
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arccount import counter, ptree
from arccount.core import (
    FLOAT64,
    ContractViolation,
    EpsParams,
    Seed,
    WeightedPointSet,
    as_point,
    eps_stabs,
    point_and_norm,
    sq_dists_to,
)
from arccount.counter import (
    BuildConfig,
    CountAnswer,
    CountingIndex,
    LearnedSource,
    StoredOrder,
    WorstCaseSource,
    build_counting_index,
    count,
)
from arccount.io import load_model, save_model, write_points
from arccount.learned import QuerySample, near_data_queries
from arccount.oracle import exact_range_indices, exact_range_weight, exact_visiting_oracle
from arccount.ptree import PartitionTree, split, visiting_number
from arccount.stabber import Verdict, build_classifier, build_stab_index, classify, stab_witnesses


def learned_config(eps: float = 0.5, seed: int = 0, **kw) -> BuildConfig:
    sample = kw.pop("sample")
    return BuildConfig(eps=eps, seed=Seed(seed), tree_source=LearnedSource(sample), **kw)


def small_learned_index(
    n: int = 40, d: int = 4, eps: float = 0.5, seed: int = 110, **kw
) -> tuple[WeightedPointSet, CountingIndex]:
    rng = Seed(seed).generator()
    pts = WeightedPointSet(rng.uniform(0, 3, size=(n, d)), rng.uniform(0.1, 2.0, size=n))
    sample = near_data_queries(pts, 200, sigma=0.6, seed=Seed(seed + 1))
    cfg = learned_config(eps=eps, seed=seed + 2, sample=sample, **kw)
    return pts, build_counting_index(pts, cfg)


def answer_set(idx: CountingIndex, ranges: list[tuple[int, int]]) -> set[int]:
    out: set[int] = set()
    for lo, hi in ranges:
        out.update(int(v) for v in idx.tree.order[lo:hi])
    return out


class TestDeterministicExtremes:
    def test_all_near_returns_total_weight(self):
        rng = Seed(111).generator()
        pts = WeightedPointSet(rng.uniform(-0.2, 0.2, size=(30, 3)), rng.uniform(0.5, 2.0, size=30))
        sample = near_data_queries(pts, 100, sigma=0.5, seed=Seed(112))
        idx = build_counting_index(pts, learned_config(sample=sample, seed=113))
        ans = count(idx, np.zeros(3))
        assert ans.weight == pytest.approx(float(pts.weights.sum()), rel=1e-12)
        assert ans.visited_nodes == 1
        assert ans.verdict_counts["covered"] == 1

    def test_all_far_returns_zero(self):
        rng = Seed(114).generator()
        pts = WeightedPointSet(rng.uniform(-0.2, 0.2, size=(30, 3)), rng.uniform(0.5, 2.0, size=30))
        sample = near_data_queries(pts, 100, sigma=0.5, seed=Seed(115))
        idx = build_counting_index(pts, learned_config(sample=sample, seed=116))
        ans = count(idx, np.full(3, 20.0))
        assert ans.weight == 0.0
        assert ans.visited_nodes == 1
        assert ans.verdict_counts["disjoint"] == 1


class TestSandwich:
    def test_answer_set_sandwiched_at_full_eps(self):
        # node verdicts and leaf tests run at eps/2, so the reported set must
        # contain the inner ball and fit inside the outer one on every query
        pts, idx = small_learned_index(n=48, d=4, seed=117)
        params = EpsParams(0.5)
        rng = Seed(118).generator()
        for _ in range(40):
            q = rng.uniform(-0.5, 3.5, size=4)
            ans = count(idx, q, verify=True)
            got = answer_set(idx, ans.member_ranges)
            inner = exact_range_indices(pts, q, params.radius)
            outer = exact_range_indices(pts, q, params.outer_radius)
            assert inner.issubset(got)
            assert got.issubset(outer)

    def test_weight_equals_member_range_total(self):
        pts, idx = small_learned_index(n=36, d=3, seed=119)
        rng = Seed(120).generator()
        for _ in range(25):
            q = rng.uniform(-0.5, 3.5, size=3)
            ans = count(idx, q, verify=True)  # raises internally on mismatch
            total = sum(float(pts.weights[list(answer_set(idx, [rg]))].sum()) for rg in ans.member_ranges)
            assert ans.weight == pytest.approx(total, abs=1e-12 * max(1.0, abs(total)))

    def test_verify_rejects_ranges_of_another_set_with_the_same_total(self, monkeypatch):
        # unit weights: a walk that swaps one included leaf for an excluded
        # one keeps the ranges' total, but its set is not the weight's
        rng = Seed(240).generator()
        idx = index_over(rng.uniform(0.0, 6.0, size=(40, 2)))
        q = idx.path_points[0]
        walk = ptree.walk
        swapped_ranges = []

        def swapped(tree, outer, inner):
            visited, verdicts, included = walk(tree, outer, inner)
            members = np.zeros(len(outer), dtype=bool)
            for lo, hi in zip(tree.lo[included], tree.hi[included]):
                members[lo:hi] = True
            leaf = ~tree.inner
            included = included.copy()
            included[np.flatnonzero(included & leaf)[0]] = False
            included[np.flatnonzero(leaf & ~members[tree.lo])[0]] = True
            swapped_ranges.extend(zip(tree.lo[included], tree.hi[included]))
            return visited, verdicts, included

        weight = count(idx, q, verify=True).weight
        monkeypatch.setattr(ptree, "walk", swapped)
        with pytest.raises(AssertionError, match="not the set"):
            count(idx, q, verify=True)
        assert sum(float(idx.path_weights[lo:hi].sum()) for lo, hi in swapped_ranges) == weight

    def test_member_ranges_sorted_and_disjoint(self):
        pts, idx = small_learned_index(n=30, d=3, seed=121)
        q = pts.points[0]
        ans = count(idx, q, verify=True)
        for (a0, a1), (b0, b1) in zip(ans.member_ranges, ans.member_ranges[1:]):
            assert a0 < a1 <= b0 < b1


class TestTraversalCost:
    def test_visited_matches_exact_visiting_number(self):
        # the walk's codes are the paper's closed-ball zones, so it expands
        # exactly the nodes the visiting oracle says it should: on random
        # data, and on an 8 x 8 unit lattice queried at every lattice point,
        # where neighbours lie at exactly r = 1 and the working outer radius
        # 1.25 falls between the squared distances 1 and 2
        pts, idx = small_learned_index(n=44, d=3, seed=122)
        rng = Seed(123).generator()
        cases = [(idx, list(rng.uniform(-0.5, 3.5, size=(30, 3))))]
        lattice = np.array([(i, j) for i in range(8) for j in range(8)], dtype=np.float64)
        lattice_pts = WeightedPointSet(lattice, np.ones(64))
        cfg = BuildConfig(eps=0.5, seed=Seed(124), tree_source=WorstCaseSource())
        for lattice_idx in (index_over(lattice, order=rng.permutation(64)), build_counting_index(lattice_pts, cfg)):
            cases.append((lattice_idx, list(lattice)))
        for index, queries in cases:
            points = index.points()
            for q in queries:
                visited = count(index, q).visited_nodes
                assert visited == visiting_number(index.tree, q, points, index.working)
                assert visited == exact_visiting_oracle(index.tree.order, points, q, index.working)


MASK_VERDICTS = {(True, False): Verdict.COVERED, (False, True): Verdict.DISJOINT}


class TestPrefixVerdicts:
    @pytest.mark.parametrize("worstcase", [False, True])
    def test_match_the_stab_classifier_on_every_node(self, worstcase):
        # the verdicts the walk reads from the code sums are the ones the
        # paper's Hamming stab classifier gives for each node's members at
        # the working error; no member lies at exactly r, where the
        # classifier's far witness (distance >= r) and the walk's closed
        # inner ball part
        seed = 170 + 2 * worstcase
        rng = Seed(seed).generator()
        if worstcase:
            pts = WeightedPointSet(rng.uniform(0, 2.5, size=(14, 2)), rng.uniform(0.5, 1.5, size=14))
            source = WorstCaseSource()
        else:
            pts = WeightedPointSet(rng.uniform(0, 3, size=(36, 3)), rng.uniform(0.1, 2.0, size=36))
            source = LearnedSource(near_data_queries(pts, 150, sigma=0.6, seed=Seed(seed + 10)))
        cfg = BuildConfig(eps=0.5, seed=Seed(seed + 20), tree_source=source)
        idx = build_counting_index(pts, cfg)
        seen = set()
        for k in range(8):
            q = pts.points[k] + rng.normal(0.0, 0.7, size=pts.dim)
            qw = as_point(q, pts.dim)
            near, within_r = working_masks(idx, qw)
            inner = np.flatnonzero(idx.tree.inner)
            for node, lo, hi in zip(inner.tolist(), idx.tree.lo[inner].tolist(), idx.tree.hi[inner].tolist()):
                subset = pts.subset(idx.tree.order[lo:hi])
                clf = build_classifier(subset, idx.working, seed=Seed(seed + 30).derive(k, node))
                has_near, has_far = bool(near[lo:hi].any()), not within_r[lo:hi].all()
                verdict = MASK_VERDICTS.get((has_near, has_far), Verdict.STABBED)
                assert verdict is classify(clf, qw)
                seen.add(verdict)
        assert len(seen) == 3


def stack_walk(idx: CountingIndex, q: np.ndarray) -> tuple[float, int, dict[str, int], list[tuple[int, int]]]:
    """The depth-first stack walk over heap slots that ``count`` once was, as a reference.

    Heap slot ``i`` has children ``2i+1`` and ``2i+2`` and caches its
    subtree weight, filled bottom-up as left plus right; the walk pops the
    left child first and adds weights from 0.0 as it includes nodes.
    """
    qw = as_point(q, idx.path_points.shape[1])
    n = idx.tree.n
    d2 = sq_dists_to(idx.path_points, qw)
    outer, r = idx.working.outer_radius, idx.working.radius
    near = [0] + np.cumsum(d2 <= outer * outer).tolist()
    far = [0] + np.cumsum(d2 > r * r).tolist()
    leaf = idx.points().weights[idx.tree.order].tolist()
    cum_weight = [0.0] * (2 ** (idx.tree.depth + 1) - 1)

    def fill(i: int, lo: int, hi: int) -> float:
        if hi - lo == 1:
            w = leaf[lo]
        else:
            mid = split(lo, hi)
            w = fill(2 * i + 1, lo, mid) + fill(2 * i + 2, mid, hi)
        cum_weight[i] = w
        return w

    fill(0, 0, n)
    weight, visited = 0.0, 0
    verdicts = {"stabbed": 0, "covered": 0, "disjoint": 0}
    ranges = []
    stack = [(0, 0, n)]
    while stack:
        i, lo, hi = stack.pop()
        visited += 1
        has_near, has_far = near[hi] != near[lo], far[hi] != far[lo]
        if hi - lo == 1:
            if has_near:
                weight += cum_weight[i]
                ranges.append((lo, hi))
        elif has_near and not has_far:
            verdicts["covered"] += 1
            weight += cum_weight[i]
            ranges.append((lo, hi))
        elif has_far and not has_near:
            verdicts["disjoint"] += 1
        else:
            verdicts["stabbed"] += 1
            mid = split(lo, hi)
            stack.append((2 * i + 2, mid, hi))
            stack.append((2 * i + 1, lo, mid))
    return weight, visited, verdicts, sorted(ranges)


def flat_weight(idx: CountingIndex, q: np.ndarray) -> float:
    """The path weights within the working outer radius, by ``sq_dists_to``, summed in path order from 0.0."""
    outer = idx.working.outer_radius
    mask = sq_dists_to(idx.path_points, as_point(q, idx.path_points.shape[1])) <= outer * outer
    return float(idx.path_weights[mask].sum()) + 0.0


def assert_answers_like_the_stack_walk(idx: CountingIndex, q: np.ndarray) -> CountAnswer:
    """``count`` with verification against ``stack_walk``: visits, verdict
    counts in key order and the member ranges to the last bit, and the
    weight to the last bit of the flat sum and within rounding of the walk's."""
    weight, visited, verdicts, ranges = stack_walk(idx, q)
    ans = count(idx, q, verify=True)
    assert ans.weight.hex() == flat_weight(idx, q).hex()
    assert abs(ans.weight - weight) <= 1e-12 * max(1.0, float(np.abs(idx.path_weights).sum()))
    assert ans.visited_nodes == visited
    assert list(ans.verdict_counts.items()) == list(verdicts.items())
    assert ans.member_ranges == ranges
    return ans


# offsets from the query on a dyadic lattice, where every squared distance
# is exact: the first two lie at exactly the working radius 1 and exactly
# the working outer radius 1.25 (eps = 0.5, so eps/2 = 0.25)
LATTICE = [
    (1.0, 0.0), (0.75, 1.0), (0.0, -1.0), (0.0, 1.25), (-1.0, 0.0), (-1.0, -0.75),
    (0.5, 0.5), (0.0, 0.0), (1.5, 0.0), (-0.75, 1.0), (2.0, 2.0), (0.0, 1.0), (-1.25, 0.0),
]


class TestStackWalkEquivalence:
    @pytest.mark.parametrize("worstcase", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 100, 257])
    def test_count_answers_like_the_stack_walk(self, n, worstcase):
        # weight to the last bit, visits, verdict counts in key order and the
        # member ranges, over weights of either sign and three radii, at
        # every kind of query: on a point, near one, far away
        d = 2 if worstcase else 3
        for radius in (0.3, 1.0, 2.5):
            seed = Seed(180 + n).derive(worstcase, 0, int(10 * radius))
            rng = seed.generator()
            points = rng.uniform(0.0, 2.5 * radius, size=(n, d))
            pts = WeightedPointSet(points, rng.uniform(-2.0, 2.0, size=n))
            if worstcase:
                source = WorstCaseSource(grid_side=radius / 2.0)
            else:
                source = LearnedSource(near_data_queries(pts, 60, sigma=radius, seed=seed.derive(1)))
            cfg = BuildConfig(eps=0.5, seed=seed.derive(2), tree_source=source, radius=radius)
            idx = build_counting_index(pts, cfg)
            queries = [points[0], points[-1] + 0.7 * radius, np.full(d, 50.0 * radius)]
            queries += list(points[rng.integers(0, n, size=6)] + rng.normal(0.0, radius, size=(6, d)))
            queries += list(rng.uniform(-radius, 3.5 * radius, size=(3, d)))
            for q in queries:
                ans = assert_answers_like_the_stack_walk(idx, q)
                assert count(idx, q).weight.hex() == ans.weight.hex()

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_every_point_in_the_working_annulus(self, n):
        # every point is both near and far, so every node is STABBED: the
        # walk visits all 2n - 1 nodes and includes every leaf
        seed = Seed(192).derive(n)
        rng = seed.generator()
        q = rng.uniform(-1.0, 1.0, size=3)
        directions = rng.normal(size=(n, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        # the working annulus at eps = 0.5 is [1, 1.25]
        points = q + directions * rng.uniform(1.05, 1.2, size=(n, 1))
        pts = WeightedPointSet(points, rng.uniform(-2.0, 2.0, size=n))
        sample = near_data_queries(pts, 40, sigma=1.0, seed=seed.derive(1))
        idx = build_counting_index(pts, learned_config(sample=sample, seed=193))
        ans = assert_answers_like_the_stack_walk(idx, q)
        assert ans.visited_nodes == 2 * n - 1
        assert ans.verdict_counts == {"stabbed": n - 1, "covered": 0, "disjoint": 0}
        assert ans.member_ranges == [(k, k + 1) for k in range(n)]

    @pytest.mark.parametrize("worstcase", [False, True])
    @pytest.mark.parametrize("n", [1, 2, len(LATTICE)])
    def test_points_exactly_on_the_working_radii(self, n, worstcase):
        # a point at exactly (1 + eps/2) r is both near and far, so no node
        # holding it stops the walk and its leaf is included; one at exactly
        # r lies in the closed inner ball and is near only: the answer is
        # exactly the points within the working outer radius, from every
        # lattice query
        q = np.array([0.5, 0.25])
        points = q + np.array(LATTICE[:n])
        d2 = sq_dists_to(points, q)
        assert d2[0] == 1.0 and (n == 1 or d2[1] == 1.5625)
        pts = WeightedPointSet(points, Seed(194).generator().uniform(-2.0, 2.0, size=n))
        if worstcase:
            source = WorstCaseSource(grid_side=0.5)
        else:
            source = LearnedSource(near_data_queries(pts, 40, sigma=1.0, seed=Seed(195)))
        idx = build_counting_index(pts, BuildConfig(eps=0.5, seed=Seed(196), tree_source=source))
        for query in [q, *points]:
            ans = assert_answers_like_the_stack_walk(idx, query)
            inside = {int(i) for i in np.flatnonzero(sq_dists_to(points, query) <= 1.5625)}
            assert answer_set(idx, ans.member_ranges) == inside

    def test_negative_zero_weights_sum_from_positive_zero(self):
        # the walk adds to 0.0, and 0.0 + -0.0 is 0.0: a sum started at the
        # first included weight would answer -0.0
        rng = Seed(190).generator()
        pts = WeightedPointSet(rng.uniform(0.0, 2.5, size=(9, 2)), np.full(9, -0.0))
        cfg = BuildConfig(eps=0.5, seed=Seed(191), tree_source=WorstCaseSource(grid_side=0.5))
        idx = build_counting_index(pts, cfg)
        for q in pts.points:
            ans = assert_answers_like_the_stack_walk(idx, q)
            assert ans.member_ranges and ans.weight.hex() == "0x0.0p+0"
            assert count(idx, q).weight.hex() == "0x0.0p+0"


BENCH = Path(__file__).resolve().parents[1] / "bench"


class TestBenchInputs:
    @pytest.mark.parametrize("workload", ["near-d8", "worstcase-d2"])
    def test_every_pool_query_answers_like_the_stack_walk(self, workload):
        # the benchmark's own inputs and configuration at seed 1, as
        # ``scripts/answer_digest.py`` builds them: a reference check that
        # holds on any machine, unlike pinned digests
        sys.path.insert(0, str(BENCH))
        try:
            from harness import WORKLOADS, build_config, make_inputs
        finally:
            sys.path.remove(str(BENCH))
        inputs = make_inputs(WORKLOADS[workload], 1)
        idx = build_counting_index(inputs.points, build_config(inputs, 1))
        for q in inputs.pool:
            assert_answers_like_the_stack_walk(idx, q)


class TestSandwichProperty:
    @given(
        n=st.integers(1, 9),
        d=st.integers(1, 3),
        duplicates=st.integers(0, 4),
        eps=st.sampled_from([0.01, 0.05, 0.95, 0.99]) | st.floats(0.01, 0.99),
        radius=st.sampled_from([0.3, 1.0, 2.5]),
        worstcase=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=1, d=2, duplicates=0, eps=0.5, radius=1.0, worstcase=False, seed=1)
    @example(n=2, d=2, duplicates=1, eps=0.01, radius=2.5, worstcase=True, seed=2)
    @example(n=2, d=1, duplicates=0, eps=0.99, radius=0.3, worstcase=False, seed=3)
    @example(n=6, d=3, duplicates=4, eps=0.01, radius=0.3, worstcase=False, seed=4)
    @settings(max_examples=100, deadline=None)
    def test_answer_set_sandwiched_by_the_oracle(self, n, d, duplicates, eps, radius, worstcase, seed):
        # any data, weights of either sign, any eps and radius, both tree
        # sources: the reported set holds the inner ball and fits the outer
        rng = Seed(seed).generator()
        points = rng.uniform(0.0, 2.5 * radius, size=(n, d))
        points[n - min(duplicates, n - 1) :] = points[0]
        pts = WeightedPointSet(points, rng.uniform(-2.0, 2.0, size=n))
        if worstcase:
            # a coarse query universe keeps small-eps builds quick; the
            # sandwich does not depend on which tree is built
            source = WorstCaseSource(grid_side=radius / 2.0)
        else:
            source = LearnedSource(near_data_queries(pts, 40, sigma=radius, seed=Seed(seed).derive(1)))
        cfg = BuildConfig(eps=eps, seed=Seed(seed).derive(2), tree_source=source, radius=radius)
        idx = build_counting_index(pts, cfg)
        params = EpsParams(eps, radius)
        queries = [points[0], points[0] + radius, np.full(d, 50.0 * radius)]
        queries += list(points[rng.integers(0, n, size=4)] + rng.normal(0.0, radius, size=(4, d)))
        for q in queries:
            ans = count(idx, q, verify=True)  # raises if weight and members disagree
            got = answer_set(idx, ans.member_ranges)
            assert exact_range_indices(pts, q, params.radius) <= got
            assert got <= exact_range_indices(pts, q, params.outer_radius)
            # the root, then both children of every visited stabbed node
            assert ans.visited_nodes == 1 + 2 * ans.verdict_counts["stabbed"]
            assert_answers_like_the_stack_walk(idx, q)


def working_masks(idx: CountingIndex, q: np.ndarray) -> list[np.ndarray]:
    """The walk's two masks: the shared ``_within`` at the working outer radius and radius."""
    qw, _, norm = point_and_norm(q, idx.path_points.shape[1])
    return counter._within(idx, qw, norm, (idx.working.outer_radius, idx.working.radius))


def einsum_masks(idx: CountingIndex, qw: np.ndarray) -> list[np.ndarray]:
    """Which path points ``sq_dists_to`` puts within each working radius, as a reference for ``working_masks``."""
    d2 = sq_dists_to(idx.path_points, qw)
    outer, r = idx.working.outer_radius, idx.working.radius
    return [d2 <= outer * outer, d2 <= r * r]


def outer_mask(idx: CountingIndex, q: np.ndarray) -> np.ndarray:
    """The mask ``count`` sums over: the shared ``_within`` at the working outer radius."""
    qw, _, norm = point_and_norm(q, idx.path_points.shape[1])
    (mask,) = counter._within(idx, qw, norm, (idx.working.outer_radius,))
    return mask


def einsum_outer_mask(idx: CountingIndex, qw: np.ndarray) -> np.ndarray:
    """Which path points ``sq_dists_to`` puts within the working outer radius, as a reference for ``outer_mask``."""
    outer = idx.working.outer_radius
    return sq_dists_to(idx.path_points, qw) <= outer * outer


def index_over(
    points: np.ndarray,
    eps: float = 0.5,
    radius: float = 1.0,
    weights: np.ndarray | None = None,
    order: np.ndarray | None = None,
) -> CountingIndex:
    """An index over ``points`` in ``order`` (their given order by default), with no tree source run."""
    n = len(points)
    tree = PartitionTree(np.arange(n) if order is None else order)
    cfg = BuildConfig(eps=eps, seed=Seed(0), tree_source=StoredOrder(tree, "learned"), radius=radius)
    pts = WeightedPointSet(points, np.ones(n) if weights is None else weights)
    return build_counting_index(pts, cfg)


def on_the_radii(q: np.ndarray, working: EpsParams, rng: np.random.Generator) -> np.ndarray:
    """Points at the working radius and outer radius from ``q``, and one ulp either side of each.

    Each lies along one axis, where the step is one rounded addition, or
    along a random direction, where it is not.
    """
    out = []
    for radius in (working.radius, working.outer_radius):
        axis = np.zeros(q.size)
        axis[rng.integers(q.size)] = rng.choice([-1.0, 1.0])
        direction = rng.normal(size=q.size)
        direction /= np.linalg.norm(direction)
        for p in (q + radius * axis, q + radius * direction):
            out += [np.nextafter(p, -np.inf), p, np.nextafter(p, np.inf)]
    return np.array(out)


class TestCodePass:
    @given(
        d=st.integers(1, 64),
        scale=st.integers(-60, 60).map(lambda k: 2.0**k),
        radius=st.floats(-150.0, 150.0).map(lambda k: 10.0**k),
        eps=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).filter(lambda e: e / 2.0 > 0.0),
        spread=st.floats(0.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(d=2, scale=1.0, radius=1.0, eps=0.5, spread=1.0, seed=0)
    @example(d=64, scale=2.0**60, radius=1e150, eps=0.99, spread=2.0, seed=1)
    @example(d=1, scale=2.0**-60, radius=1e-150, eps=1e-9, spread=0.0, seed=2)
    @settings(max_examples=200, deadline=None)
    def test_codes_equal_the_einsum_codes(self, d, scale, radius, eps, spread, seed):
        # points on both working radii and one ulp either side, points
        # around the annulus and points at the data's scale: the GEMV pass
        # and its recheck give the einsum's masks, and so its codes, bit for bit
        rng = np.random.default_rng(seed)
        q = rng.normal(size=d) * scale
        working = EpsParams(eps / 2.0, radius)
        around = q + rng.normal(size=(6, d)) * radius * spread
        points = np.concatenate([on_the_radii(q, working, rng), around, rng.normal(size=(4, d)) * scale])
        idx = index_over(points, eps, radius)
        assert idx.working == working
        for query in (q, points[0], points[-1]):
            np.testing.assert_array_equal(working_masks(idx, query), einsum_masks(idx, query))
            np.testing.assert_array_equal(outer_mask(idx, query), einsum_outer_mask(idx, query))


class CountedDistances:
    """``sq_dists_to``, counting the rows it is called on."""

    def __init__(self) -> None:
        self.rows: list[int] = []

    def __call__(self, points: np.ndarray, q: np.ndarray) -> np.ndarray:
        self.rows.append(len(points))
        return sq_dists_to(points, q)


class TestCodePassBranches:
    @pytest.fixture
    def counted(self, monkeypatch) -> CountedDistances:
        calls = CountedDistances()
        monkeypatch.setattr(counter, "sq_dists_to", calls)
        return calls

    def test_a_query_clear_of_both_thresholds_takes_no_exact_pass(self, counted):
        rng = Seed(200).generator()
        idx = index_over(rng.uniform(0.0, 3.0, size=(50, 4)))
        q = np.full(4, 1.5)
        assert np.all(np.abs(sq_dists_to(idx.path_points, q) - np.array([[1.0], [1.5625]])) > 1e-6)
        np.testing.assert_array_equal(working_masks(idx, q), einsum_masks(idx, q))
        np.testing.assert_array_equal(outer_mask(idx, q), einsum_outer_mask(idx, q))
        assert counted.rows == []

    def test_a_point_within_the_bound_sends_the_pass_to_sq_dists_to(self, counted):
        # dyadic offsets at exactly the working radius 1 and exactly the outer
        # radius 1.25: h equals each shifted threshold, and the point at the
        # radius lies in both closed balls, and the one at the outer radius
        # in the outer ball only.  Only the points on a radius, each
        # threshold's band, are measured again, one call per threshold
        q = np.array([0.5, 0.25])
        idx = index_over(q + np.array(LATTICE))
        d2 = sq_dists_to(idx.path_points, q)
        on_outer, on_inner = int(np.count_nonzero(d2 == 1.5625)), int(np.count_nonzero(d2 == 1.0))
        assert (on_outer, on_inner) == (5, 4)
        outer, inner = working_masks(idx, q)
        assert counted.rows == [on_outer, on_inner]
        np.testing.assert_array_equal([outer, inner], einsum_masks(idx, q))
        assert (outer[:2].tolist(), inner[:2].tolist()) == ([True, True], [True, False])
        mask = outer_mask(idx, q)
        assert counted.rows == [on_outer, on_inner, on_outer]
        np.testing.assert_array_equal(mask, einsum_outer_mask(idx, q))
        assert mask[:2].tolist() == [True, True]

    def test_data_far_from_the_origin_measures_only_its_band_points_again(self, counted):
        # the bound grows with the squared norms, so clustered d = 8 data a
        # million units out puts a few points of most queries in a band
        # about 0.1 wide: those alone are measured again, not the whole row
        rng = Seed(230).generator()
        centers = rng.uniform(0.0, 4.0, size=(4, 8))
        points = centers[rng.integers(0, 4, size=1024)] + rng.normal(0.0, 0.4, size=(1024, 8)) + 1e6
        idx = index_over(points)
        queries = points[rng.integers(0, 1024, size=60)] + rng.normal(0.0, 0.5, size=(60, 8))
        banded = 0
        for q in queries:
            counted.rows.clear()
            np.testing.assert_array_equal(outer_mask(idx, q), einsum_outer_mask(idx, q))
            np.testing.assert_array_equal(working_masks(idx, q), einsum_masks(idx, q))
            assert sum(counted.rows) < len(points) // 8
            banded += bool(counted.rows)
        assert banded > 20

    def test_a_dimension_past_the_float64_limit_takes_the_exact_pass(self, counted, monkeypatch):
        # band_half_width's proof covers d up to FLOAT64.max_dim: past it
        # every point of every query is measured with sq_dists_to
        rng = Seed(231).generator()
        idx = index_over(rng.uniform(0.0, 3.0, size=(50, 4)))
        monkeypatch.setattr(counter, "FLOAT64", replace(FLOAT64, max_dim=3))
        for q in (np.full(4, 1.5), idx.path_points[0]):
            counted.rows.clear()
            np.testing.assert_array_equal(working_masks(idx, q), einsum_masks(idx, q))
            np.testing.assert_array_equal(outer_mask(idx, q), einsum_outer_mask(idx, q))
            assert counted.rows == [50, 50]

    def test_squares_that_overflow_take_the_exact_pass(self, counted):
        # the squared norms are infinite, so h would be NaN; the offsets
        # from the query, and so the einsum's d2, are finite.  One pass
        # over every point gives both of the walk's masks
        q = np.full(3, 1e160)
        offsets = np.array([[0.5e150, 0.0, 0.0], [1.1e150, 0.0, 0.0], [2e150, 0.0, 0.0]])
        idx = index_over(q + offsets, radius=1e150)
        assert math.isinf(idx.max_norm)
        outer, inner = working_masks(idx, q)
        assert counted.rows == [3]
        np.testing.assert_array_equal([outer, inner], einsum_masks(idx, q))
        assert (outer.tolist(), inner.tolist()) == ([True, True, False], [True, False, False])
        mask = outer_mask(idx, q)
        assert counted.rows == [3, 3]
        np.testing.assert_array_equal(mask, einsum_outer_mask(idx, q))
        assert mask.tolist() == [True, True, False]


class TestAnswerSetIsTheOuterBall:
    @given(
        n=st.integers(1, 12),
        d=st.integers(1, 3),
        eps=st.sampled_from([0.01, 0.5, 0.99]) | st.floats(0.01, 0.99),
        radius=st.sampled_from([0.3, 1.0, 2.5]),
        source=st.sampled_from(["learned", "worstcase", "random"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=1, d=2, eps=0.5, radius=1.0, source="random", seed=1)
    @example(n=12, d=2, eps=0.01, radius=2.5, source="worstcase", seed=2)
    @example(n=12, d=3, eps=0.99, radius=0.3, source="learned", seed=3)
    @settings(max_examples=80, deadline=None)
    def test_set_and_weight_are_those_of_the_working_outer_ball(self, n, d, eps, radius, source, seed):
        # whatever the leaf order, the walk's members are the oracle's ball
        # of radius (1 + eps/2) r, and the weight is their flat path-order sum
        rng = Seed(seed).generator()
        points = rng.uniform(0.0, 2.5 * radius, size=(n, d))
        weights = rng.uniform(-2.0, 2.0, size=n)
        if source == "random":
            idx = index_over(points, eps, radius, weights, order=rng.permutation(n))
        else:
            pts = WeightedPointSet(points, weights)
            if source == "worstcase":
                tree_source = WorstCaseSource(grid_side=radius / 2.0)
            else:
                tree_source = LearnedSource(near_data_queries(pts, 40, sigma=radius, seed=Seed(seed).derive(1)))
            cfg = BuildConfig(eps=eps, seed=Seed(seed).derive(2), tree_source=tree_source, radius=radius)
            idx = build_counting_index(pts, cfg)
        queries = [points[0], np.full(d, 50.0 * radius)]
        queries += list(points[rng.integers(0, n, size=4)] + rng.normal(0.0, radius, size=(4, d)))
        for q in queries:
            ans = count(idx, q, verify=True)
            assert answer_set(idx, ans.member_ranges) == exact_range_indices(
                idx.points(), q, idx.working.outer_radius
            )
            assert ans.weight.hex() == flat_weight(idx, q).hex()
            assert count(idx, q).weight.hex() == ans.weight.hex()


class TestLazyTelemetry:
    @pytest.fixture(scope="class")
    def built(self) -> tuple[WeightedPointSet, CountingIndex, list[np.ndarray]]:
        pts, idx = small_learned_index(n=60, d=3, seed=210)
        rng = Seed(211).generator()
        queries = list(pts.points[:4] + rng.normal(0.0, 0.6, size=(4, 3))) + [np.full(3, 40.0)]
        return pts, idx, queries

    @staticmethod
    def eager(idx: CountingIndex, q: np.ndarray) -> CountAnswer:
        return replace(count(idx, q, verify=True), member_ranges=None)

    def test_telemetry_read_before_or_after_the_weight_answers_alike(self, built):
        _, idx, queries = built
        for q in queries:
            first = count(idx, q)
            visited, verdicts, weight = first.visited_nodes, first.verdict_counts, first.weight
            second = count(idx, q)
            assert (second.weight, second.verdict_counts, second.visited_nodes) == (weight, verdicts, visited)
            assert weight.hex() == second.weight.hex() == self.eager(idx, q).weight.hex()
            assert first == second == self.eager(idx, q)
            assert first.member_ranges is None

    def test_replace_and_equality_read_the_telemetry(self, built):
        _, idx, queries = built
        q = queries[0]
        eager = self.eager(idx, q)
        assert count(idx, q) == eager
        assert repr(count(idx, q)) == repr(eager)
        heavier = replace(count(idx, q), weight=eager.weight + 1.0)
        assert heavier == replace(eager, weight=eager.weight + 1.0)
        assert heavier.visited_nodes == eager.visited_nodes
        assert replace(count(idx, q), visited_nodes=eager.visited_nodes + 1) != eager
        with pytest.raises(AttributeError):
            count(idx, q).no_such_field

    def test_a_read_answer_no_longer_holds_the_index(self):
        _, idx = small_learned_index(n=30, d=3, seed=212)
        q = idx.path_points[0]
        ref = weakref.ref(idx)
        expected = self.eager(idx, q)
        unread, read = count(idx, q), count(idx, q)
        assert read.visited_nodes == expected.visited_nodes
        del idx
        gc.collect()
        # the unread answer still walks the index it was asked of
        assert ref() is not None
        assert unread == expected
        del unread
        gc.collect()
        assert ref() is None
        assert read == expected

    def test_telemetry_is_of_the_query_as_asked(self, built):
        # the caller may reuse its query array before reading the telemetry
        _, idx, queries = built
        q = queries[0].copy()
        ans = count(idx, q)
        q[:] = 40.0
        assert ans == self.eager(idx, queries[0])

    def test_a_query_list_changed_after_count_leaves_the_telemetry(self, built):
        _, idx, queries = built
        q = queries[1].tolist()
        ans = count(idx, q)
        q[:] = [40.0, 40.0, 40.0]
        assert ans == self.eager(idx, queries[1])

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_a_query_of_another_dtype_answers_like_its_float64_copy(self, built, dtype):
        _, idx, queries = built
        for q in queries:
            narrow = q.astype(dtype)
            a, b = count(idx, narrow), count(idx, narrow.astype(np.float64))
            assert a.weight.hex() == b.weight.hex()
            assert (a.visited_nodes, a.verdict_counts) == (b.visited_nodes, b.verdict_counts)

    def test_loaded_model_answers_like_the_built_index(self, tmp_path, built):
        pts, idx, queries = built
        data, model = tmp_path / "points.txt", tmp_path / "model.arc"
        write_points(data, pts)
        save_model(model, idx, data)
        loaded = load_model(model, data)
        np.testing.assert_array_equal(loaded.path_weights, idx.path_weights)
        for q in queries + list(pts.points[:3]):
            a, b = count(idx, q), count(loaded, q)
            assert a.weight.hex() == b.weight.hex()
            assert a == b
            assert count(idx, q, verify=True) == count(loaded, q, verify=True)

    def test_a_lattice_query_on_the_outer_radius_takes_the_exact_pass(self, monkeypatch):
        # five lattice points, the second among them, lie at exactly the
        # working outer radius, so h equals the shifted threshold and the
        # GEMV pass measures those five again
        q = np.array([0.5, 0.25])
        weights = Seed(213).generator().uniform(-2.0, 2.0, size=len(LATTICE))
        idx = index_over(q + np.array(LATTICE), weights=weights)
        counted = CountedDistances()
        monkeypatch.setattr(counter, "sq_dists_to", counted)
        ans = count(idx, q)
        assert counted.rows == [5]
        assert ans.weight.hex() == flat_weight(idx, q).hex()
        inside = sq_dists_to(idx.path_points, q) <= 1.5625
        assert inside[1] and ans.weight == pytest.approx(float(weights[inside].sum()), abs=1e-12)


class TestOneCheckOnePass:
    """An answer checks its query once, and its walk reads the masks of one certified pass."""

    @pytest.fixture
    def calls(self, monkeypatch) -> dict[str, list]:
        seen: dict[str, list] = {"checks": [], "passes": []}
        check, within = counter.point_and_norm, counter._within

        def counted_check(q, dim=None):
            seen["checks"].append(dim)
            return check(q, dim)

        def counted_pass(idx, qw, norm, radii):
            seen["passes"].append(radii)
            return within(idx, qw, norm, radii)

        monkeypatch.setattr(counter, "point_and_norm", counted_check)
        monkeypatch.setattr(counter, "_within", counted_pass)
        return seen

    def test_a_telemetry_read_passes_again_without_a_second_check(self, calls):
        _, idx = small_learned_index(n=40, d=3, seed=214)
        q = idx.path_points[0] + 0.3
        ans = count(idx, q)
        assert ans.visited_nodes > 1 and ans.verdict_counts["stabbed"] > 0
        working = idx.working
        assert calls == {"checks": [3], "passes": [(working.outer_radius,), (working.outer_radius, working.radius)]}

    def test_verify_makes_one_check_and_one_pass(self, calls):
        _, idx = small_learned_index(n=40, d=3, seed=215)
        ans = count(idx, idx.path_points[0] + 0.3, verify=True)
        assert ans.visited_nodes > 1
        assert calls == {"checks": [3], "passes": [(idx.working.outer_radius, idx.working.radius)]}


NODE_ARRAYS = ("lo", "hi", "parent", "inner", "twice_size")


def node_arrays_held(idx: CountingIndex) -> set[str]:
    """The names of the node arrays that the index's tree holds: none, or all five."""
    held = vars(idx.tree).get("_nodes")
    return {name for name, arr in zip(NODE_ARRAYS, held or ()) if isinstance(arr, np.ndarray)}


class TestNodeArraysOnTheWalksFirstNeed:
    """An index that only answers never lays out its tree's node arrays; the walk does, once."""

    @pytest.fixture
    def built(self) -> tuple[WeightedPointSet, CountingIndex, np.ndarray]:
        pts, idx = small_learned_index(n=50, d=3, seed=220)
        return pts, idx, pts.points[0] + 0.3

    @pytest.fixture
    def laid_out(self, monkeypatch) -> list[int]:
        calls: list[int] = []
        real = ptree._node_arrays
        monkeypatch.setattr(ptree, "_node_arrays", lambda n: calls.append(n) or real(n))
        return calls

    @staticmethod
    def loaded(tmp_path: Path, pts: WeightedPointSet, idx: CountingIndex) -> CountingIndex:
        data, model = tmp_path / "points.txt", tmp_path / "model.arc"
        write_points(data, pts)
        save_model(model, idx, data)
        return load_model(model, data)

    def test_a_build_and_a_load_hold_no_node_array(self, tmp_path, built, laid_out):
        pts, idx, _ = built
        loaded = self.loaded(tmp_path, pts, idx)
        assert node_arrays_held(idx) == node_arrays_held(loaded) == set()
        assert laid_out == []

    def test_count_without_verify_leaves_them_unbuilt(self, tmp_path, built, laid_out):
        pts, idx, q = built
        for index in (idx, self.loaded(tmp_path, pts, idx)):
            ans = count(index, q)
            assert ans.weight > 0 and node_arrays_held(index) == set()
        assert laid_out == []

    def test_the_telemetry_builds_them_once(self, tmp_path, built, laid_out):
        pts, idx, q = built
        loaded = self.loaded(tmp_path, pts, idx)
        for index in (idx, loaded):
            first = count(index, q)
            assert first.visited_nodes > 1 and node_arrays_held(index) == set(NODE_ARRAYS)
            held = {name: getattr(index.tree, name) for name in NODE_ARRAYS}
            assert count(index, q).verdict_counts == first.verdict_counts
            assert count(index, pts.points[1]).visited_nodes >= 1
            assert all(getattr(index.tree, name) is arr for name, arr in held.items())
            assert all(not arr.flags.writeable for arr in held.values())
        assert laid_out == [len(pts), len(pts)]

    def test_verify_builds_them(self, built, laid_out):
        _, idx, q = built
        count(idx, q, verify=True)
        assert node_arrays_held(idx) == set(NODE_ARRAYS) and laid_out == [len(idx.path_points)]

    def test_the_visiting_number_builds_them(self, built, laid_out):
        pts, idx, q = built
        visiting_number(idx.tree, q, pts, idx.working)
        assert node_arrays_held(idx) == set(NODE_ARRAYS) and laid_out == [len(pts)]


class TestPointsHeldOnce:
    @pytest.mark.parametrize("n", [1, 2, 257])
    @pytest.mark.parametrize("source", ["worstcase", "learned", "stored"])
    def test_the_index_keeps_no_input_set_and_gives_its_points_back(self, tmp_path, source, n):
        rng = Seed(220 + n).generator()
        points = rng.uniform(0.0, 3.0, size=(n, 2))
        weights = rng.uniform(-2.0, 2.0, size=n)
        # a signed zero and a subnormal, whose bits the data order must keep
        points[0], weights[0] = [-0.0, 5e-324], -0.0
        pts = WeightedPointSet(points, weights)
        if source == "worstcase":
            tree_source = WorstCaseSource(grid_side=0.5)
        elif source == "learned":
            tree_source = LearnedSource(near_data_queries(pts, 64, sigma=0.5, seed=Seed(221)))
        else:
            tree_source = StoredOrder(PartitionTree(rng.permutation(n)), "learned")
        idx = build_counting_index(pts, BuildConfig(eps=0.5, seed=Seed(222), tree_source=tree_source))
        data, model = tmp_path / "points.bin", tmp_path / "model.arc"
        write_points(data, pts, binary=True)
        ref = weakref.ref(pts)
        del pts, tree_source
        gc.collect()
        assert ref() is None
        save_model(model, idx, data)
        for index in (idx, load_model(model, data)):
            got = index.points()
            assert got.points.shape == points.shape and got.points.tobytes() == points.tobytes()
            assert got.weights.tobytes() == weights.tobytes()


class TestStoredOrder:
    @pytest.mark.parametrize("source", ["worstcase", "learned"])
    def test_an_index_over_a_fitted_tree_keeps_that_tree_and_answers_alike(self, source):
        rng = Seed(230).generator()
        pts = WeightedPointSet(rng.uniform(0.0, 3.0, size=(30, 2)), rng.uniform(0.1, 2.0, size=30))
        if source == "worstcase":
            tree_source = WorstCaseSource()
        else:
            tree_source = LearnedSource(near_data_queries(pts, 100, sigma=0.5, seed=Seed(231)))
        fitted = build_counting_index(pts, BuildConfig(eps=0.5, seed=Seed(232), tree_source=tree_source))
        stored = StoredOrder(fitted.tree, source)
        idx = build_counting_index(fitted.points(), BuildConfig(eps=0.5, seed=Seed(232), tree_source=stored))
        assert idx.tree is fitted.tree and idx.spanning_tree is None
        for q in rng.uniform(-0.5, 3.5, size=(20, 2)):
            assert count(idx, q, verify=True) == count(fitted, q, verify=True)

    def test_the_index_is_not_moved_by_the_array_its_order_came_from(self, tmp_path):
        # were the caller's array kept, a swap in it would move the index's
        # leaves off its points, and save_model would refuse its own data
        rng = Seed(233).generator()
        pts = WeightedPointSet(rng.uniform(0.0, 3.0, size=(6, 2)), rng.uniform(0.1, 2.0, size=6))
        arr = np.array([3, 1, 4, 0, 5, 2])
        cfg = BuildConfig(eps=0.5, seed=Seed(234), tree_source=StoredOrder(PartitionTree(arr), "learned"))
        idx = build_counting_index(pts, cfg)
        arr[[0, 1]] = arr[[1, 0]]
        back = idx.points()
        assert back.points.tobytes() == pts.points.tobytes() and back.weights.tobytes() == pts.weights.tobytes()
        data = tmp_path / "points.txt"
        write_points(data, pts)
        save_model(tmp_path / "model.arc", idx, data)


class TestDeterminism:
    def test_same_seed_bitwise_identical_answers(self):
        pts, a = small_learned_index(n=34, d=3, seed=125)
        _, b = small_learned_index(n=34, d=3, seed=125)
        rng = Seed(126).generator()
        for _ in range(15):
            q = rng.uniform(-0.5, 3.5, size=3)
            ra, rb = count(a, q), count(b, q)
            assert ra.weight == rb.weight
            assert ra.visited_nodes == rb.visited_nodes
            assert ra.verdict_counts == rb.verdict_counts


class TestWorstCaseSource:
    def test_low_dimensional_build_and_sandwich(self):
        rng = Seed(127).generator()
        pts = WeightedPointSet(rng.uniform(0, 2.5, size=(14, 2)), rng.uniform(0.5, 1.5, size=14))
        cfg = BuildConfig(eps=0.5, seed=Seed(128), tree_source=WorstCaseSource())
        idx = build_counting_index(pts, cfg)
        assert idx.spanning_tree is not None and len(idx.spanning_tree.edges) == 13
        params = EpsParams(0.5)
        for _ in range(20):
            q = rng.uniform(-0.5, 3.0, size=2)
            ans = count(idx, q, verify=True)
            got = answer_set(idx, ans.member_ranges)
            assert exact_range_indices(pts, q, params.radius).issubset(got)
            assert got.issubset(exact_range_indices(pts, q, params.outer_radius))

    def test_high_dimension_suggests_learned_mode(self):
        pts = WeightedPointSet(np.zeros((6, 9)), np.ones(6))
        cfg = BuildConfig(eps=0.5, seed=Seed(129), tree_source=WorstCaseSource())
        with pytest.raises(ContractViolation, match="learned"):
            build_counting_index(pts, cfg)


class TestQueryTransforms:
    def test_query_and_points_are_used_as_given(self):
        pts, idx = small_learned_index(n=20, d=3, seed=132)
        q = np.array([0.31, 1.77, 2.04])
        np.testing.assert_array_equal(as_point(q, 3), q)
        np.testing.assert_array_equal(idx.path_points, pts.points[idx.tree.order])

    def test_dimension_mismatch_rejected(self):
        pts, idx = small_learned_index(n=20, d=3, seed=139)
        with pytest.raises(ContractViolation):
            count(idx, np.zeros(4))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_query_rejected(self, bad):
        pts, idx = small_learned_index(n=20, d=3, seed=139)
        with pytest.raises(ContractViolation, match="non-finite"):
            count(idx, [bad, 0.0, 0.0])

    @given(
        q=st.one_of(
            st.floats(),
            st.lists(st.floats(), max_size=5),
            st.lists(st.lists(st.floats(), min_size=3, max_size=3), max_size=3),
            st.lists(st.integers(-(2**31), 2**31), max_size=5).map(np.array),
            st.lists(st.floats(width=32), max_size=5).map(lambda v: np.array(v, dtype=np.float32)),
            st.lists(st.sampled_from([0.0, -1.5, 1e308, math.inf, -math.inf, math.nan]), max_size=5),
        )
    )
    @example(q=[math.nan, math.inf, 0.0])
    @example(q=[math.inf, math.nan, 0.0, 1.0])
    @example(q=[math.nan, 0.0])
    @example(q=[1e308, -1e308, 1e308])
    @example(q=np.float64(1.0))
    @example(q=np.zeros((1, 3)))
    @example(q=np.zeros(0))
    @settings(max_examples=200, deadline=None)
    def test_every_query_entry_refuses_the_same_inputs_with_one_message(self, q):
        # one check serves every entry that takes a query: it is refused
        # unless it is a 1-d vector of the data's dimension with every
        # coordinate finite, and every entry refuses it with the same message
        idx = index_over(np.array([[0.0, 0.0, 0.0], [1.0, 0.5, -0.5], [2.0, 2.0, 2.0]]))
        pts = idx.points()
        stab = build_stab_index(pts, idx.working, Seed(0))
        entries = {
            "count": lambda: count(idx, q),
            "visiting_number": lambda: visiting_number(idx.tree, q, pts, idx.working),
            "stab_witnesses": lambda: stab_witnesses(stab, q),
            "eps_stabs": lambda: eps_stabs(q, pts.points[0], pts.points[2], idx.working),
            "as_point": lambda: as_point(q, 3),
        }
        arr = np.asarray(q, dtype=np.float64)
        valid = arr.ndim == 1 and arr.size == 3 and bool(np.isfinite(arr).all())
        messages = set()
        with np.errstate(all="ignore"):
            for name, entry in entries.items():
                try:
                    entry()
                except ContractViolation as refused:
                    assert not valid, name
                    messages.add(str(refused))
                else:
                    assert valid, name
        assert len(messages) == (0 if valid else 1)
        if valid:
            qw = as_point(q, 3)
            assert count(idx, q).weight.hex() == count(idx, qw).weight.hex() == flat_weight(idx, qw).hex()
            assert count(idx, list(q)) == count(idx, qw)

    def test_finite_coordinates_whose_norm_overflows_take_the_exact_pass(self, monkeypatch):
        # hypot of the query is inf, yet every coordinate is finite: count
        # accepts it and measures every point with sq_dists_to
        points = np.array([[0.0, 0.0], [1.0, 1.0], [1.5e308, 1.5e308]])
        idx = index_over(points, weights=np.array([1.0, 2.0, 4.0]))
        q = [1.5e308, 1.5e308]
        counted = CountedDistances()
        monkeypatch.setattr(counter, "sq_dists_to", counted)
        ans = count(idx, q)
        assert counted.rows == [len(points)]
        assert ans.weight.hex() == flat_weight(idx, np.array(q)).hex() == (4.0).hex()

    def test_training_sample_dimension_checked(self):
        rng = Seed(140).generator()
        pts = WeightedPointSet(rng.normal(size=(10, 3)), np.ones(10))
        sample = QuerySample(rng.normal(size=(20, 5)), source="bad-dim")
        with pytest.raises(ContractViolation):
            build_counting_index(pts, learned_config(sample=sample, seed=141))

    @pytest.mark.parametrize("n", [1, 2])
    def test_training_sample_dimension_checked_before_the_one_point_order(self, n):
        # one point fits no tree, but a 3-d sample over 2-d data is still refused
        pts = WeightedPointSet(np.arange(2.0 * n).reshape(n, 2), np.ones(n))
        sample = QuerySample(np.zeros((4, 3)), source="bad-dim")
        with pytest.raises(ContractViolation, match="training sample dimension"):
            build_counting_index(pts, learned_config(sample=sample, seed=141))


class TestEdgeCases:
    def test_single_point_index(self):
        pts = WeightedPointSet(np.array([[1.0, 1.0]]), np.array([2.5]))
        sample = QuerySample(np.array([[0.0, 0.0]]), source="one")
        idx = build_counting_index(pts, learned_config(sample=sample, seed=142))
        assert count(idx, np.array([1.0, 1.0])).weight == 2.5
        assert count(idx, np.array([9.0, 9.0])).weight == 0.0

    def test_config_validation(self):
        sample = QuerySample(np.zeros((1, 2)), source="t")
        with pytest.raises(ContractViolation):
            BuildConfig(eps=0.0, seed=Seed(0), tree_source=LearnedSource(sample))

    @pytest.mark.parametrize(
        "radius, points, weights, oracle_weight",
        [
            # d2 and R*R both overflow to inf: the point at 1e201 was counted
            (1e200, [[0.0, 0.0], [1e201, 0.0], [5e199, 0.0]], [1.0, 10.0, 100.0], 101.0),
            # both underflow to 0: the point at 2e-170 was counted
            (1e-170, [[0.0, 0.0], [2e-170, 0.0]], [1.0, 10.0], 1.0),
        ],
        ids=["overflow", "underflow"],
    )
    def test_a_radius_whose_squares_leave_the_normal_range_is_refused(self, radius, points, weights, oracle_weight):
        points, weights, q = np.array(points), np.array(weights), np.zeros(2)
        params = EpsParams(0.5, radius)
        pts = WeightedPointSet(points, weights)
        assert exact_range_weight(pts, q, params.radius) == oracle_weight
        assert exact_range_weight(pts, q, params.outer_radius) == oracle_weight
        with pytest.raises(ContractViolation, match="normal range"):
            count(index_over(points, radius=radius, weights=weights), q, verify=True)

    @pytest.mark.parametrize("radius", [1e-150, 1e150])
    def test_radii_whose_squares_stay_normal_are_admitted(self, radius):
        # the ends of TestCodePass's range, at the widest eps
        points = np.array([[0.0, 0.0], [radius, 0.0], [3.0 * radius, 0.0]])
        idx = index_over(points, eps=0.99, radius=radius, weights=np.array([1.0, 10.0, 100.0]))
        assert count(idx, np.zeros(2), verify=True).weight == 11.0

    def test_stored_order_must_match_size(self):
        pts = WeightedPointSet(np.zeros((3, 2)), np.ones(3))
        for n in (2, 4):
            order = StoredOrder(PartitionTree(np.arange(n)), "learned")
            cfg = BuildConfig(eps=0.5, seed=Seed(143), tree_source=order)
            with pytest.raises(ContractViolation, match=f"path length {n} does not match point count 3"):
                build_counting_index(pts, cfg)

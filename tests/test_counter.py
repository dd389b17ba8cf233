"""End-to-end counting index: build modes, traversal, verification."""

from __future__ import annotations

import numpy as np
import pytest

from arccount.core import ContractViolation, EpsParams, Seed, WeightedPointSet, snap_to_grid
from arccount.counter import (
    BuildConfig,
    CountingIndex,
    LearnedSource,
    WorstCaseSource,
    build_counting_index,
    count,
    node_verdict,
    prefix_counts,
)
from arccount.learned import QuerySample, near_data_queries
from arccount.oracle import exact_range_indices
from arccount.ptree import visiting_number
from arccount.stabber import build_classifier, classify


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

    def test_member_ranges_sorted_and_disjoint(self):
        pts, idx = small_learned_index(n=30, d=3, seed=121)
        q = pts.points[0]
        ans = count(idx, q, verify=True)
        for (a0, a1), (b0, b1) in zip(ans.member_ranges, ans.member_ranges[1:]):
            assert a0 < a1 <= b0 < b1


class TestTraversalCost:
    def test_visited_matches_exact_visiting_number(self):
        # prefix counts make every verdict the exact trichotomy, so the walk
        # expands exactly the nodes the visiting oracle says it should
        pts, idx = small_learned_index(n=44, d=3, seed=122)
        working_set = WeightedPointSet(idx.working_points, pts.weights)
        rng = Seed(123).generator()
        for _ in range(30):
            q = rng.uniform(-0.5, 3.5, size=3)
            ans = count(idx, q)
            assert ans.visited_nodes == visiting_number(idx.tree, q, working_set, idx.working)


class TestPrefixVerdicts:
    @pytest.mark.parametrize("snap", [False, True])
    @pytest.mark.parametrize("worstcase", [False, True])
    def test_match_the_stab_classifier_on_every_node(self, worstcase, snap):
        # the walk's verdicts are the ones the paper's Hamming stab classifier
        # gives for each node's members at the working error
        seed = 170 + 2 * worstcase + snap
        rng = Seed(seed).generator()
        if worstcase:
            pts = WeightedPointSet(rng.uniform(0, 2.5, size=(14, 2)), rng.uniform(0.5, 1.5, size=14))
            source = WorstCaseSource()
        else:
            pts = WeightedPointSet(rng.uniform(0, 3, size=(36, 3)), rng.uniform(0.1, 2.0, size=36))
            source = LearnedSource(near_data_queries(pts, 150, sigma=0.6, seed=Seed(seed + 10)))
        cfg = BuildConfig(eps=0.5, seed=Seed(seed + 20), tree_source=source, snap_queries=snap)
        idx = build_counting_index(pts, cfg)
        working_set = WeightedPointSet(idx.working_points, pts.weights)
        seen = set()
        for k in range(8):
            q = pts.points[k] + rng.normal(0.0, 0.7, size=pts.dim)
            qw = idx.transform_query(q)
            near, far = prefix_counts(idx, qw)
            for i in idx.tree.internal_indices():
                node = idx.tree.node(i)
                subset = working_set.subset(idx.tree.member_indices(i))
                clf = build_classifier(subset, idx.working, seed=Seed(seed + 30).derive(k, i))
                verdict = node_verdict(near, far, node.start, node.stop)
                assert verdict is classify(clf, qw)
                seen.add(verdict)
        assert len(seen) == 3


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
    def test_snap_keeps_the_full_sandwich(self):
        # snapping moves a query by at most eps/20 and the rescale absorbs
        # it, so the full-eps sandwich still holds deterministically
        pts, idx = small_learned_index(n=40, d=4, seed=130, snap_queries=True)
        assert idx.snap_grid is not None
        assert idx.rescale_factor == pytest.approx(1.0 / 1.1)
        params = EpsParams(0.5)
        rng = Seed(131).generator()
        for _ in range(30):
            q = rng.uniform(-0.5, 3.5, size=4)
            ans = count(idx, q, verify=True)
            got = answer_set(idx, ans.member_ranges)
            assert exact_range_indices(pts, q, params.radius).issubset(got)
            assert got.issubset(exact_range_indices(pts, q, params.outer_radius))

    def test_transform_composes_snap_and_rescale(self):
        pts, idx = small_learned_index(n=20, d=3, seed=132, snap_queries=True)
        q = np.array([0.31, 1.77, 2.04])
        expected = snap_to_grid(q, idx.snap_grid) * idx.rescale_factor
        np.testing.assert_array_equal(idx.transform_query(q), expected)

    def test_projection_path_runs(self):
        rng = Seed(133).generator()
        pts = WeightedPointSet(rng.normal(size=(40, 80)), np.ones(40))
        sample = near_data_queries(pts, 150, sigma=0.5, seed=Seed(134))
        cfg = learned_config(sample=sample, seed=135, jl_target_dim=12)
        idx = build_counting_index(pts, cfg)
        assert idx.projection is not None and idx.projection.shape == (80, 12)
        assert idx.working_points.shape == (40, 12)
        ans = count(idx, pts.points[0], verify=True)
        assert np.isfinite(ans.weight)

    def test_auto_projection_only_above_64_dims(self):
        rng = Seed(136).generator()
        pts = WeightedPointSet(rng.normal(size=(20, 10)), np.ones(20))
        sample = near_data_queries(pts, 80, sigma=0.5, seed=Seed(137))
        idx = build_counting_index(pts, learned_config(sample=sample, seed=138))
        assert idx.projection is None

    def test_dimension_mismatch_rejected(self):
        pts, idx = small_learned_index(n=20, d=3, seed=139)
        with pytest.raises(ContractViolation):
            count(idx, np.zeros(4))

    def test_training_sample_dimension_checked(self):
        rng = Seed(140).generator()
        pts = WeightedPointSet(rng.normal(size=(10, 3)), np.ones(10))
        sample = QuerySample(rng.normal(size=(20, 5)), source="bad-dim")
        with pytest.raises(ContractViolation):
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

    def test_order_override_must_match_size(self):
        pts = WeightedPointSet(np.zeros((3, 2)), np.ones(3))
        sample = QuerySample(np.zeros((1, 2)), source="t")
        cfg = learned_config(sample=sample, seed=143)
        with pytest.raises(ContractViolation):
            build_counting_index(pts, cfg, order_override=np.array([0, 1]))

"""Learned spanning trees: sampled stab counts, MST optimality, evaluation."""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arccount import learned
from arccount.core import FLOAT32, ContractViolation, EpsParams, Seed, WeightedPointSet, sq_dists_to, stab_masks
from arccount.counter import (
    BuildConfig,
    LearnedSource,
    StoredOrder,
    WorstCaseSource,
    build_counting_index,
    count,
    evaluate_visiting,
)
from arccount.learned import (
    QuerySample,
    default_sample_size,
    learned_spanning_tree,
    near_data_queries,
    pair_stab_counts,
    tree_objective,
    uniform_queries,
)
from arccount.oracle import enumerate_spanning_trees
from arccount.spantree import Edge

PARAMS = EpsParams(eps=0.5)


def weighted(points: np.ndarray) -> WeightedPointSet:
    return WeightedPointSet(points, np.ones(len(points)))


def whole_sample_counts(pts: WeightedPointSet, sample: QuerySample, params: EpsParams) -> np.ndarray:
    """Reference stab counts N'F + F'N from one m x n distance matrix."""
    p, q = pts.points, sample.queries
    d2 = np.einsum("ij,ij->i", q, q)[:, None] + np.einsum("ij,ij->i", p, p)[None, :] - 2.0 * (q @ p.T)
    np.maximum(d2, 0.0, out=d2)
    near = (d2 <= params.radius**2).astype(np.float64)
    far = (d2 >= params.outer_radius**2).astype(np.float64)
    return (near.T @ far + far.T @ near).astype(np.int64)


def per_query_counts(pts: WeightedPointSet, sample: QuerySample, params: EpsParams) -> np.ndarray:
    """Reference stab counts N'F + F'N from ``stab_masks`` of each query's ``sq_dists_to`` row."""
    n = len(pts)
    counts = np.zeros((n, n), dtype=np.int64)
    for q in sample.queries:
        near, far = (mask.astype(np.int64) for mask in stab_masks(sq_dists_to(pts.points, q), params))
        counts += np.outer(near, far) + np.outer(far, near)
    return counts


def lexsort_tree_edges(counts: np.ndarray, n: int) -> list[Edge]:
    """Reference Kruskal: all pairs a < b lexsorted by (count, a, b)."""
    iu, ju = np.triu_indices(n, k=1)
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    edges = []
    for t in np.lexsort((ju, iu, counts[iu, ju])):
        ra, rb = find(int(iu[t])), find(int(ju[t]))
        if ra != rb:
            parent[ra] = rb
            edges.append(Edge(int(iu[t]), int(ju[t])))
    return edges


def near_data_case(n: int, m: int, seed: int) -> tuple[WeightedPointSet, QuerySample]:
    """Clustered points in d = 4 and near-data queries: a few points per ball."""
    rng = Seed(seed).generator()
    centers = rng.uniform(0.0, 6.0, size=(4, 4))
    pts = weighted(centers[rng.integers(0, 4, size=n)] + rng.normal(0.0, 0.4, size=(n, 4)))
    return pts, near_data_queries(pts, m, sigma=0.5, seed=Seed(seed + 1))


def dense_ball_case(n: int, m: int, seed: int) -> tuple[WeightedPointSet, QuerySample]:
    """Uniform points and queries in a d = 2 square: about n/8 points per ball."""
    rng = Seed(seed).generator()
    pts = weighted(rng.uniform(0.0, 5.0, size=(n, 2)))
    return pts, QuerySample(rng.uniform(0.0, 5.0, size=(m, 2)), source="uniform")


def chunk_is_dense(pts: WeightedPointSet, sample: QuerySample, params: EpsParams) -> list[bool]:
    """Per query chunk of ``pair_stab_counts``, whether it takes the GEMM (else it scatters)."""
    p, q = pts.points, sample.queries
    n = len(p)
    d2 = np.einsum("ij,ij->i", q, q)[:, None] + np.einsum("ij,ij->i", p, p)[None, :] - 2.0 * (q @ p.T)
    np.maximum(d2, 0.0, out=d2)
    pairs = np.count_nonzero(d2 <= params.radius**2, axis=1) * np.count_nonzero(d2 < params.outer_radius**2, axis=1)
    rows = max(1, learned._CHUNK_CELLS // n)
    return [
        int(pairs[lo : lo + rows].sum()) * learned._SCATTER_COST > len(pairs[lo : lo + rows]) * n * n
        for lo in range(0, len(q), rows)
    ]


def assert_count_matrix(counts: np.ndarray, n: int) -> None:
    assert counts.dtype == np.int32 and counts.shape == (n, n)
    np.testing.assert_array_equal(counts, counts.T)
    assert np.all(np.diag(counts) == 0)


class TestSampleSize:
    def test_worked_example(self):
        # n=100, d=4: 100 * (4 * log2(100) + log2(100)) = 100 * 5 * log2(100)
        assert default_sample_size(100, 4, 0.01) == 3322

    def test_domain_checks(self):
        with pytest.raises(ContractViolation):
            default_sample_size(1, 4, 0.01)
        with pytest.raises(ContractViolation):
            default_sample_size(100, 4, 1.5)


class TestQueryGenerators:
    def test_uniform_stays_in_box(self):
        qs = uniform_queries(200, np.array([-1.0, 0.0]), np.array([1.0, 2.0]), Seed(100))
        assert qs.queries.shape == (200, 2)
        assert qs.queries[:, 0].min() >= -1.0 and qs.queries[:, 0].max() <= 1.0
        assert qs.queries[:, 1].min() >= 0.0 and qs.queries[:, 1].max() <= 2.0

    def test_near_data_centers_on_points(self):
        pts = weighted(np.array([[0.0, 0.0], [100.0, 100.0]]))
        qs = near_data_queries(pts, 300, sigma=0.1, seed=Seed(101))
        d_to_some_point = np.minimum(
            np.linalg.norm(qs.queries - pts.points[0], axis=1),
            np.linalg.norm(qs.queries - pts.points[1], axis=1),
        )
        assert d_to_some_point.max() < 2.0

    def test_same_seed_reproduces(self):
        pts = weighted(np.zeros((3, 2)))
        a = near_data_queries(pts, 50, 0.5, Seed(102))
        b = near_data_queries(pts, 50, 0.5, Seed(102))
        np.testing.assert_array_equal(a.queries, b.queries)

    def test_sample_validation(self):
        with pytest.raises(ContractViolation):
            QuerySample(np.zeros((0, 2)), source="empty")
        with pytest.raises(ContractViolation):
            QuerySample(np.array([[np.nan, 0.0]]), source="bad")


class TestPairStabCounts:
    def test_matches_scalar_double_loop(self):
        rng = Seed(103).generator()
        pts = weighted(rng.uniform(-2, 2, size=(12, 3)))
        sample = QuerySample(rng.uniform(-2, 2, size=(40, 3)), source="test")
        counts = pair_stab_counts(pts, sample, PARAMS)
        for a in range(12):
            for b in range(12):
                expected = 0
                for q in sample.queries:
                    da = np.linalg.norm(pts.points[a] - q)
                    db = np.linalg.norm(pts.points[b] - q)
                    if (da <= 1.0 and db >= 1.5) or (db <= 1.0 and da >= 1.5):
                        expected += 1
                assert counts[a, b] == expected

    def test_symmetric_with_zero_diagonal(self):
        rng = Seed(104).generator()
        pts = weighted(rng.uniform(-2, 2, size=(15, 2)))
        sample = QuerySample(rng.uniform(-2, 2, size=(60, 2)), source="test")
        counts = pair_stab_counts(pts, sample, PARAMS)
        np.testing.assert_array_equal(counts, counts.T)
        assert np.all(np.diag(counts) == 0)

    def test_dimension_mismatch_rejected(self):
        pts = weighted(np.zeros((3, 2)))
        with pytest.raises(ContractViolation):
            pair_stab_counts(pts, QuerySample(np.zeros((5, 3)), source="t"), PARAMS)

    # n = 256 gives chunks of 1024 queries: one partial chunk, exactly one
    # chunk, and three full chunks plus a partial one
    @pytest.mark.parametrize("m", [300, 1024, 3 * 1024 + 77])
    def test_near_data_across_chunks(self, m):
        pts, sample = near_data_case(256, m, seed=130)
        counts = pair_stab_counts(pts, sample, PARAMS)
        assert_count_matrix(counts, 256)
        np.testing.assert_array_equal(counts, whole_sample_counts(pts, sample, PARAMS))
        assert counts.sum() > 0

    @pytest.mark.parametrize("m", [300, 3 * 1024 + 77])
    def test_dense_balls_across_chunks(self, m):
        pts, sample = dense_ball_case(256, m, seed=131)
        counts = pair_stab_counts(pts, sample, PARAMS)
        assert_count_matrix(counts, 256)
        np.testing.assert_array_equal(counts, whole_sample_counts(pts, sample, PARAMS))

    def test_float32_sums_emptied_into_int64(self, monkeypatch):
        # small budgets: 64-query chunks, and float32 sums emptied every
        # three chunks, so that counts far above the budget stay exact
        monkeypatch.setattr(learned, "_CHUNK_CELLS", 2**12)
        monkeypatch.setattr(learned, "_F32_EXACT", 200)
        pts, sample = dense_ball_case(64, 1000, seed=132)
        counts = pair_stab_counts(pts, sample, PARAMS)
        assert_count_matrix(counts, 64)
        np.testing.assert_array_equal(counts, whole_sample_counts(pts, sample, PARAMS))
        assert counts.max() > 200

    def test_float32_flush_reached_by_dense_chunks(self, monkeypatch):
        # the input of test_float32_sums_emptied_into_int64 takes the GEMM in
        # every chunk, so its float32 sums pass the 200-row budget and are
        # emptied into int64 on the way
        monkeypatch.setattr(learned, "_CHUNK_CELLS", 2**12)
        pts, sample = dense_ball_case(64, 1000, seed=132)
        dense = chunk_is_dense(pts, sample, PARAMS)
        assert all(dense) and len(sample) > 200

    @pytest.mark.parametrize("block", [1, 7, 64, 256])
    def test_symmetric_sum_formed_block_by_block(self, monkeypatch, block):
        # X + X' is formed in place one pair of blocks at a time: blocks of
        # one entry, ragged edge blocks, exact tiles, and one block in all
        monkeypatch.setattr(learned, "_SYM_BLOCK", block)
        pts, sample = near_data_case(100, 300, seed=151)
        counts = pair_stab_counts(pts, sample, PARAMS)
        assert_count_matrix(counts, 100)
        np.testing.assert_array_equal(counts, whole_sample_counts(pts, sample, PARAMS))

    # 0 scatters every chunk; 2**62 sends every chunk with a pair to the GEMM
    @pytest.mark.parametrize("cost", [0, 2**62])
    @pytest.mark.parametrize("case", [near_data_case, dense_ball_case])
    def test_either_branch_alone_matches_whole_sample(self, monkeypatch, case, cost):
        monkeypatch.setattr(learned, "_SCATTER_COST", cost)
        pts, sample = case(256, 3 * 1024 + 77, seed=150)
        counts = pair_stab_counts(pts, sample, PARAMS)
        assert_count_matrix(counts, 256)
        np.testing.assert_array_equal(counts, whole_sample_counts(pts, sample, PARAMS))
        assert counts.sum() > 0

    def test_gemm_chunks_hold_no_product_beside_the_partial_sums(self, monkeypatch):
        # every chunk takes the GEMM, and chunks of 16 rows keep their buffers
        # small: the peak is the int32 counts and the float32 partial sums,
        # 8 n^2 bytes, where a fresh float32 product per chunk adds 4 n^2 more
        monkeypatch.setattr(learned, "_SCATTER_COST", 2**62)
        monkeypatch.setattr(learned, "_CHUNK_CELLS", 2**14)
        n = 1024
        pts, sample = dense_ball_case(n, 256, seed=152)
        assert all(chunk_is_dense(pts, sample, PARAMS))
        tracemalloc.start()
        try:
            counts = pair_stab_counts(pts, sample, PARAMS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(counts, whole_sample_counts(pts, sample, PARAMS))
        assert peak < 10 * n * n

    def test_memory_beside_the_sample_does_not_grow_with_it(self):
        # each query's edges take about 100 bytes of float64 temporaries, held
        # for one block of _CHUNK_CELLS // d queries at a time: eight times
        # the sample adds at most a block, 131,072 queries here
        pts = weighted(Seed(160).generator().uniform(0.0, 1.0, size=(16, 2)))
        params = EpsParams(eps=0.25, radius=0.2)
        pair_stab_counts(pts, uniform_queries(100, np.zeros(2), np.ones(2), Seed(161)), params)
        peaks = []
        for m in (2**16, 2**19):
            sample = uniform_queries(m, np.zeros(2), np.ones(2), Seed(161))
            tracemalloc.start()
            try:
                pair_stab_counts(pts, sample, params)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 16 * 2**20

    def test_sparse_and_dense_chunks_add_into_one_matrix(self, monkeypatch):
        # 64-query chunks that alternate: all queries in the square (dense),
        # then one query in the square and the rest far away (sparse)
        monkeypatch.setattr(learned, "_CHUNK_CELLS", 2**12)
        monkeypatch.setattr(learned, "_F32_EXACT", 100)
        pts, inner = dense_ball_case(64, 6 * 64, seed=151)
        queries = inner.queries.reshape(6, 64, 2).copy()
        queries[1::2, 1:] += 100.0
        sample = QuerySample(queries.reshape(-1, 2), source="t")
        assert chunk_is_dense(pts, sample, PARAMS) == [True, False] * 3
        counts = pair_stab_counts(pts, sample, PARAMS)
        assert_count_matrix(counts, 64)
        np.testing.assert_array_equal(counts, whole_sample_counts(pts, sample, PARAMS))

    def test_samples_past_int32_counts_refused(self, monkeypatch):
        # a count is at most the sample size, so int32 holds every count of
        # a sample below 2**31; the limit is lowered here, as such a sample
        # is far too large to build in a test
        assert learned._COUNT_LIMIT == np.iinfo(np.int32).max + 1
        monkeypatch.setattr(learned, "_COUNT_LIMIT", 100)
        pts, sample = near_data_case(16, 100, seed=156)
        with pytest.raises(ContractViolation, match="below 100 queries"):
            pair_stab_counts(pts, sample, PARAMS)
        fits = QuerySample(sample.queries[:99], source="t")
        np.testing.assert_array_equal(pair_stab_counts(pts, fits, PARAMS), whole_sample_counts(pts, fits, PARAMS))

    def test_jobs_past_the_byte_budget_refused_before_allocating(self, monkeypatch):
        # the int32 counts and the float32 partial take 8 n^2 bytes; the
        # budget is lowered here, as a job past the real one takes gigabytes
        assert learned._PAIR_BYTES_BUDGET == 2**31
        monkeypatch.setattr(learned, "_PAIR_BYTES_BUDGET", 8 * 16 * 16)
        pts, sample = near_data_case(16, 100, seed=157)
        np.testing.assert_array_equal(pair_stab_counts(pts, sample, PARAMS), whole_sample_counts(pts, sample, PARAMS))
        more, sample = near_data_case(17, 100, seed=157)
        with pytest.raises(ContractViolation, match="over the budget of 2048"):
            pair_stab_counts(more, sample, PARAMS)
        # at n 4096 the two would take 128 MiB; the refusal comes first
        monkeypatch.setattr(learned, "_PAIR_BYTES_BUDGET", 8 * 4095 * 4095)
        big = weighted(Seed(158).generator().uniform(0.0, 3.0, size=(4096, 4)))
        tracemalloc.start()
        try:
            with pytest.raises(ContractViolation, match="134217728 bytes"):
                build_counting_index(big, BuildConfig(eps=0.5, seed=Seed(159), tree_source=LearnedSource(sample)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_queries_far_from_every_point_count_nothing(self):
        # no inside entry, so no pair: every chunk scatters an empty key list
        pts, _ = dense_ball_case(64, 1, seed=152)
        rng = Seed(153).generator()
        sample = QuerySample(rng.uniform(100.0, 105.0, size=(500, 2)), source="t")
        counts = pair_stab_counts(pts, sample, PARAMS)
        assert_count_matrix(counts, 64)
        assert not counts.any()

    @pytest.mark.parametrize("cost", [0, 2**62])
    @pytest.mark.parametrize("radius", [1e200, 1.5e308])
    def test_huge_radius_counts_nothing(self, monkeypatch, cost, radius):
        # the squared radii overflow to inf, not OverflowError: every point
        # is near every query, so no pair is stabbed, by either branch
        monkeypatch.setattr(learned, "_SCATTER_COST", cost)
        pts, sample = dense_ball_case(32, 100, seed=155)
        counts = pair_stab_counts(pts, sample, EpsParams(eps=0.5, radius=radius))
        assert_count_matrix(counts, 32)
        assert not counts.any()

    @pytest.mark.parametrize("cost", [0, 2**62])
    def test_two_points(self, monkeypatch, cost):
        monkeypatch.setattr(learned, "_SCATTER_COST", cost)
        pts = weighted(np.array([[0.0, 0.0], [2.0, 0.0]]))
        rng = Seed(154).generator()
        sample = QuerySample(rng.uniform(-1.5, 3.5, size=(400, 2)), source="t")
        counts = pair_stab_counts(pts, sample, PARAMS)
        assert_count_matrix(counts, 2)
        np.testing.assert_array_equal(counts, whole_sample_counts(pts, sample, PARAMS))
        assert counts[0, 1] > 0

    def test_duplicate_points_and_queries(self):
        rng = Seed(134).generator()
        base = rng.uniform(0.0, 3.0, size=(20, 3))
        pts = weighted(np.vstack([base, base[:7], base[:3]]))
        queries = rng.uniform(-0.5, 3.5, size=(150, 3))
        sample = QuerySample(np.vstack([queries, queries[:40], pts.points[:5]]), source="t")
        counts = pair_stab_counts(pts, sample, PARAMS)
        assert_count_matrix(counts, 30)
        np.testing.assert_array_equal(counts, whole_sample_counts(pts, sample, PARAMS))
        # a point and its copy are never stabbed together
        assert counts[0, 20] == counts[0, 27] == counts[2, 22] == counts[2, 29] == 0

    def test_closed_comparisons_at_both_radii(self):
        # dyadic coordinates make every distance exact: points lie at exactly
        # r = 1 (near) and (1+eps)r = 1.5 (far) from the queries
        pts = weighted(np.array([[0.0, 0.0], [1.0, 0.0], [1.5, 0.0], [0.0, 1.25], [2.0, 0.0], [0.5, 0.0]]))
        sample = QuerySample(np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [-0.5, 0.0]]), source="t")
        counts = pair_stab_counts(pts, sample, PARAMS)
        assert_count_matrix(counts, 6)
        expected = np.zeros((6, 6), dtype=np.int64)
        for q in sample.queries:
            d = np.linalg.norm(pts.points - q, axis=1)
            near, far = d <= 1.0, d >= 1.5
            expected += np.outer(near, far) + np.outer(far, near)
        np.testing.assert_array_equal(counts, expected)
        # query 0: (1, 0) at exactly r is near and (1.5, 0) at exactly 1.5r is far
        assert counts[1, 2] >= 1


class TestStabCountsProperty:
    # data scales 2**-60 to 2**60, one whose squares overflow float32
    # (1e30), and ones whose coordinates (2**-140) or products (2**-70) fall
    # below float32's smallest normal
    @given(
        d=st.integers(1, 64),
        scale=st.integers(-60, 60).map(lambda k: 2.0**k) | st.sampled_from([1e30, 2.0**-140, 2.0**-70]),
        eps=st.sampled_from([0.5, 0.01, 0.99]) | st.floats(0.01, 0.99),
        spread=st.floats(0.0, 2.0),
        cost=st.sampled_from([0, 2**62]),
        chunk_cells=st.sampled_from([2**8, 2**18]),
        certify=st.booleans(),
        offset=st.sampled_from([0.0, 1e3, -1e9]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(d=2, scale=1.0, eps=0.5, spread=1.0, cost=0, chunk_cells=2**18, certify=True, offset=0.0, seed=0)
    @example(d=64, scale=1e30, eps=0.99, spread=2.0, cost=2**62, chunk_cells=2**8, certify=True, offset=0.0, seed=1)
    @example(d=3, scale=2.0**-140, eps=0.01, spread=0.5, cost=0, chunk_cells=2**8, certify=True, offset=0.0, seed=2)
    @example(d=8, scale=1.0, eps=0.5, spread=1.0, cost=0, chunk_cells=2**18, certify=True, offset=1e3, seed=3)
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_counts_equal_per_query_stab_masks(
        self, d, scale, eps, spread, cost, chunk_cells, certify, offset, seed
    ):
        # queries on a lattice of the data's scale, with points at exactly r
        # and (1+eps) r from them along an axis, at both radii along a
        # random direction, one ulp either side of each, and around them:
        # the counts are those of stab_masks on sq_dists_to rows, entry for
        # entry, from the scatter and from the GEMM, with the float32 pass
        # or with every cell taken exactly (``certify`` off), near the
        # origin or ``offset`` data scales from it
        rng = np.random.default_rng(seed)
        params = EpsParams(eps, scale)
        centers = (rng.integers(-3, 4, size=(3, d)) + offset) * scale
        points = []
        for q in centers:
            for radius in (params.radius, params.outer_radius):
                axis = np.zeros(d)
                axis[rng.integers(d)] = rng.choice([-1.0, 1.0])
                direction = rng.normal(size=d)
                direction /= np.linalg.norm(direction)
                for p in (q + radius * axis, q + radius * direction):
                    points += [np.nextafter(p, -np.inf), p, np.nextafter(p, np.inf)]
        points = np.vstack([points, centers[:1] + rng.normal(size=(6, d)) * scale * spread])
        queries = np.vstack([centers, points[:4], centers[rng.integers(3, size=20)] + rng.normal(size=(20, d)) * scale])
        pts, sample = weighted(points), QuerySample(queries, source="t")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(learned, "_SCATTER_COST", cost)
            mp.setattr(learned, "_CHUNK_CELLS", chunk_cells)
            if not certify:
                mp.setattr(learned, "FLOAT32", replace(FLOAT32, max_dim=0))
            counts = pair_stab_counts(pts, sample, params)
        assert_count_matrix(counts, len(points))
        np.testing.assert_array_equal(counts, per_query_counts(pts, sample, params))

    # far from the origin too: the pass is centred on the points
    @pytest.mark.parametrize("shift", [0.0, 1e3, -1e6])
    def test_float32_pass_leaves_few_cells_to_the_exact_distances(self, monkeypatch, shift):
        # on clustered data the float32 pass decides all but a sliver of the
        # cells: the band, whose pairs reach sq_dists_to with one query per
        # row, is under 0.1% of them
        band = []

        def counted(points, q):
            if q.ndim == 2:
                band.append(len(points))
            return sq_dists_to(points, q)

        monkeypatch.setattr(learned, "sq_dists_to", counted)
        pts, sample = near_data_case(256, 3 * 1024 + 77, seed=130)
        pts, sample = weighted(pts.points + shift), QuerySample(sample.queries + shift, source="t")
        np.testing.assert_array_equal(pair_stab_counts(pts, sample, PARAMS), per_query_counts(pts, sample, PARAMS))
        assert 0 < sum(band) < 0.001 * len(sample) * len(pts)


class TestLearnedTree:
    def test_all_zero_counts_give_star_at_zero(self):
        tree = learned_spanning_tree(np.zeros((5, 5), dtype=np.int64), 5)
        assert tree.edges == [Edge(0, 1), Edge(0, 2), Edge(0, 3), Edge(0, 4)]

    def test_objective_sums_edge_counts(self):
        counts = np.array([[0, 3, 9], [3, 0, 1], [9, 1, 0]])
        tree = learned_spanning_tree(counts, 3)
        assert tree_objective(counts, tree) == 4  # edges (1,2) and (0,1)

    def test_objective_of_int32_counts_does_not_wrap(self):
        # the path 0-1-2-3 holds 2**30 per edge; its total passes 2**31
        big = np.iinfo(np.int32).max
        counts = np.full((4, 4), big, dtype=np.int32)
        np.fill_diagonal(counts, 0)
        for a in range(3):
            counts[a, a + 1] = counts[a + 1, a] = 2**30
        tree = learned_spanning_tree(counts, 4)
        assert tree.edges == [Edge(0, 1), Edge(1, 2), Edge(2, 3)]
        assert tree_objective(counts, tree) == 3 * 2**30

    def test_scratch_memory_is_linear_in_n(self):
        # beyond the tree it returns, the tree step holds O(n) bytes; a
        # Kruskal over all pairs held 2 MiB of pair indices alone at n = 512
        n = 512
        rng = Seed(157).generator()
        upper = np.triu(rng.integers(0, 40, size=(n, n), dtype=np.int32), k=1)
        counts = upper + upper.T
        tracemalloc.start()
        try:
            tree = learned_spanning_tree(counts, n)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - retained < 64 * n + 16 * 1024
        assert tree.edges == lexsort_tree_edges(counts, n)

    def test_optimal_against_exhaustive_enumeration(self):
        rng = Seed(105).generator()
        for n in (4, 5, 6, 7):
            for _ in range(4):
                pts = weighted(rng.uniform(0, 2.5, size=(n, 2)))
                sample = QuerySample(rng.uniform(-0.5, 3.0, size=(80, 2)), source="t")
                counts = pair_stab_counts(pts, sample, PARAMS)
                tree = learned_spanning_tree(counts, n)
                best = min(
                    sum(counts[a, b] for a, b in edges)
                    for edges in enumerate_spanning_trees(n)
                )
                assert tree_objective(counts, tree) == best

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            learned_spanning_tree(np.zeros((3, 4)), 3)

    def test_edges_match_lexsort_kruskal_under_ties(self):
        rng = Seed(135).generator()
        for n in (2, 3, 7, 19, 40):
            for top in (0, 1, 2):
                upper = np.triu(rng.integers(0, top + 1, size=(n, n)), k=1)
                counts = upper + upper.T
                assert learned_spanning_tree(counts, n).edges == lexsort_tree_edges(counts, n)

    # counts a 16-bit key would change: past 2**16, and negative
    @pytest.mark.parametrize("values", [[0, 1, 2**16, 2**16 + 1, 2**40], [-(2**16), -3, -1, 0, 1]])
    def test_edges_match_lexsort_kruskal_beyond_16_bit_keys(self, values):
        rng = Seed(155).generator()
        for n in (3, 7, 19, 40):
            upper = np.triu(rng.choice(np.array(values), size=(n, n)), k=1)
            counts = upper + upper.T
            assert learned_spanning_tree(counts, n).edges == lexsort_tree_edges(counts, n)

    # fractional counts, and whole numbers held as floats
    @pytest.mark.parametrize("values", [[0.25, 0.5, 0.75, 1.0, 1.5], [0.0, 1.0, 2.0]])
    def test_float_counts_refused(self, values):
        rng = Seed(159).generator()
        upper = np.triu(rng.choice(np.array(values), size=(7, 7)), k=1)
        with pytest.raises(ContractViolation, match="integers"):
            learned_spanning_tree(upper + upper.T, 7)

    @pytest.mark.parametrize("n", [2, 7, 40])
    def test_counts_below_the_key_bound_kept_and_at_it_refused(self, n):
        # keys count * n**2 + a * n + b stay below 2**62 for |count| < 2**62 // n**2
        limit = 2**62 // n**2
        rng = Seed(158).generator()
        values = np.array([limit - 1, limit - 2, 0, -(limit - 1)], dtype=np.int64)
        upper = np.triu(rng.choice(values, size=(n, n)), k=1)
        counts = upper + upper.T
        assert learned_spanning_tree(counts, n).edges == lexsort_tree_edges(counts, n)
        for bad in (limit, -limit):
            counts[0, 1] = counts[1, 0] = bad
            with pytest.raises(ContractViolation, match="strictly between"):
                learned_spanning_tree(counts, n)


class TestHoldoutOverlap:
    def built(self, stored=None, n=20):
        rng = Seed(136).generator()
        pts = WeightedPointSet(rng.uniform(0, 3, size=(n, 2)), rng.uniform(0.1, 2.0, size=n))
        sample = near_data_queries(pts, 60, sigma=0.5, seed=Seed(137))
        cfg = BuildConfig(eps=0.5, seed=Seed(138), tree_source=stored or LearnedSource(sample))
        return pts, sample, build_counting_index(pts, cfg)

    @pytest.mark.parametrize("n", [1, 20])
    def test_flags_training_rows_of_a_built_index(self, n):
        # n = 1 fits no tree, but the index still holds its sample
        pts, sample, idx = self.built(n=n)
        fresh = near_data_queries(pts, 10, sigma=0.5, seed=Seed(139))
        mixed = QuerySample(np.vstack([fresh.queries, sample.queries[:2]]), source="t")
        assert evaluate_visiting(idx, fresh).holdout_overlaps_training is False
        assert evaluate_visiting(idx, mixed).holdout_overlaps_training is True

    def test_unknown_for_a_stored_learned_order(self):
        # a stored leaf order, as a loaded model's is: the index cannot tell
        # which sample a learned order was fitted to, and a worst-case order
        # was fitted to none
        pts, sample, fitted = self.built()
        holdout = QuerySample(sample.queries[:5], source="t")
        for kind, overlaps in [("learned", None), ("worstcase", False)]:
            _, _, idx = self.built(stored=StoredOrder(fitted.tree, kind))
            assert evaluate_visiting(idx, holdout).holdout_overlaps_training is overlaps

    def test_worst_case_tree_has_no_training_rows(self):
        pts, sample, _ = self.built()
        idx = build_counting_index(pts, BuildConfig(eps=0.5, seed=Seed(140), tree_source=WorstCaseSource()))
        holdout = QuerySample(sample.queries[:5], source="t")
        assert evaluate_visiting(idx, holdout).holdout_overlaps_training is False


class TestEvalVisiting:
    def test_mean_visiting_is_the_walks_mean(self):
        # the visiting number is taken at the error the walk runs at, so it
        # equals the nodes each count visits, query by query
        rng = Seed(141).generator()
        centers = rng.uniform(0, 4, size=(3, 4))
        pts = weighted(centers[rng.integers(0, 3, size=64)] + rng.normal(0, 0.4, size=(64, 4)))
        sample = near_data_queries(pts, 300, sigma=0.5, seed=Seed(142))
        cfg = BuildConfig(eps=0.5, seed=Seed(143), tree_source=LearnedSource(sample))
        idx = build_counting_index(pts, cfg)
        holdout = near_data_queries(pts, 40, sigma=0.5, seed=Seed(144))
        report = evaluate_visiting(idx, holdout)
        visited = [count(idx, q).visited_nodes for q in holdout.queries]
        assert [row["visiting"] for row in report.per_query] == visited
        assert report.mean_visiting == float(np.mean(visited))
        assert report.sandwich_pass_rate == 1.0

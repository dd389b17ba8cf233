"""Weighted sampler: proportionality, updates, and the global rescale."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from arccount.core import ContractViolation, Seed
from arccount.sampler import build_sampler


class TestBuildAndSample:
    def test_two_leaves_sample_in_ratio(self):
        s = build_sampler(np.array([1.0, 3.0]))
        rng = Seed(0).generator()
        draws = sum(s.sample(rng) for _ in range(20000))
        # P(index 1) = 0.75; binomial 3-sigma band around 15000
        assert abs(draws - 15000) < 3 * math.sqrt(20000 * 0.75 * 0.25)

    def test_zero_weight_never_sampled(self):
        s = build_sampler(np.array([1.0, 0.0, 2.0]))
        rng = Seed(1).generator()
        assert all(s.sample(rng) != 1 for _ in range(2000))

    def test_chi_square_against_exact_ratios(self):
        w = np.array([0.5, 1.0, 2.0, 4.0, 0.25])
        s = build_sampler(w)
        rng = Seed(2).generator()
        m = 40000
        counts = np.zeros(len(w))
        for _ in range(m):
            counts[s.sample(rng)] += 1
        expected = m * w / w.sum()
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < stats.chi2.ppf(0.999, df=len(w) - 1)

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 1000])
    def test_tree_equals_a_cell_by_cell_build(self, n):
        w = Seed(3).derive(n).generator().uniform(0.0, 3.0, size=n)
        s = build_sampler(w)
        expected = np.zeros_like(s._tree)
        expected[s._leaf_count : s._leaf_count + n] = w
        for i in range(s._leaf_count - 1, 0, -1):
            expected[i] = expected[2 * i] + expected[2 * i + 1]
        assert np.array_equal(s._tree, expected)

    def test_empty_distribution_raises(self):
        s = build_sampler(np.array([0.0, 0.0]))
        with pytest.raises(ContractViolation):
            s.sample(Seed(3).generator())

    def test_rejects_negative_weights(self):
        with pytest.raises(ContractViolation):
            build_sampler(np.array([1.0, -1.0]))


class TestUpdate:
    def test_update_changes_distribution(self):
        s = build_sampler(np.ones(4))
        s.update_weight(2, 0.0)
        rng = Seed(4).generator()
        assert all(s.sample(rng) != 2 for _ in range(1000))

    def test_noop_update_keeps_sums_bit_identical(self):
        s = build_sampler(np.array([0.3, 0.7, 1.1, 0.9, 2.2]))
        before = s._tree.copy()
        s.update_weight(3, s.weight(3))
        np.testing.assert_array_equal(s._tree, before)

    def test_internal_sums_track_leaves(self):
        s = build_sampler(np.arange(1.0, 12.0))
        rng = np.random.default_rng(5)
        for _ in range(200):
            s.update_weight(int(rng.integers(0, 11)), float(rng.uniform(0, 10)))
        assert s.internal_sums_consistent()

    def test_out_of_range_index_rejected(self):
        s = build_sampler(np.ones(3))
        with pytest.raises(ContractViolation):
            s.update_weight(3, 1.0)


class TestGlobalRescale:
    def test_repeated_doubling_triggers_rescale(self):
        s = build_sampler(np.ones(8))
        for _ in range(600):
            s.scale_weight(0, 2.0)
        assert s.scale_exponent > 0
        assert s.total <= 2.0**500
        # effective weight is preserved through the offset
        assert math.log2(s.weight(0)) + s.scale_exponent == 600

    def test_distribution_survives_rescale(self):
        s = build_sampler(np.ones(4))
        for _ in range(520):
            s.scale_weight(1, 2.0)
        # leaf 1 utterly dominates; every draw must return it
        rng = Seed(6).generator()
        assert all(s.sample(rng) == 1 for _ in range(500))

    def test_moderate_doublings_stay_exact(self):
        s = build_sampler(np.ones(4))
        for _ in range(100):
            s.scale_weight(2, 2.0)
        assert s.weight(2) == 2.0**100
        assert s.scale_exponent == 0

    def test_log2_total_is_scale_free(self):
        s = build_sampler(np.ones(2))
        for _ in range(600):
            s.scale_weight(0, 2.0)
        assert s.log2_total() == pytest.approx(600.0, abs=1e-9)

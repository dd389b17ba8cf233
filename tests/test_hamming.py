"""Randomized Hamming embedding: collision integrals, code lengths, bit behaviour."""

from __future__ import annotations

import math

import numpy as np
import pytest

from arccount.core import Seed
from arccount.hamming import (
    bucket_ids,
    code_distance,
    collision_prob,
    default_code_length,
    embed,
    embed_many,
    make_embedding,
)


def closed_form_collision(dist: float, width: float) -> float:
    """Collision probability of the shifted-floor hash, written independently.

    For a standard normal projection the bucket-collision probability at
    separation c with window w is
        2*Phi(w/c) - 1 - (2c/(sqrt(2pi)*w)) * (1 - exp(-w^2/(2c^2)))
    """
    c = dist
    w = width
    if c == 0:
        return 1.0
    from scipy.stats import norm

    return float(
        2 * norm.cdf(w / c) - 1 - (2 * c / (math.sqrt(2 * math.pi) * w)) * (1 - math.exp(-(w**2) / (2 * c**2)))
    )


class TestCollisionProb:
    @pytest.mark.parametrize("dist,width", [(1.0, 1.5), (1.5, 1.5), (0.7, 1.2), (2.0, 1.1)])
    def test_matches_closed_form(self, dist, width):
        assert collision_prob(dist, width) == pytest.approx(closed_form_collision(dist, width), abs=1e-8)

    def test_reference_values_at_half(self):
        # near pair (distance = radius) and far pair (distance = (1+eps) radius)
        p1 = collision_prob(1.0, 1.5)
        p2 = collision_prob(1.5, 1.5)
        assert p1 == pytest.approx(0.507153, abs=1e-5)
        assert p2 == pytest.approx(0.368746, abs=1e-5)

    def test_far_collision_constant_in_eps(self):
        # at distance (1+eps)r with window (1+eps)r the ratio is 1 for every eps
        vals = [collision_prob(1 + e, 1 + e) for e in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert max(vals) - min(vals) < 1e-9

    def test_gap_and_floor_across_eps(self):
        for eps in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
            w = 1 + eps
            p1 = collision_prob(1.0, w)
            p2 = collision_prob(w, w)
            assert p1 - p2 >= eps / 5 - 1e-9
            assert p2 >= 0.25

    def test_monotone_in_distance(self):
        probs = [collision_prob(c, 1.5) for c in (0.2, 0.6, 1.0, 1.4, 1.8)]
        assert all(a > b for a, b in zip(probs, probs[1:]))

    # at dist << width the integrand is a narrow spike at 0, which adaptive
    # quadrature can miss entirely; here erf is 1 and exp(-x^2) 0 in double
    # precision, so the probability is 1 - dist * sqrt(2/pi) / width
    @pytest.mark.parametrize("dist,width", [(1e-6, 1.5), (1e-3, 10.0)])
    def test_near_one_when_dist_is_far_below_width(self, dist, width):
        assert collision_prob(dist, width) == pytest.approx(1.0 - dist * math.sqrt(2.0 / math.pi) / width, rel=1e-15)

    @pytest.mark.parametrize("width", [0.01, 0.1, 1.0, 1.5, 10.0])
    def test_does_not_increase_with_distance_over_twelve_decades(self, width):
        probs = np.array([collision_prob(float(c), width) for c in np.geomspace(1e-6, 1e6, 2401)])
        assert np.all(np.diff(probs) <= 0.0)
        assert 0.0 < probs[-1] and probs[0] <= 1.0


class TestCodeLength:
    def test_desk_examples(self):
        assert default_code_length(1024, 0.5) == 8
        assert default_code_length(2**20, 0.5) == 16

    def test_floor_of_eight(self):
        assert default_code_length(4, 0.5) == 8
        assert default_code_length(2, 0.1) == 8

    def test_override_respected(self):
        emb = make_embedding(4, 1024, 0.5, Seed(7), dprime=40)
        assert emb.dprime == 40


class TestEmbeddingStructure:
    def test_thresholds_derive_from_mu1(self):
        emb = make_embedding(6, 2**20, 0.5, Seed(8))
        mu1 = 0.5 * emb.dprime * (1 - collision_prob(1.0, 1.5))
        assert emb.mu1 == pytest.approx(mu1, rel=1e-9)
        assert emb.theta == pytest.approx(mu1 * (1 + 0.5 / 80), rel=1e-9)
        assert emb.far_threshold == pytest.approx(emb.theta + 0.5 * emb.dprime, rel=1e-9)

    def test_same_seed_same_codes(self):
        pts = Seed(9).generator().normal(size=(20, 5))
        a = make_embedding(5, 100, 0.5, Seed(10))
        b = make_embedding(5, 100, 0.5, Seed(10))
        assert embed_many(a, pts) == embed_many(b, pts)

    def test_different_seeds_differ(self):
        pts = Seed(11).generator().normal(size=(20, 5))
        a = make_embedding(5, 100, 0.5, Seed(12))
        b = make_embedding(5, 100, 0.5, Seed(13))
        assert embed_many(a, pts) != embed_many(b, pts)

    def test_identical_points_collide_exactly(self):
        emb = make_embedding(3, 50, 0.5, Seed(14))
        p = np.array([0.3, -1.2, 0.8])
        assert code_distance(embed(emb, p), embed(emb, p.copy())) == 0

    def test_code_distance_bounded_by_bucket_disagreements(self):
        # bits are a deterministic function of the bucket id per coordinate,
        # so the code can only differ where the buckets differ
        emb = make_embedding(4, 200, 0.5, Seed(15))
        rng = Seed(16).generator()
        for _ in range(50):
            x = rng.normal(size=4)
            y = x + rng.normal(scale=0.4, size=4)
            disagree = int(np.sum(bucket_ids(emb, x) != bucket_ids(emb, y)))
            assert code_distance(embed(emb, x), embed(emb, y)) <= disagree


class TestConcentration:
    def test_near_pair_mean_distance_tracks_mu1(self):
        # pairs at separation exactly r: mean code distance should sit near
        # mu1 = d'(1-p1)/2 and certainly below mu1 + 3 sqrt(d')/2
        eps, d = 0.5, 12
        trials = 400
        total = 0
        for t in range(trials):
            emb = make_embedding(d, 2**16, eps, Seed(17).derive(t))
            rng = Seed(18).derive(t).generator()
            x = rng.normal(size=d)
            u = rng.normal(size=d)
            y = x + u / np.linalg.norm(u)
            total += code_distance(embed(emb, x), embed(emb, y))
        mean = total / trials
        assert mean <= emb.mu1 + 3 * math.sqrt(emb.dprime) / 2
        assert mean >= emb.mu1 - 3 * math.sqrt(emb.dprime) / 2

    def test_far_pairs_farther_than_near_pairs_on_average(self):
        eps, d = 0.5, 10
        emb = make_embedding(d, 2**16, eps, Seed(19))
        rng = Seed(20).generator()
        near_total = far_total = 0
        for _ in range(300):
            x = rng.normal(size=d)
            u = rng.normal(size=d)
            u /= np.linalg.norm(u)
            near_total += code_distance(embed(emb, x), embed(emb, x + u))
            far_total += code_distance(embed(emb, x), embed(emb, x + 1.5 * u))
        assert far_total > near_total

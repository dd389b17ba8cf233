"""Stab classifier tests: witnesses, verdicts, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from arccount.core import ContractViolation, EpsParams, Seed, WeightedPointSet
from arccount.stabber import (
    Verdict,
    build_classifier,
    build_stab_index,
    classify,
    stab_witnesses,
)

PARAMS = EpsParams(eps=0.5)


def point_set(points: np.ndarray) -> WeightedPointSet:
    return WeightedPointSet(points, np.ones(len(points)))


def exact_verdict(points: np.ndarray, q: np.ndarray, params: EpsParams) -> Verdict:
    """Reference trichotomy from exact distances, written independently."""
    dists = np.linalg.norm(points - q, axis=1)
    has_near = bool(np.any(dists <= params.outer_radius))
    has_far = bool(np.any(dists >= params.radius))
    if has_near and has_far:
        return Verdict.STABBED
    if has_near:
        return Verdict.COVERED
    return Verdict.DISJOINT


class TestWitnesses:
    def test_planted_pair_yields_both_witnesses(self):
        # one point just inside the ball, one in the annulus: both phases hit
        pts = np.array([[0.9, 0.0], [1.4, 0.0]])
        idx = build_stab_index(point_set(pts), PARAMS, Seed(30))
        w = stab_witnesses(idx, np.zeros(2))
        assert w.near is not None and w.far is not None
        assert w.near_dist <= PARAMS.outer_radius
        assert w.far_dist >= PARAMS.radius

    def test_annulus_point_is_both_witness_kinds(self):
        pts = np.array([[1.2, 0.0], [1.3, 0.0]])
        idx = build_stab_index(point_set(pts), PARAMS, Seed(31))
        w = stab_witnesses(idx, np.zeros(2))
        assert w.near is not None and w.far is not None

    def test_witness_distances_are_exact(self):
        rng = Seed(32).generator()
        pts = rng.uniform(-2, 2, size=(40, 3))
        idx = build_stab_index(point_set(pts), PARAMS, Seed(33))
        q = np.zeros(3)
        w = stab_witnesses(idx, q)
        if w.near is not None:
            assert w.near_dist == pytest.approx(float(np.linalg.norm(pts[w.near] - q)))
        if w.far is not None:
            assert w.far_dist == pytest.approx(float(np.linalg.norm(pts[w.far] - q)))

    def test_dimension_mismatch_rejected(self):
        idx = build_stab_index(point_set(np.zeros((3, 4))), PARAMS, Seed(34))
        with pytest.raises(ContractViolation):
            stab_witnesses(idx, np.zeros(3))


class TestClassifier:
    def test_all_inside_is_covered(self):
        rng = Seed(36).generator()
        pts = rng.uniform(-0.4, 0.4, size=(30, 3))
        c = build_classifier(point_set(pts), PARAMS, seed=Seed(37))
        assert classify(c, np.zeros(3)) is Verdict.COVERED

    def test_all_far_is_disjoint(self):
        rng = Seed(38).generator()
        pts = rng.uniform(-0.4, 0.4, size=(30, 3)) + 8.0
        c = build_classifier(point_set(pts), PARAMS, seed=Seed(39))
        assert classify(c, np.zeros(3)) is Verdict.DISJOINT

    def test_planted_pair_is_stabbed(self):
        pts = np.array([[0.8, 0.0], [1.6, 0.0]])
        c = build_classifier(point_set(pts), PARAMS, seed=Seed(40))
        assert classify(c, np.zeros(2)) is Verdict.STABBED

    def test_matches_exact_trichotomy_at_desk_scale(self):
        # every phase scans until it finds a witness or runs out of points,
        # so the verdict must equal the exact three-way rule on every query,
        # whatever the size, dimension, error and radius
        rng = Seed(41).generator()
        seen = set()
        for case in range(40):
            n = (2, 300)[case] if case < 2 else int(rng.integers(2, 301))
            d = int(rng.integers(1, 7))
            params = EpsParams(eps=float(rng.uniform(0.05, 0.95)), radius=float(rng.uniform(0.3, 2.0)))
            # boxes from well inside one ball to several radii across
            half_width = float(rng.uniform(0.1, 2.0)) * params.radius / np.sqrt(d)
            pts = rng.uniform(-half_width, half_width, size=(n, d))
            c = build_classifier(point_set(pts), params, seed=Seed(42).derive(case))
            for k in range(10):
                # alternately near the box and up to a few radii out
                reach = (1.0, 3.0)[k % 2] * (half_width + params.radius) / np.sqrt(d)
                q = rng.uniform(-reach, reach, size=d)
                verdict = classify(c, q)
                assert verdict is exact_verdict(pts, q, params)
                seen.add(verdict)
        assert seen == set(Verdict)

    def test_same_seed_is_deterministic(self):
        rng = Seed(43).generator()
        pts = rng.uniform(-2, 2, size=(25, 3))
        queries = rng.uniform(-2, 2, size=(20, 3))
        a = build_classifier(point_set(pts), PARAMS, seed=Seed(44))
        b = build_classifier(point_set(pts), PARAMS, seed=Seed(44))
        for q in queries:
            assert classify(a, q) is classify(b, q)

    def test_rejects_tiny_subsets(self):
        with pytest.raises(ContractViolation):
            build_classifier(point_set(np.zeros((1, 2))), PARAMS)

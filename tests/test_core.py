"""Geometric primitives: stab predicate, seeds."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arccount.core import (
    ContractViolation,
    EpsParams,
    GridSpec,
    Seed,
    WeightedPointSet,
    eps_stabs,
    sq_dists_to,
)

HALF = EpsParams(0.5)


class TestEpsStabs:
    def test_one_inside_one_far_is_stabbed(self):
        q = np.zeros(3)
        x = np.array([0.5, 0.0, 0.0])
        y = np.array([2.0, 0.0, 0.0])
        assert eps_stabs(q, x, y, HALF)

    def test_symmetric_in_the_pair(self):
        q = np.zeros(3)
        x = np.array([0.5, 0.0, 0.0])
        y = np.array([2.0, 0.0, 0.0])
        assert eps_stabs(q, y, x, HALF)

    def test_both_inside_not_stabbed(self):
        q = np.zeros(2)
        assert not eps_stabs(q, np.array([0.3, 0.0]), np.array([0.0, 0.9]), HALF)

    def test_both_far_not_stabbed(self):
        q = np.zeros(2)
        assert not eps_stabs(q, np.array([3.0, 0.0]), np.array([0.0, 9.0]), HALF)

    def test_annulus_point_never_counts_as_near(self):
        # one point strictly inside the ambiguity zone, the other far
        q = np.zeros(2)
        assert not eps_stabs(q, np.array([1.2, 0.0]), np.array([5.0, 0.0]), HALF)

    def test_closed_boundaries(self):
        q = np.zeros(1)
        # exactly r counts as near, exactly (1+eps)r counts as far
        assert eps_stabs(q, np.array([1.0]), np.array([1.5]), HALF)

    def test_radius_scaling(self):
        params = EpsParams(0.5, radius=2.0)
        q = np.zeros(1)
        assert eps_stabs(q, np.array([1.9]), np.array([3.1]), params)
        assert not eps_stabs(q, np.array([1.9]), np.array([2.9]), params)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            eps_stabs(np.zeros(2), np.zeros(3), np.zeros(2), HALF)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_stabbed_pairs_are_separated(self, data):
        # whenever a pair is stabbed its endpoints are at least eps*r apart
        dim = data.draw(st.integers(1, 6))
        coords = st.floats(-3.0, 3.0, allow_nan=False)
        q = np.array(data.draw(st.lists(coords, min_size=dim, max_size=dim)))
        x = np.array(data.draw(st.lists(coords, min_size=dim, max_size=dim)))
        y = np.array(data.draw(st.lists(coords, min_size=dim, max_size=dim)))
        eps = data.draw(st.floats(0.05, 0.95))
        params = EpsParams(eps)
        if eps_stabs(q, x, y, params):
            assert np.linalg.norm(x - y) >= eps * params.radius - 1e-9


def layouts(points: np.ndarray) -> dict[str, np.ndarray]:
    """``points`` C-ordered, Fortran-ordered, and as strided views into larger arrays of either order."""
    n, d = points.shape
    wide = np.zeros((2 * n, 3 * d))
    wide[::2, 1::3] = points
    tall = np.asfortranarray(np.zeros((3 * n, 2 * d)))
    tall[::3, ::2] = points
    return {
        "C": np.ascontiguousarray(points),
        "F": np.asfortranarray(points),
        "strided": wide[::2, 1::3],
        "strided F": tall[::3, ::2],
        "reversed": points[::-1].copy()[::-1],
    }


class TestSqDistsTo:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), d=st.integers(1, 17), seed=st.integers(0, 2**32 - 1))
    def test_each_rows_bits_do_not_depend_on_the_layout(self, n, d, seed):
        rng = np.random.default_rng(seed)
        points = rng.normal(0.0, 3.0, size=(n, d))
        q = rng.normal(0.0, 3.0, size=d)
        alone = np.array([sq_dists_to(points[i : i + 1], q)[0] for i in range(n)])
        for name, view in layouts(points).items():
            np.testing.assert_array_equal(view, points)
            assert sq_dists_to(view, q).tobytes() == alone.tobytes(), name
            # a 2-d q of the same layout measures each row against its own query row
            rows = np.broadcast_to(q, (n, d))
            assert sq_dists_to(view, layouts(rows)[name]).tobytes() == alone.tobytes(), name

    def test_a_fortran_copy_of_near_data_points_gives_the_same_bits(self):
        rng = np.random.default_rng(8)
        points = rng.normal(0.0, 1.0, size=(1024, 8)) + rng.integers(0, 4, size=(1024, 1))
        q = points[0] + 0.1
        assert sq_dists_to(np.asfortranarray(points), q).tobytes() == sq_dists_to(points, q).tobytes()


class TestSeed:
    def test_derivation_is_deterministic(self):
        a = Seed(42).derive(1, 2).generator().random(4)
        b = Seed(42).derive(1, 2).generator().random(4)
        np.testing.assert_array_equal(a, b)

    def test_sibling_streams_differ(self):
        a = Seed(42).derive(1).generator().random(4)
        b = Seed(42).derive(2).generator().random(4)
        assert not np.array_equal(a, b)

    def test_rejects_oversized_values(self):
        with pytest.raises(ContractViolation):
            Seed(2**64)

    @pytest.mark.parametrize("value", [1.5, "3"])
    def test_refuses_a_value_that_is_not_an_integer(self, value):
        # int() would pass both through the range check, to fail in generator()
        with pytest.raises(ContractViolation, match="must be an integer"):
            Seed(value)

    def test_a_numpy_integer_seeds_the_same_stream(self):
        expected = Seed(7).derive(1).generator().random(4)
        np.testing.assert_array_equal(Seed(np.uint64(7)).derive(1).generator().random(4), expected)


class TestWeightedPointSet:
    def test_negative_weights_allowed(self):
        pts = WeightedPointSet(np.zeros((2, 2)), np.array([1.0, -1.0]))
        assert pts.weights[1] == -1.0

    def test_rejects_nan(self):
        with pytest.raises(ContractViolation):
            WeightedPointSet(np.array([[np.nan, 0.0]]), np.array([1.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ContractViolation):
            WeightedPointSet(np.zeros((3, 2)), np.ones(2))

    def test_arrays_are_read_only(self):
        pts = WeightedPointSet(np.zeros((2, 2)), np.ones(2))
        with pytest.raises(ValueError):
            pts.points[0, 0] = 1.0

    def test_a_view_taken_before_construction_cannot_write_into_the_set(self):
        a, w = np.ones((3, 2)), np.ones(3)
        va, vw = a[:], w[:]
        pts = WeightedPointSet(a, w)
        va[0, 0], vw[1] = np.inf, np.inf
        assert np.isfinite(pts.points).all() and np.isfinite(pts.weights).all()
        assert not np.shares_memory(pts.points, a) and not np.shares_memory(pts.weights, w)
        assert a.flags.writeable and w.flags.writeable

    def test_subset_shares_no_memory_with_its_source_and_keeps_the_bits(self):
        rng = Seed(5).generator()
        pts = WeightedPointSet(rng.normal(size=(6, 3)), rng.normal(size=6))
        sub = pts.subset(np.array([4, 0, 4]))
        for name in ("points", "weights"):
            got, source = getattr(sub, name), getattr(pts, name)
            assert got.tobytes() == source[[4, 0, 4]].tobytes() and not np.shares_memory(got, source)
            assert not got.flags.writeable

    def test_params_validation(self):
        with pytest.raises(ContractViolation):
            EpsParams(0.0)
        with pytest.raises(ContractViolation):
            EpsParams(1.0)
        with pytest.raises(ContractViolation):
            EpsParams(0.5, radius=-1.0)
        for side in (0.0, -1.0, math.inf):
            with pytest.raises(ContractViolation):
                GridSpec(side)

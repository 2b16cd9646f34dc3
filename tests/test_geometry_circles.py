"""Tests for exact circle geometry and overlap statistics."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import GeometryError
from repro.geometry.circles import (
    circle_intersection_area,
    overlap_statistics,
    pairwise_overlap_area,
)

O = np.array([0.0, 0.0])


class TestIntersectionArea:
    def test_disjoint(self):
        assert circle_intersection_area(O, 1.0, [5.0, 0.0], 1.0) == 0.0

    def test_tangent_external(self):
        assert circle_intersection_area(O, 1.0, [2.0, 0.0], 1.0) == 0.0

    def test_identical(self):
        a = circle_intersection_area(O, 2.0, O, 2.0)
        assert a == pytest.approx(math.pi * 4.0)

    def test_containment(self):
        a = circle_intersection_area(O, 5.0, [1.0, 0.0], 1.0)
        assert a == pytest.approx(math.pi)

    def test_half_offset_known_value(self):
        """Unit circles at distance 1: lens area = 2pi/3 - sqrt(3)/2."""
        a = circle_intersection_area(O, 1.0, [1.0, 0.0], 1.0)
        assert a == pytest.approx(2.0 * math.pi / 3.0 - math.sqrt(3.0) / 2.0)

    def test_symmetry(self, rng):
        c2 = rng.random(2) * 3
        a = circle_intersection_area(O, 1.5, c2, 2.5)
        b = circle_intersection_area(c2, 2.5, O, 1.5)
        assert a == pytest.approx(b)

    def test_negative_radius_rejected(self):
        with pytest.raises(GeometryError):
            circle_intersection_area(O, -1.0, O, 1.0)

    @settings(max_examples=50, deadline=None)
    @given(
        d=st.floats(0.0, 6.0),
        r1=st.floats(0.1, 3.0),
        r2=st.floats(0.1, 3.0),
    )
    @example(d=5.999999999999999, r1=3.0, r2=3.0)  # one ulp from tangent
    def test_bounds_property(self, d, r1, r2):
        a = circle_intersection_area(O, r1, [d, 0.0], r2)
        assert 0.0 <= a <= math.pi * min(r1, r2) ** 2 + 1e-9

    def test_matches_monte_carlo(self, rng):
        c2 = np.array([1.3, 0.4])
        r1, r2 = 1.5, 1.1
        exact = circle_intersection_area(O, r1, c2, r2)
        samples = rng.random((200_000, 2)) * 6 - 3
        inside = (
            (np.linalg.norm(samples, axis=1) <= r1)
            & (np.linalg.norm(samples - c2, axis=1) <= r2)
        )
        mc = inside.mean() * 36.0
        assert exact == pytest.approx(mc, rel=0.05)


class TestOverlapStatistics:
    def test_empty(self):
        stats = overlap_statistics(np.empty((0, 2)), 1.0)
        assert stats["overlap_ratio"] == 0.0

    def test_isolated_discs_no_overlap(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]])
        assert pairwise_overlap_area(pts, 1.0) == 0.0

    def test_stacked_discs_full_overlap(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0]])
        assert pairwise_overlap_area(pts, 2.0) == pytest.approx(math.pi * 4.0)

    def test_bad_radius(self):
        with pytest.raises(GeometryError):
            pairwise_overlap_area(np.array([[0.0, 0.0]]), 0.0)

    def test_greedy_overlaps_less_than_random(self, field, spec, rng):
        """The benefit greedy spreads discs; random placement crowds them —
        the overlap ratio quantifies Figure 9's waste at area granularity."""
        from repro.core import centralized_greedy, random_placement
        from repro.geometry import Rect

        greedy = centralized_greedy(field, spec, 1)
        rand = random_placement(field, spec, 1, rng, region=Rect.square(30.0))
        s_g = overlap_statistics(greedy.deployment.alive_positions(), spec.rs)
        s_r = overlap_statistics(rand.deployment.alive_positions(), spec.rs)
        assert s_g["overlap_ratio"] < s_r["overlap_ratio"]

    def test_mean_near_neighbors(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [100.0, 0.0]])
        stats = overlap_statistics(pts, 1.0)
        # one near pair among three nodes -> 2/3
        assert stats["mean_near_neighbors"] == pytest.approx(2.0 / 3.0)

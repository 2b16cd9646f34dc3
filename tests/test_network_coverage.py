"""Tests for repro.network.coverage — the incremental k_p bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CoverageError, GeometryError
from repro.network import CoverageState, Deployment


@pytest.fixture
def line_state() -> CoverageState:
    """Three collinear points, sensing radius 2."""
    return CoverageState([[0.0, 0.0], [3.0, 0.0], [10.0, 0.0]], sensing_radius=2.0)


class TestConstruction:
    def test_empty_field_rejected(self):
        with pytest.raises(GeometryError):
            CoverageState(np.empty((0, 2)), 1.0)

    def test_bad_radius_rejected(self):
        with pytest.raises(GeometryError):
            CoverageState([[0.0, 0.0]], 0.0)

    def test_from_deployment(self, field, spec):
        dep = Deployment(field[:10])
        state = CoverageState.from_deployment(field, spec.rs, dep)
        assert state.n_sensors == 10
        assert sorted(state.sensor_keys()) == list(range(10))

    def test_from_deployment_skips_failed(self, field, spec):
        dep = Deployment(field[:10])
        dep.fail([3, 7])
        state = CoverageState.from_deployment(field, spec.rs, dep)
        assert state.n_sensors == 8
        assert 3 not in state.sensor_keys()

    def test_from_rows_takes_an_id_array(self):
        pts = [[0.0, 0.0], [3.0, 0.0], [10.0, 0.0]]
        rows = [np.array([0], dtype=np.intp), np.array([0, 1], dtype=np.intp)]
        state = CoverageState.from_rows(pts, 2.0, np.array([4, 9], dtype=np.intp), rows)
        assert state.counts.tolist() == [2, 1, 0]
        assert all(type(key) is int for key in state.sensor_keys())
        assert sorted(state.sensor_keys()) == [4, 9]

    @pytest.mark.parametrize("keys", [[4, 4], [4]], ids=["duplicate", "too-few"])
    def test_from_rows_needs_one_distinct_key_per_row(self, keys):
        rows = [np.array([0], dtype=np.intp), np.array([1], dtype=np.intp)]
        with pytest.raises(CoverageError):
            CoverageState.from_rows([[0.0, 0.0], [3.0, 0.0]], 2.0, np.array(keys), rows)


class TestAddRemove:
    def test_add_updates_counts(self, line_state):
        covered = line_state.add_sensor(0, [0.5, 0.0])
        assert sorted(covered) == [0]
        assert line_state.counts.tolist() == [1, 0, 0]

    def test_boundary_inclusive(self, line_state):
        covered = line_state.add_sensor(0, [1.0, 0.0])
        assert sorted(covered) == [0, 1]  # x = 3 is at exactly rs = 2

    def test_add_covering_two(self, line_state):
        line_state.add_sensor(0, [1.5, 0.0])
        assert line_state.counts.tolist() == [1, 1, 0]

    def test_duplicate_key_rejected(self, line_state):
        line_state.add_sensor(0, [0.0, 0.0])
        with pytest.raises(CoverageError):
            line_state.add_sensor(0, [1.0, 0.0])

    def test_remove_restores(self, line_state):
        line_state.add_sensor(5, [1.5, 0.0])
        removed = line_state.remove_sensor(5)
        assert sorted(removed) == [0, 1]
        assert line_state.counts.tolist() == [0, 0, 0]
        assert line_state.n_sensors == 0

    def test_remove_unknown_rejected(self, line_state):
        with pytest.raises(CoverageError):
            line_state.remove_sensor(9)

    def test_remove_many(self, line_state):
        line_state.add_sensor(1, [0.0, 0.0])
        line_state.add_sensor(2, [3.0, 0.0])
        line_state.remove_sensors([1, 2])
        assert line_state.n_sensors == 0

    def test_points_covered_by(self, line_state):
        line_state.add_sensor(7, [10.0, 0.0])
        assert line_state.points_covered_by(7).tolist() == [2]


class TestQueries:
    def test_covered_fraction(self, line_state):
        line_state.add_sensor(0, [0.0, 0.0])
        assert line_state.covered_fraction(1) == pytest.approx(1 / 3)

    def test_deficiency(self, line_state):
        line_state.add_sensor(0, [0.0, 0.0])
        assert line_state.deficiency(2).tolist() == [1, 2, 2]

    def test_deficient_indices(self, line_state):
        line_state.add_sensor(0, [0.0, 0.0])
        assert line_state.deficient_indices(1).tolist() == [1, 2]

    def test_is_fully_covered(self, line_state):
        for i, x in enumerate([0.0, 3.0, 10.0]):
            line_state.add_sensor(i, [x, 0.0])
        assert line_state.is_fully_covered(1)
        assert not line_state.is_fully_covered(2)

    def test_min_coverage_and_histogram(self, line_state):
        line_state.add_sensor(0, [1.5, 0.0])
        assert line_state.min_coverage() == 0
        assert line_state.coverage_histogram().tolist() == [1, 2]

    def test_histogram_clamped(self, line_state):
        for i in range(5):
            line_state.add_sensor(i, [0.0, 0.0])
        hist = line_state.coverage_histogram(max_k=3)
        assert hist[3] == 1  # the point covered 5 times clamps to bin 3

    def test_bad_k_rejected(self, line_state):
        with pytest.raises(CoverageError):
            line_state.covered_fraction(0)


class TestConsistency:
    def test_validate_passes(self, field, spec, rng):
        state = CoverageState(field, spec.rs)
        for i in range(20):
            state.add_sensor(i, rng.random(2) * 30)
        state.validate()

    @settings(max_examples=20, deadline=None)
    @given(
        ops=st.lists(st.booleans(), max_size=40),
        seed=st.integers(0, 2**31),
    )
    def test_incremental_equals_recount(self, ops, seed):
        """Property: after any add/remove interleaving, the incremental
        counts equal a from-scratch recount."""
        rng = np.random.default_rng(seed)
        pts = rng.random((50, 2)) * 10
        state = CoverageState(pts, 1.5)
        next_key = 0
        for add in ops:
            if add or state.n_sensors == 0:
                state.add_sensor(next_key, rng.random(2) * 10)
                next_key += 1
            else:
                victim = rng.choice(state.sensor_keys())
                state.remove_sensor(int(victim))
        np.testing.assert_array_equal(state.counts, state.recomputed_counts())

"""Tests for the packet-level in-network grid DECOR protocol, and the
``max_nodes`` check shared by every placement runner."""

import numpy as np
import pytest

from repro.core import (
    BenefitEngine,
    MixedBenefitEngine,
    grid_decor,
    mixed_centralized_greedy,
    run_restoration_protocol,
    run_voronoi_protocol,
)
from repro.core.protocols import run_grid_protocol
from repro.discrepancy import field_points
from repro.errors import PlacementError
from repro.geometry import Rect
from repro.network import SensorSpec, SensorType


@pytest.fixture
def small_setup():
    region = Rect.square(20.0)
    pts = field_points(region, 120)
    spec = SensorSpec(4.0, 15.0)  # rc > 2 * cell diagonal: leaders in range
    return region, pts, spec


class TestEquivalence:
    """The protocol run must match the analytic synchronous-rounds model."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_same_placements_as_analytic(self, small_setup, k):
        region, pts, spec = small_setup
        report = run_grid_protocol(pts, spec, k, region, 5.0)
        analytic = grid_decor(pts, spec, k, region, 5.0)
        np.testing.assert_allclose(report.placed_positions, analytic.trace.positions)

    def test_same_message_totals(self, small_setup):
        region, pts, spec = small_setup
        report = run_grid_protocol(pts, spec, 2, region, 5.0)
        analytic = grid_decor(pts, spec, 2, region, 5.0)
        assert report.notify_messages == analytic.messages.total
        assert report.undeliverable == 0

    def test_full_coverage(self, small_setup):
        region, pts, spec = small_setup
        report = run_grid_protocol(pts, spec, 2, region, 5.0)
        assert report.covered_fraction == pytest.approx(1.0)


class TestRadioAccounting:
    def test_notifications_received_by_neighbors(self, small_setup):
        region, pts, spec = small_setup
        report = run_grid_protocol(pts, spec, 1, region, 5.0)
        assert report.radio_stats.total_sent() == report.notify_messages
        # every sent border message is delivered (lossless radio, all leaders
        # in range)
        assert report.radio_stats.total_received() == report.notify_messages

    def test_short_rc_reports_undeliverable(self):
        """With rc below the leader distance, border notifications fail and
        are surfaced in the report instead of crashing."""
        region = Rect.square(20.0)
        pts = field_points(region, 120)
        spec = SensorSpec(4.0, 4.5)  # leaders 5 apart are out of range
        report = run_grid_protocol(pts, spec, 1, region, 5.0)
        assert report.covered_fraction == pytest.approx(1.0)
        assert report.undeliverable > 0


class TestControls:
    def test_with_initial_positions(self, small_setup):
        region, pts, spec = small_setup
        report = run_grid_protocol(
            pts, spec, 1, region, 5.0, initial_positions=pts[::6]
        )
        analytic = grid_decor(pts, spec, 1, region, 5.0, initial_positions=pts[::6])
        assert len(report.placed_point_indices) == analytic.added_count

    def test_sim_time_advances(self, small_setup):
        region, pts, spec = small_setup
        report = run_grid_protocol(pts, spec, 1, region, 5.0, round_period=2.0)
        assert report.sim_time > 0.0


def _account_nothing(*args, **kwargs):
    raise AssertionError("a sensor was accounted before max_nodes was checked")


@pytest.mark.parametrize("max_nodes", [0, -3])
@pytest.mark.parametrize("runner", ["voronoi", "restoration", "mixed"])
def test_nonpositive_max_nodes_rejected_before_placing(runner, max_nodes, monkeypatch):
    """The protocol runners and the mixed greedy check ``max_nodes`` at
    entry, as :func:`~repro.core._common.placement_budget` does for the
    analytic methods: no sensor is accounted before the error."""
    region = Rect.square(20.0)
    pts = field_points(region, 120)
    spec = SensorSpec(4.0, 8.0)
    for cls, names in (
        (BenefitEngine, ("place_at", "add_sensor_at_position", "add_sensors")),
        (MixedBenefitEngine, ("place", "add_external")),
    ):
        for name in names:
            monkeypatch.setattr(cls, name, _account_nothing)
    run = {
        "voronoi": lambda: run_voronoi_protocol(pts, spec, 1, max_nodes=max_nodes),
        "restoration": lambda: run_restoration_protocol(
            pts, spec, 1, region, 5.0, pts[::10], [0], max_nodes=max_nodes
        ),
        "mixed": lambda: mixed_centralized_greedy(
            pts, [SensorType("small", 4.0, 8.0)], 1, max_nodes=max_nodes
        ),
    }[runner]
    with pytest.raises(PlacementError, match="max_nodes must be >= 1"):
        run()

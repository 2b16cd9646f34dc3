"""Tests for the result containers (trace, message stats, summaries)."""

import numpy as np
import pytest

from repro.core import centralized_greedy, grid_decor, voronoi_decor
from repro.core.result import MessageStats, PlacementTrace
from repro.errors import ExperimentError


class TestPlacementTrace:
    def test_empty(self):
        trace = PlacementTrace()
        assert len(trace) == 0
        assert trace.positions.shape == (0, 2)
        assert trace.benefits.shape == (0,)

    def test_columns_and_views(self):
        trace = PlacementTrace(
            [[1.0, 2.0], [4.0, 5.0]], [3.0, 1.0], [0.5, 1.0],
            proposer=[7, -1], messages=[2, 0],
        )
        assert len(trace) == 2
        np.testing.assert_allclose(trace.positions, [[1.0, 2.0], [4.0, 5.0]])
        assert trace.benefits.tolist() == [3.0, 1.0]
        assert trace.covered_fraction.tolist() == [0.5, 1.0]
        assert trace.proposer.tolist() == [7, -1]
        assert trace.messages.tolist() == [2, 0]

    def test_proposer_and_messages_default_to_none(self):
        trace = PlacementTrace([[1.0, 2.0]], [3.0], [0.5])
        assert trace.proposer.tolist() == [-1]
        assert trace.messages.tolist() == [0]

    def test_columns_must_align(self):
        with pytest.raises(ExperimentError):
            PlacementTrace([[1.0, 2.0]], [3.0, 1.0], [0.5])


class TestMessageStats:
    def test_totals_and_means(self):
        stats = MessageStats(
            per_cell=np.array([10, 0, 6]), nodes_per_cell=np.array([5, 0, 3])
        )
        assert stats.total == 16
        assert stats.mean_per_cell == pytest.approx(8.0)  # empty cell excluded
        assert stats.mean_per_node_with_rotation == pytest.approx(16 / 8)

    def test_empty(self):
        stats = MessageStats(
            per_cell=np.zeros(0, dtype=int), nodes_per_cell=np.zeros(0, dtype=int)
        )
        assert stats.total == 0
        assert stats.mean_per_cell == 0.0
        assert stats.mean_per_node_with_rotation == 0.0


class TestDeploymentResult:
    def test_summary_centralized(self, field, spec):
        result = centralized_greedy(field, spec, 2)
        s = result.summary()
        assert s["method"] == "centralized"
        assert s["k"] == 2
        assert s["nodes_added"] == result.added_count
        assert s["covered_fraction"] == 1.0
        assert "messages_total" not in s

    def test_summary_distributed_has_messages(self, field, region, spec):
        result = grid_decor(field, spec, 1, region, 5.0)
        s = result.summary()
        assert s["messages_total"] == result.messages.total
        assert s["param_cell_size"] == 5.0

    def test_trajectory_accounts_initial_nodes(self, field, spec):
        result = centralized_greedy(field, spec, 1, initial_positions=field[:7])
        xs, ys = result.coverage_trajectory()
        assert xs[0] == 8  # 7 initial + the first added node
        assert xs[-1] == result.total_alive

    def test_trajectory_rejects_inconsistent_trace(self, field, spec):
        result = centralized_greedy(field, spec, 1)
        trace = result.trace
        result.trace = PlacementTrace(  # corrupt it: one row too many
            np.vstack([trace.positions, np.zeros((1, 2))]),
            np.append(trace.benefits, 0.0),
            np.append(trace.covered_fraction, 1.0),
        )
        with pytest.raises(ExperimentError):
            result.coverage_trajectory()

    def test_voronoi_params(self, field, spec):
        result = voronoi_decor(field, spec, 1)
        assert result.params["rc"] == spec.rc

"""Warm-start restoration: the session must be bit-identical to cold.

The contract under test (see :mod:`repro.core.restoration` and
``docs/performance.md``): a warm :class:`RestorationSession` — one benefit
engine kept alive across failure epochs, changed only over each epoch's
damaged region — produces *exactly* the repairs a cold rebuild produces,
for every method and every failure kind; even the flight-recorder streams
serialise to the same bytes.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.checks import CHECKS
from repro.core import BenefitEngine, DecorPlanner, centralized_greedy, restore
from repro.core.restoration import RestorationSession
from repro.errors import (
    ConfigurationError,
    CoverageError,
    ExperimentError,
    PlacementError,
)
from repro.experiments import (
    ExperimentSetup,
    epoch_failure,
    epoch_series,
    run_epoch_sweep,
)
from repro.experiments.recording import figure_to_json
from repro.experiments.runner import DeploymentCache
from repro.field import FieldModel
from repro.geometry import Rect
from repro.network import FailureEvent, SensorSpec
from repro.obs import OBS


def _planner(seed: int = 3, n_points: int = 250) -> DecorPlanner:
    return DecorPlanner(
        Rect.square(30.0), SensorSpec(4.0, 8.0), n_points=n_points, seed=seed
    )


def _drive(session, region, *, epochs: int = 3, radius: float = 7.0):
    """Run the deterministic failure schedule; returns the epoch reports."""
    reports = []
    for epoch in range(epochs):
        event = epoch_failure(
            session.deployment, region, epoch, 0, radius=radius
        )
        reports.append(session.restore(event))
    return reports


@pytest.fixture
def obs_reset():
    yield
    OBS.reset()


class TestWarmEqualsCold:
    @pytest.mark.parametrize("method", ["centralized", "grid", "voronoi"])
    def test_three_epochs_bit_identical(self, method, monkeypatch):
        monkeypatch.setattr(CHECKS, "enabled", True)  # warm==cold sanitizer on
        outcomes = []
        for warm in (True, False):
            planner = _planner()
            result = planner.deploy(2, method=method, cell_size=5.0)
            session = planner.session(
                result, method=method, warm=warm, cell_size=5.0
            )
            reports = _drive(session, planner.region)
            outcomes.append(
                (
                    [r.extra_nodes for r in reports],
                    [r.covered_after_failure for r in reports],
                    session.deployment.alive_positions(),
                )
            )
        (warm_extra, warm_cov, warm_pos), (cold_extra, cold_cov, cold_pos) = outcomes
        assert warm_extra == cold_extra
        assert warm_cov == cold_cov
        assert np.array_equal(warm_pos, cold_pos)

    def test_random_method_bit_identical(self):
        outcomes = []
        for warm in (True, False):
            planner = _planner(seed=5)
            result = planner.deploy(1, method="random")
            # each session gets its own identically seeded repair RNG
            session = RestorationSession(
                planner.field, planner.spec, result.deployment, 1, "random",
                warm=warm, region=planner.region,
                rng=np.random.default_rng(99),
            )
            reports = _drive(session, planner.region, epochs=2)
            outcomes.append(
                ([r.extra_nodes for r in reports],
                 session.deployment.alive_positions())
            )
        assert outcomes[0][0] == outcomes[1][0]
        assert np.array_equal(outcomes[0][1], outcomes[1][1])

    def test_warm_session_matches_repeated_one_shot_restore(self):
        """The session is the one-shot primitive, iterated — nothing more."""
        planner = _planner()
        result = planner.deploy(2, method="centralized")
        session = planner.session(result, method="centralized", warm=True)
        session_reports = _drive(session, planner.region)

        planner2 = _planner()
        result2 = planner2.deploy(2, method="centralized")
        dep = result2.deployment
        for epoch, expected in enumerate(session_reports):
            event = epoch_failure(dep, planner2.region, epoch, 0, radius=7.0)
            report = restore(
                planner2.field, planner2.spec, dep, event, 2, "centralized",
                region=planner2.region,
            )
            assert report.extra_nodes == expected.extra_nodes
            assert report.covered_after_failure == pytest.approx(
                expected.covered_after_failure
            )
            dep = report.repair.deployment

    def test_epoch_counter_and_views(self):
        planner = _planner()
        result = planner.deploy(1, method="voronoi")
        session = planner.session(result, method="voronoi")  # warm by default
        assert (session.epoch, session.warm, session.method) == (0, True, "voronoi")
        assert session.engine is not None
        _drive(session, planner.region, epochs=2)
        assert session.epoch == 2
        cold = planner.session(result, method="voronoi", warm=False)
        assert cold.engine is None


class TestFlightRecorderStreams:
    def test_warm_and_cold_streams_byte_identical(self, obs_reset):
        streams = []
        for warm in (True, False):
            planner = _planner()
            result = planner.deploy(2, method="voronoi")
            session = planner.session(result, method="voronoi", warm=warm)
            OBS.enable(fresh=True, flight=True)
            _drive(session, planner.region)
            streams.append(OBS.flight.to_jsonl())
            OBS.disable()
        assert streams[0] == streams[1]
        # and the stream actually carries the per-epoch story
        kinds = [
            json.loads(line)["kind"]
            for line in streams[0].splitlines()
            if '"kind"' in line
        ]
        assert kinds.count("fail") == 3 and kinds.count("restored") == 3
        # the damage footprint is recorded, and equal in both modes
        dirty = [
            json.loads(line)["attrs"]["dirty_points"]
            for stream in streams
            for line in stream.splitlines()
            if '"kind": "fail"' in line
        ]
        assert dirty[:3] == dirty[3:] and min(dirty) > 0


class TestEpochSweep:
    def test_sweep_warm_equals_cold_all_series(self):
        setup = ExperimentSetup.smoke()
        cache = DeploymentCache(setup)
        for name in ("centralized", "grid-small", "voronoi-big", "random"):
            warm = run_epoch_sweep(
                setup, name, 2, 0, epochs=3, warm=True, cache=cache
            )
            cold = run_epoch_sweep(
                setup, name, 2, 0, epochs=3, warm=False, cache=cache
            )
            dw, dc = warm.as_dict(), cold.as_dict()
            assert dw.pop("warm") is True and dc.pop("warm") is False
            assert json.dumps(dw) == json.dumps(dc)
            assert warm.n_epochs == 3
            kinds = [r.kind for r in warm.records]
            assert kinds == ["area", "random", "correlated"]
            assert all(r.complete for r in warm.records)
            assert all(
                r.covered_after_repair == pytest.approx(1.0)
                for r in warm.records
            )

    def test_epoch_series_json_byte_identical(self):
        setup = ExperimentSetup.smoke().with_seeds(1)
        cache = DeploymentCache(setup)
        warm = epoch_series(
            setup, 2, epochs=2, warm=True, cache=cache,
            series_names=("centralized", "voronoi-small"),
        )
        cold = epoch_series(
            setup, 2, epochs=2, warm=False, cache=cache,
            series_names=("centralized", "voronoi-small"),
        )
        assert figure_to_json(warm) == figure_to_json(cold)
        assert warm.series_names() == ["centralized", "voronoi-small"]
        assert all(np.all(warm.y_of(n) >= 0) for n in warm.series_names())

    def test_epoch_failure_deterministic(self):
        planner = _planner()
        result = planner.deploy(1, method="centralized")
        a = epoch_failure(result.deployment, planner.region, 0, 7, radius=6.0)
        b = epoch_failure(result.deployment, planner.region, 0, 7, radius=6.0)
        assert np.array_equal(a.node_ids, b.node_ids) and a.kind == b.kind

    def test_sweep_validation(self):
        setup = ExperimentSetup.smoke()
        with pytest.raises(ExperimentError):
            run_epoch_sweep(setup, "centralized", 1, 0, epochs=0)
        planner = _planner()
        result = planner.deploy(1, method="centralized")
        with pytest.raises(ExperimentError):
            epoch_failure(result.deployment, planner.region, -1, 0, radius=5.0)


class TestDirtyRegion:
    def test_points_within_radius(self):
        planner = _planner()
        model = planner.field
        pos = model.points[:2]
        dirty = planner.field.dirty_region(pos, 4.0)
        d = np.linalg.norm(
            model.points[:, None, :] - pos[None, :, :], axis=2
        ).min(axis=1)
        assert np.array_equal(dirty.points, np.nonzero(d <= 4.0)[0])
        assert dirty.n_points == dirty.points.size > 0

    def test_empty_positions(self):
        planner = _planner()
        dirty = planner.field.dirty_region(
            np.empty((0, 2)), 4.0
        )
        assert dirty.n_points == 0


class TestRemoveRows:
    def test_counts_match_fresh_engine(self, field, spec):
        model = FieldModel(field)
        engine = BenefitEngine(model, spec.sensing_radius, 2)
        positions = model.points[[3, 40, 90]]
        for pos in positions:
            engine.add_sensor_at_position(pos)
        footprint = engine.remove_rows(np.array([1]))
        reference = BenefitEngine(model, spec.sensing_radius, 2)
        for pos in positions[[0, 2]]:
            reference.add_sensor_at_position(pos)
        assert np.array_equal(engine.counts, reference.counts)
        assert np.array_equal(engine.benefit, reference.benefit)
        assert engine.n_rows == 2
        # footprint == the removed sensor's coverage row
        ball = model.query_ball(positions[1], spec.sensing_radius)
        assert np.array_equal(footprint, np.unique(ball))

    def test_validation_errors(self, field, spec):
        model = FieldModel(field)
        engine = BenefitEngine(model, spec.sensing_radius, 1)
        engine.add_sensor_at_position(model.points[0])
        with pytest.raises(CoverageError):
            engine.remove_rows(np.array([1]))
        with pytest.raises(CoverageError):
            engine.remove_rows(np.array([0, 0]))
        assert engine.remove_rows(np.empty(0, dtype=int)).size == 0


class TestBudgetTolerance:
    def test_truncated_repair_reports_incomplete(self, field, region, spec):
        result = centralized_greedy(field, spec, 2)
        from repro.network import area_failure

        event = area_failure(result.deployment, region.center, 10.0)
        report = restore(
            field, spec, result.deployment, event, 2, "centralized",
            max_nodes=1,
        )
        assert not report.complete
        assert report.extra_nodes <= 1
        assert report.covered_after_repair < 1.0

    def test_untruncated_repair_is_complete(self, field, region, spec):
        result = centralized_greedy(field, spec, 1)
        from repro.network import area_failure

        event = area_failure(result.deployment, region.center, 8.0)
        report = restore(
            field, spec, result.deployment, event, 1, "centralized"
        )
        assert report.complete
        assert report.covered_after_repair == pytest.approx(1.0)


class TestSessionValidation:
    def test_unknown_method(self):
        planner = _planner()
        result = planner.deploy(1, method="centralized")
        with pytest.raises(ConfigurationError):
            planner.session(result, method="simulated-annealing")

    def test_grid_needs_cell_size(self):
        planner = _planner()
        result = planner.deploy(1, method="centralized")
        with pytest.raises(ConfigurationError):
            planner.session(result, method="grid")

    def test_random_needs_rng(self, field):
        planner = _planner()
        result = planner.deploy(1, method="centralized")
        with pytest.raises(ConfigurationError):
            RestorationSession(
                planner.field, planner.spec, result.deployment, 1, "random",
                region=planner.region,
            )

    def test_warm_engine_mismatches_rejected(self, field, spec):
        model = FieldModel(field)
        wrong_k = BenefitEngine(model, spec.sensing_radius, 3)
        with pytest.raises(PlacementError):
            centralized_greedy(model, spec, 2, engine=wrong_k)
        other_model = FieldModel(field.copy())
        engine = BenefitEngine(other_model, spec.sensing_radius, 2)
        with pytest.raises(PlacementError):
            centralized_greedy(model, spec, 2, engine=engine)

    @pytest.mark.parametrize("bad_ids", ["unknown", "repeated"])
    @pytest.mark.parametrize("warm", [True, False])
    def test_failure_of_unknown_node_rejected_before_any_change(
        self, warm, bad_ids
    ):
        planner = _planner()
        result = planner.deploy(1, method="centralized")
        session = planner.session(result, method="centralized", warm=warm)
        counts = None if session.engine is None else session.engine.counts.copy()
        rows = None if session.engine is None else session.engine.n_rows
        ids = {
            "unknown": [0, session.deployment.n_total + 3],
            "repeated": [3, 3, 5],
        }[bad_ids]
        with pytest.raises(CoverageError):
            session.restore(FailureEvent(np.array(ids), kind="random"))
        assert session.epoch == 0
        assert session.deployment.n_alive == result.deployment.n_alive
        if counts is not None:
            assert np.array_equal(session.engine.counts, counts)
            assert session.engine.n_rows == rows

    def test_warm_engine_row_count_mismatch(self, field, spec):
        model = FieldModel(field)
        engine = BenefitEngine(model, spec.sensing_radius, 1)
        engine.add_sensor_at_position(model.points[0])
        with pytest.raises(PlacementError):
            centralized_greedy(
                model, spec, 1,
                initial_positions=model.points[:3], engine=engine,
            )

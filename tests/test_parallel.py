"""Tests for repro.parallel: deterministic process fan-out of cells.

The contract under test: prefilling a cache through worker processes is
*invisible* — figure data, per-cell results and merged OBS telemetry are
bit-identical to the serial path, regardless of worker count or completion
order.  The process-pool tests run only 12 tiny cells each so the suite
stays fast even on one core.
"""

from __future__ import annotations

import io
import json
import pickle
import time

import numpy as np
import pytest

from repro.errors import ConfigurationError, ExperimentError, ReproError
from repro.experiments.figures import cells_for_figure, run_figure
from repro.experiments.recording import figure_to_json
from repro.experiments.runner import DeploymentCache
from repro.experiments.setup import DECOR_SERIES, SERIES, ExperimentSetup
from repro.obs import OBS
from repro.parallel import Cell, normalize_cells, plan_chunks, prefill_cache


@pytest.fixture(scope="module")
def setup() -> ExperimentSetup:
    return ExperimentSetup(
        field_side=25.0, n_points=120, n_initial=0, n_seeds=2, k_values=(1,)
    )


@pytest.fixture(autouse=True)
def pristine_obs():
    OBS.reset()
    yield
    OBS.reset()


TRACE_COLUMNS = ("positions", "benefits", "covered_fraction", "proposer", "messages")


def _results_equal(a, b) -> None:
    """Assert two DeploymentResults are equal field by field."""
    assert a.summary() == b.summary()
    assert a.params == b.params
    np.testing.assert_array_equal(
        a.deployment.alive_positions(), b.deployment.alive_positions()
    )
    np.testing.assert_array_equal(a.added_ids, b.added_ids)
    np.testing.assert_array_equal(a.coverage.counts, b.coverage.counts)
    assert a.coverage.sensor_keys() == b.coverage.sensor_keys()
    for key in a.coverage.sensor_keys():
        np.testing.assert_array_equal(
            a.coverage.points_covered_by(key), b.coverage.points_covered_by(key)
        )
    for column in TRACE_COLUMNS:
        np.testing.assert_array_equal(
            getattr(a.trace, column), getattr(b.trace, column)
        )
    assert (a.messages is None) == (b.messages is None)
    if a.messages is not None:
        np.testing.assert_array_equal(a.messages.per_cell, b.messages.per_cell)
        np.testing.assert_array_equal(
            a.messages.nodes_per_cell, b.messages.nodes_per_cell
        )


def _pickled_arrays(obj) -> int:
    """How many ndarrays a pickle of ``obj`` holds."""
    count = 0

    class Counting(pickle.Pickler):
        def reducer_override(self, value):
            nonlocal count
            count += isinstance(value, np.ndarray)
            return NotImplemented

    Counting(io.BytesIO(), pickle.HIGHEST_PROTOCOL).dump(obj)
    return count


# ----------------------------------------------------------------------
# cell plumbing
# ----------------------------------------------------------------------
class TestNormalizeCells:
    def test_dedupes_preserving_order(self):
        cells = normalize_cells(
            [("grid-small", 1, 0), ("random", 1, 1), ("grid-small", 1.0, 0)]
        )
        assert cells == [("grid-small", 1, 0), ("random", 1, 1)]

    def test_accepts_series_objects(self):
        cells = normalize_cells([(SERIES[0], 2, 3)])
        assert cells == [(SERIES[0].name, 2, 3)]


class TestCellsForFigure:
    def test_full_sweep_figures(self, setup):
        cells = cells_for_figure(setup, 8)
        assert len(cells) == len(SERIES) * len(setup.k_values) * setup.n_seeds
        assert len(set(cells)) == len(cells)

    def test_fig10_reads_only_decor_series(self, setup):
        names = {name for name, _, _ in cells_for_figure(setup, 10)}
        assert names == set(DECOR_SERIES)

    def test_fixed_k_figures_pin_k(self, setup):
        for number in (7, 11):
            ks = {k for _, k, _ in cells_for_figure(setup, number)}
            assert ks == {max(setup.k_values)}  # paper k=3 clamped into range

    def test_unknown_figure_rejected(self, setup):
        with pytest.raises(ExperimentError):
            cells_for_figure(setup, 99)


# ----------------------------------------------------------------------
# serial prefill semantics
# ----------------------------------------------------------------------
class TestPrefillSerial:
    def test_matches_get_loop(self, setup):
        cells: list[Cell] = [("centralized", 1, 0), ("random", 1, 1)]
        direct = DeploymentCache(setup)
        for cell in cells:
            direct.get(*cell)
        prefilled = DeploymentCache(setup)
        assert prefill_cache(prefilled, cells) == 2
        for cell in cells:
            _results_equal(direct.get(*cell), prefilled.get(*cell))

    def test_cached_cells_skipped(self, setup):
        cache = DeploymentCache(setup)
        cache.get("random", 1, 0)
        assert cache.prefill([("random", 1, 0)]) == 0
        assert cache.prefill([("random", 1, 0), ("random", 1, 1)]) == 1

    def test_negative_workers_rejected(self, setup):
        with pytest.raises(ConfigurationError):
            prefill_cache(DeploymentCache(setup), [("random", 1, 0)], workers=-1)

    def test_absorb_refuses_silent_overwrite(self, setup):
        cache = DeploymentCache(setup)
        first = cache.get("random", 1, 0)
        other = DeploymentCache(setup).get("random", 1, 1)
        cache.absorb("random", 1, 0, first)  # same object: idempotent
        with pytest.raises(ExperimentError):
            cache.absorb("random", 1, 0, other)

    def test_contains(self, setup):
        cache = DeploymentCache(setup)
        assert ("random", 1, 0) not in cache
        cache.get("random", 1, 0)
        assert ("random", 1, 0) in cache
        assert (SERIES[0], 1, 0) not in cache  # grid-small, a Series object


# ----------------------------------------------------------------------
# process-pool path: bit identity with serial
# ----------------------------------------------------------------------
class TestPrefillParallel:
    def test_results_bit_identical_to_serial(self, setup):
        cells = cells_for_figure(setup, 8)  # 6 series x 1 k x 2 seeds
        serial = DeploymentCache(setup)
        prefill_cache(serial, cells)  # workers=None -> in-process
        parallel = DeploymentCache(setup)
        assert prefill_cache(parallel, cells, workers=2) == len(cells)
        for cell in cells:
            _results_equal(serial.get(*cell), parallel.get(*cell))

    def test_figure_json_byte_identical(self, setup):
        serial = figure_to_json(run_figure(setup, 8, DeploymentCache(setup)))
        parallel = figure_to_json(
            run_figure(setup, 8, DeploymentCache(setup), workers=2)
        )
        assert serial == parallel
        json.loads(serial)  # and it is valid JSON

    def test_single_pending_cell_stays_serial(self, setup):
        # one todo cell never pays process start-up; result still correct
        cache = DeploymentCache(setup)
        assert prefill_cache(cache, [("random", 1, 0)], workers=4) == 1
        _results_equal(
            cache.get("random", 1, 0), DeploymentCache(setup).get("random", 1, 0)
        )

    @pytest.mark.parametrize("series", [s.name for s in SERIES])
    def test_result_pickles_as_a_fixed_set_of_arrays(self, setup, series):
        """What a worker ships back: a result pickles as the same handful
        of arrays whatever its sensor count, and unpickles equal."""
        cache = DeploymentCache(setup)
        small, big = cache.get(series, 1, 0), cache.get(series, 3, 0)
        assert big.coverage.n_sensors > small.coverage.n_sensors
        assert _pickled_arrays(big) == _pickled_arrays(small)
        for result in (small, big):
            _results_equal(
                pickle.loads(pickle.dumps(result, pickle.HIGHEST_PROTOCOL)), result
            )

    def test_worker_error_propagates(self, setup):
        cache = DeploymentCache(setup)
        with pytest.raises(ReproError):
            prefill_cache(
                cache,
                [("random", 1, 0), ("no-such-series", 1, 0)],
                workers=2,
            )

    def test_worker_error_keeps_chunks_before_it(self, setup, monkeypatch):
        """Chunks are absorbed in submission order: a failing chunk ``j``
        leaves every cell of the chunks before it cached and none of its
        own or any later chunk's, even when it fails before chunk 0
        finishes."""
        cells = cells_for_figure(setup, 8)
        bad = ("no-such-series", 1, 0)
        cells.insert(5, bad)
        chunks = plan_chunks(cells, 2)
        j = next(i for i, chunk in enumerate(chunks) if bad in chunk)
        assert 1 <= j < len(chunks) - 1
        real_get = DeploymentCache.get

        def get(cache, *cell):
            if tuple(cell) == chunks[0][0]:
                time.sleep(0.3)  # chunk j fails while chunk 0 still runs
            return real_get(cache, *cell)

        # patched before the workers fork, so they inherit it
        monkeypatch.setattr(DeploymentCache, "get", get)
        cache = DeploymentCache(setup)
        with pytest.raises(ReproError):
            prefill_cache(cache, cells, workers=2)
        assert all(cell in cache for chunk in chunks[:j] for cell in chunk)
        assert not any(cell in cache for chunk in chunks[j:] for cell in chunk)


# ----------------------------------------------------------------------
# OBS telemetry shipped back from workers
# ----------------------------------------------------------------------
class TestObsMerge:
    def test_worker_metrics_match_serial(self, setup):
        cells = [(s.name, 1, 0) for s in SERIES]

        OBS.enable(fresh=True)
        serial = DeploymentCache(setup)
        prefill_cache(serial, cells)
        OBS.disable()
        serial_placements = {
            method: OBS.metrics.value("decor_placements_total", method=method)
            for method in ("grid", "voronoi", "centralized")
        }

        OBS.enable(fresh=True)
        parallel = DeploymentCache(setup)
        prefill_cache(parallel, cells, workers=2)
        OBS.disable()
        for method, expected in serial_placements.items():
            assert (
                OBS.metrics.value("decor_placements_total", method=method)
                == expected
            )
        assert OBS.metrics.value("parallel_cells_total") == len(cells)
        assert OBS.metrics.value("parallel_batches_total") == 1

    def test_worker_payload_leaves_out_field_model_counters(self, setup):
        """A worker's ``field_model_*`` counters count its own cache builds
        and hits, which depend on which worker ran which chunk: a pooled
        prefill records none of them, so its metrics are deterministic."""
        OBS.enable(fresh=True)
        prefill_cache(DeploymentCache(setup), cells_for_figure(setup, 8), workers=2)
        OBS.disable()
        names = set(OBS.metrics.as_dict())
        assert "decor_placements_total" in names
        assert not [name for name in names if name.startswith("field_model_")]

    def test_worker_spans_graft_under_prefill(self, setup):
        OBS.enable(fresh=True)
        prefill_cache(
            DeploymentCache(setup), [(s.name, 1, 0) for s in SERIES], workers=2
        )
        OBS.disable()
        records = OBS.tracer.records()
        prefill = [r for r in records if r["name"] == "prefill"]
        assert len(prefill) == 1
        series_spans = [r for r in records if r["name"] == "series"]
        assert len(series_spans) == len(SERIES)
        # every worker's top-level span hangs off the prefill span
        assert {r["parent"] for r in series_spans} == {prefill[0]["id"]}
        # ids were remapped into the parent's id space: all unique
        span_ids = [r["id"] for r in records if r["type"] == "span"]
        assert len(span_ids) == len(set(span_ids))

    def test_disabled_parent_ships_no_payloads(self, setup):
        cache = DeploymentCache(setup)
        prefill_cache(cache, [("random", 1, 0), ("random", 1, 1)], workers=2)
        assert len(OBS.tracer) == 0
        assert len(OBS.metrics) == 0

"""Tests for the time-series telemetry pipeline.

Covers the sampler (delta rows, the logical clock, ring bounds), the
label-cardinality cap, the sink reader, the domain health gauges, `decor
obs summarize`, and the merge guarantee: serial and multi-worker runs
produce byte-identical sampled series and equal metric gauges.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.errors import ObservabilityError
from repro.experiments.figures import cells_for_figure
from repro.experiments.runner import DeploymentCache
from repro.experiments.setup import ExperimentSetup
from repro.network.coverage import CoverageState
from repro.obs import (
    OBS,
    MetricsRegistry,
    MetricsSampler,
    record_coverage_health,
    record_energy_health,
    record_protocol_health,
)
from repro.obs.health import coverage_health
from repro.obs.metrics import LABELS_DROPPED_METRIC
from repro.obs.sampler import (
    EXCLUDED_PREFIXES,
    load_rows,
    series_key,
    series_table,
)
from repro.parallel import prefill_cache


@pytest.fixture(autouse=True)
def pristine_obs():
    OBS.reset()
    yield
    OBS.reset()


@pytest.fixture(scope="module")
def setup() -> ExperimentSetup:
    return ExperimentSetup(
        field_side=25.0, n_points=120, n_initial=0, n_seeds=2, k_values=(1,)
    )


# ----------------------------------------------------------------------
# label-cardinality cap
# ----------------------------------------------------------------------
class TestLabelCardinalityCap:
    def test_overflow_increments_dropped_counter(self):
        reg = MetricsRegistry(max_label_sets=3)
        for i in range(6):
            reg.counter("m_total", shard=str(i)).inc()
        assert reg.value(LABELS_DROPPED_METRIC, metric="m_total") == 3
        # the first three series survived and recorded
        assert reg.value("m_total", shard="0") == 1
        assert reg.value("m_total", shard="2") == 1

    def test_dropped_instruments_are_inert(self):
        reg = MetricsRegistry(max_label_sets=1)
        reg.counter("c_total", x="0").inc()
        reg.gauge("g", x="0").set(1.0)
        reg.histogram("h", x="0").observe(1.0)
        # past the cap: shared no-ops, nothing stored, nothing raised
        reg.counter("c_total", x="1").inc(5)
        reg.gauge("g", x="1").set(9.0)
        reg.histogram("h", x="1").observe(9.0)
        assert reg.value("c_total", x="0") == 1
        assert reg.value("g", x="0") == 1.0
        assert reg.histogram("h", x="0").count == 1
        keys = {
            (name, labels) for name, labels, _, _ in reg.dump_state()
        }
        assert ("c_total", (("x", "1"),)) not in keys
        for metric in ("c_total", "g", "h"):
            assert reg.value(LABELS_DROPPED_METRIC, metric=metric) == 1

    def test_existing_series_keep_working_at_cap(self):
        reg = MetricsRegistry(max_label_sets=1)
        reg.counter("a_total", x="0").inc()
        reg.counter("a_total", x="1").inc()  # dropped
        reg.counter("a_total", x="0").inc()  # still the real instrument
        assert reg.value("a_total", x="0") == 2

    def test_cap_is_per_metric_name(self):
        reg = MetricsRegistry(max_label_sets=1)
        reg.counter("a_total").inc()
        reg.counter("b_total").inc()  # different name: its own budget
        assert reg.value("a_total") == 1
        assert reg.value("b_total") == 1

    def test_dropped_series_reach_sample_rows_as_overflow_only(self):
        reg = MetricsRegistry(max_label_sets=1)
        s = MetricsSampler(reg)
        reg.counter("a_total", x="0").inc()
        reg.counter("a_total", x="1").inc()
        row = s.sample("t")
        assert "a_total{x=1}" not in row["series"]
        assert row["series"][
            LABELS_DROPPED_METRIC + "{metric=a_total}"
        ]["v"] == 1

    def test_invalid_cap_rejected(self):
        with pytest.raises(ObservabilityError):
            MetricsRegistry(max_label_sets=0)


class TestHistogramQuantile:
    def test_upper_edge_estimates(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in (0.5, 1.0, 3.0, 100.0):
            h.observe(v)
        assert h.quantile(0.5) == 1.0
        assert h.quantile(1.0) == 100.0  # top rank reports the observed max
        assert h.quantile(0.0) == 0.5

    def test_empty_histogram(self):
        reg = MetricsRegistry()
        assert reg.histogram("lat").quantile(0.5) == 0.0
        assert reg.histogram("lat").quantile(0.0) == 0.0
        assert reg.histogram("lat").quantile(1.0) == 0.0

    def test_single_observation(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        h.observe(2.5)
        for q in (0.0, 0.5, 1.0):
            assert h.quantile(q) == 2.5

    def test_single_bucket_all_quantiles_bounded(self):
        # every observation in one bucket: no quantile may leave the
        # observed [min, max] range, q=0 reports the minimum exactly
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in (1.1, 1.2, 1.3):
            h.observe(v)
        assert h.quantile(0.0) == 1.1
        for q in (0.25, 0.5, 0.75, 1.0):
            assert 1.1 <= h.quantile(q) <= 1.3

    def test_bad_q_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            reg.histogram("lat").quantile(1.5)


# ----------------------------------------------------------------------
# the sampler
# ----------------------------------------------------------------------
class TestMetricsSampler:
    def test_rows_carry_deltas_for_counters(self):
        reg = MetricsRegistry()
        s = MetricsSampler(reg)
        reg.counter("msgs_total").inc(3)
        s.sample("a")
        reg.counter("msgs_total").inc(4)
        s.sample("b")
        values = [r["series"]["msgs_total"]["v"] for r in s.rows()]
        assert values == [3, 4]
        assert reg.value("msgs_total") == 7  # registry stays cumulative

    def test_untouched_series_absent_from_row(self):
        reg = MetricsRegistry()
        s = MetricsSampler(reg)
        reg.counter("a_total").inc()
        s.sample("t")
        reg.counter("b_total").inc()
        row = s.sample("t")
        assert "a_total" not in row["series"]
        assert row["series"]["b_total"]["v"] == 1

    def test_gauges_report_current_value(self):
        reg = MetricsRegistry()
        s = MetricsSampler(reg)
        reg.gauge("health_coverage_fraction").set(0.25)
        row = s.sample("t")
        assert row["series"]["health_coverage_fraction"] == {
            "k": "gauge", "v": 0.25,
        }

    def test_histograms_report_count_sum_deltas(self):
        reg = MetricsRegistry()
        s = MetricsSampler(reg)
        reg.histogram("lat").observe(2.0)
        reg.histogram("lat").observe(4.0)
        row = s.sample("t")
        assert row["series"]["lat"] == {"k": "histogram", "count": 2, "sum": 6.0}
        reg.histogram("lat").observe(1.0)
        row = s.sample("t")
        assert row["series"]["lat"] == {"k": "histogram", "count": 1, "sum": 1.0}

    def test_logical_clock_is_monotone_seq(self):
        reg = MetricsRegistry()
        s = MetricsSampler(reg)
        for i in range(5):
            reg.counter("a_total").inc()
            s.sample("t", step=i)
        ts = [r["t"] for r in s.rows()]
        assert ts == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert [r["seq"] for r in s.rows()] == list(range(5))

    def test_excluded_prefixes_skipped(self):
        reg = MetricsRegistry()
        s = MetricsSampler(reg)
        reg.counter("field_model_builds_total").inc()
        reg.counter("kept_total").inc()
        row = s.sample("t")
        assert list(row["series"]) == ["kept_total"]

    def test_ring_bound_and_dropped_count(self):
        reg = MetricsRegistry()
        s = MetricsSampler(reg, capacity=3)
        for i in range(5):
            reg.counter("a_total").inc()
            s.sample("t", i=i)
        assert s.n_rows == 3
        assert s.dropped == 2
        assert [r["ctx"]["i"] for r in s.rows()] == [2, 3, 4]

    def test_invalid_args_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            MetricsSampler(reg, capacity=0)

    def test_header_reports_capacity_and_dropped(self):
        reg = MetricsRegistry()
        s = MetricsSampler(reg, capacity=3)
        for _ in range(5):
            reg.counter("a_total").inc()
            s.sample("t")
        header = s.header()
        assert header["capacity"] == 3
        assert header["dropped"] == 2
        # the header stays honest after eviction: the first retained
        # row's seq equals the dropped count, so a reader can tell the
        # sink is a suffix of the full stream
        assert s.rows()[0]["seq"] == header["dropped"]

    def test_stream_sink_writes_header_and_rows(self):
        reg = MetricsRegistry()
        sink = io.StringIO()
        s = MetricsSampler(reg, stream=sink)
        reg.counter("a_total").inc()
        s.sample("t")
        lines = [json.loads(ln) for ln in sink.getvalue().splitlines()]
        assert lines[0]["type"] == "header"
        assert lines[0]["clock"] == "logical"
        assert lines[0]["exclude"] == list(EXCLUDED_PREFIXES)
        assert lines[1]["type"] == "sample"
        assert lines[1]["series"]["a_total"]["v"] == 1

    def test_absorb_renumbers_into_logical_timeline(self):
        reg = MetricsRegistry()
        parent = MetricsSampler(reg)
        reg.counter("a_total").inc()
        parent.sample("parent")
        worker_rows = [
            {"type": "header"},
            {"type": "sample", "seq": 0, "t": 0.0, "tag": "cell",
             "ctx": {}, "series": {"a_total": {"k": "counter", "v": 2}}},
        ]
        assert parent.absorb(worker_rows) == 1
        rows = parent.rows()
        assert [r["seq"] for r in rows] == [0, 1]
        assert [r["t"] for r in rows] == [0.0, 1.0]

    def test_resync_prevents_double_reporting(self):
        reg = MetricsRegistry()
        s = MetricsSampler(reg)
        # simulate a bridge absorb: the registry jumps by merged amounts
        reg.counter("a_total").inc(10)
        s.resync()
        reg.counter("a_total").inc(1)
        row = s.sample("t")
        assert row["series"]["a_total"]["v"] == 1  # not 11

    def test_series_key_formatting(self):
        assert series_key("m", ()) == "m"
        assert series_key("m", (("a", 1), ("b", "x"))) == "m{a=1,b=x}"


class TestRuntimeSampling:
    def test_sample_facade_is_null_when_disabled(self):
        assert OBS.sample("t") is None

    def test_enable_with_sample_creates_sampler(self):
        OBS.enable(fresh=True)
        OBS.counter("a_total").inc()
        row = OBS.sample("t")
        assert row is not None
        assert OBS.sampler.n_rows == 1

# ----------------------------------------------------------------------
# health gauges
# ----------------------------------------------------------------------
class TestHealthGauges:
    @staticmethod
    def _coverage() -> CoverageState:
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]])
        cs = CoverageState(pts, sensing_radius=2.0)
        cs.add_sensor(0, [0.5, 0.0])
        cs.add_sensor(1, [10.5, 0.0])
        return cs

    def test_coverage_health_values(self):
        health = coverage_health(self._coverage(), 1)
        assert health["health_coverage_fraction"] == pytest.approx(2 / 3)
        assert health["health_k_deficient_points"] == 1.0
        assert health["health_open_holes"] == 1.0
        assert health["health_min_coverage"] == 0.0

    def test_full_coverage_short_circuits_holes(self):
        cs = CoverageState(np.array([[0.0, 0.0]]), sensing_radius=2.0)
        cs.add_sensor(0, [0.0, 0.0])
        health = coverage_health(cs, 1)
        assert health["health_open_holes"] == 0.0
        assert health["health_coverage_fraction"] == 1.0

    def test_record_coverage_health_sets_gauges(self):
        OBS.enable(fresh=True)
        record_coverage_health(self._coverage(), 1)
        assert OBS.metrics.value("health_k_deficient_points") == 1.0
        assert OBS.metrics.value("health_coverage_fraction") == pytest.approx(
            2 / 3
        )

    def test_record_energy_health(self):
        from repro.sim.radio import RadioStats
        from repro.sim.stats import EnergyModel

        OBS.enable(fresh=True)
        stats = RadioStats()
        stats.sent[1] = 4
        stats.sent[2] = 8
        record_energy_health(EnergyModel(), stats)
        assert OBS.metrics.value("health_node_energy_min") == 4.0
        assert OBS.metrics.value("health_node_energy_mean") == 6.0

    def test_record_energy_health_empty_profile_is_noop(self):
        from repro.sim.radio import RadioStats
        from repro.sim.stats import EnergyModel

        OBS.enable(fresh=True)
        record_energy_health(EnergyModel(), RadioStats())
        assert len(OBS.metrics) == 0

    def test_record_protocol_health(self):
        class FakeNode:
            def __init__(self, s):
                self._s = s

            def suspected(self):
                return self._s

        class FakeCell:
            def __init__(self, history):
                self.leadership_history = history

        OBS.enable(fresh=True)
        record_protocol_health(
            heartbeats=[FakeNode({1, 2}), FakeNode({2, 3})],
            elections=[FakeCell([5, 5, 7, 5]), FakeCell([1])],
        )
        assert OBS.metrics.value("health_suspected_nodes") == 3.0
        assert OBS.metrics.value("health_election_churn") == 2.0

    def test_no_elections_leaves_churn_unset(self):
        OBS.enable(fresh=True)
        record_protocol_health(heartbeats=[])
        names = {name for name, _, _, _ in OBS.metrics.dump_state()}
        assert "health_election_churn" not in names
        assert OBS.metrics.value("health_suspected_nodes") == 0.0


class TestEpochHealthSampling:
    def test_restoration_session_emits_epoch_rows(self):
        from repro.core import DecorPlanner
        from repro.experiments.epochs import epoch_failure
        from repro.geometry import Rect
        from repro.network import SensorSpec

        planner = DecorPlanner(
            Rect.square(30.0), SensorSpec(4.0, 8.0), n_points=250, seed=3
        )
        result = planner.deploy(1, method="centralized")
        OBS.enable(fresh=True)
        session = planner.session(result, method="centralized")
        for epoch in range(2):
            event = epoch_failure(
                session.deployment, planner.region, epoch, 0, radius=7.0
            )
            session.restore(event)
        OBS.disable()
        rows = OBS.sampler.rows()
        tags = [r["tag"] for r in rows]
        assert tags.count("epoch-failure") == 2
        assert tags.count("epoch-repair") == 2
        failure_rows = [r for r in rows if r["tag"] == "epoch-failure"]
        # the failure row carries the post-failure (pre-repair) fraction
        assert all(
            r["series"]["health_coverage_fraction"]["v"] <= 1.0
            for r in failure_rows
        )
        repair_rows = [r for r in rows if r["tag"] == "epoch-repair"]
        assert all("extra_nodes" in r["ctx"] for r in repair_rows)
        assert all(
            "health_alive_nodes" in r["series"] for r in repair_rows
        )
        # timestamps strictly monotone across the whole trajectory
        ts = [r["t"] for r in rows]
        assert ts == sorted(ts)
        assert len(set(ts)) == len(ts)

    def test_sim_engine_stamps_sim_time_in_ctx(self):
        from repro.sim.engine import Simulator

        OBS.enable(fresh=True)
        sim = Simulator()
        sim.schedule(2.5, lambda: None)
        sim.run()
        OBS.disable()
        rows = [r for r in OBS.sampler.rows() if r["tag"] == "sim"]
        assert len(rows) == 1
        assert rows[0]["ctx"]["sim_t"] == 2.5
        assert rows[0]["ctx"]["events"] == 1


# ----------------------------------------------------------------------
# serial vs workers: the byte-identity guarantee
# ----------------------------------------------------------------------
class TestSampledSeriesMergeIdentity:
    def test_serial_and_workers_byte_identical(self, setup):
        cells = cells_for_figure(setup, 8)

        OBS.enable(fresh=True)
        prefill_cache(DeploymentCache(setup), cells)
        OBS.disable()
        serial = OBS.sampler.to_jsonl()

        OBS.enable(fresh=True)
        prefill_cache(DeploymentCache(setup), cells, workers=2)
        OBS.disable()
        parallel = OBS.sampler.to_jsonl()

        assert serial == parallel
        rows = [json.loads(ln) for ln in serial.splitlines()][1:]
        assert len(rows) == len(cells)
        keys = set().union(*(r["series"].keys() for r in rows))
        assert "health_coverage_fraction" in keys
        assert "health_k_deficient_points" in keys
        assert not any(k.startswith("field_model_") for k in keys)

    def test_parent_does_not_rereport_absorbed_deltas(self, setup):
        cells = [("random", 1, 0), ("random", 1, 1)]
        OBS.enable(fresh=True)
        prefill_cache(DeploymentCache(setup), cells, workers=2)
        row = OBS.sample("post-merge")
        OBS.disable()
        # after merge+resync the absorbed worker deltas (placements,
        # messages, health...) are already accounted for by the workers'
        # own rows; only the parent's own bookkeeping counters remain
        assert set(row["series"]) == {
            "parallel_batches_total", "parallel_cells_total",
            "parallel_chunks_total", "parallel_shm_bytes_total",
        }


# ----------------------------------------------------------------------
# reading a sink back
# ----------------------------------------------------------------------
class TestSinkReader:
    @staticmethod
    def _rows():
        return [
            {"type": "sample", "seq": i, "t": float(i), "tag": "cell",
             "ctx": {},
             "series": {
                 "msgs_total": {"k": "counter", "v": 10},
                 "health_coverage_fraction": {"k": "gauge", "v": 0.5 + i / 10},
                 "lat": {"k": "histogram", "count": 2, "sum": 2.0 * i},
             }}
            for i in range(4)
        ]

    def test_series_table_accumulates_counters(self):
        table = series_table(self._rows())
        assert [v for _, v in table["msgs_total"]] == [10, 20, 30, 40]
        assert [v for _, v in table["lat"]] == [0.0, 1.0, 2.0, 3.0]
        assert table["health_coverage_fraction"][-1] == (3.0, 0.8)

    def test_load_rows_tolerates_truncation(self, tmp_path):
        path = tmp_path / "sink.jsonl"
        good = json.dumps(self._rows()[0])
        path.write_text(
            json.dumps({"type": "header"}) + "\n" + good + "\n"
            + '{"type": "sample", "tru'
        )
        rows = load_rows(path)
        assert len(rows) == 1
        assert load_rows(tmp_path / "missing.jsonl") == []


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCliTelemetry:
    @staticmethod
    def _write_sink(tmp_path):
        OBS.enable(fresh=True)
        OBS.counter("msgs_total").inc(3)
        OBS.gauge("health_coverage_fraction").set(0.5)
        OBS.sample("cell")
        sink = tmp_path / "sink.jsonl"
        OBS.sampler.write_jsonl(str(sink))
        OBS.reset()
        return sink

    def test_obs_summarize_samples(self, tmp_path, capsys):
        from repro.cli import main

        sink = self._write_sink(tmp_path)
        assert main(["obs", "summarize", str(sink)]) == 0
        out = capsys.readouterr().out
        assert "1 sample rows" in out
        assert "health_coverage_fraction" in out

    def test_obs_summarize_metrics_json(self, tmp_path, capsys):
        from repro.cli import main

        OBS.enable(fresh=True)
        OBS.counter("msgs_total").inc(3)
        OBS.histogram("lat").observe(1.0)
        path = tmp_path / "metrics.json"
        OBS.metrics.write_json(str(path))
        OBS.reset()
        assert main(["obs", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "top counters" in out
        assert "p95" in out

    def test_obs_summarize_diff_reports_histogram_mean(self, tmp_path, capsys):
        # sample rows carry only a histogram's count and sum: the diff
        # reports n and mean, never quantiles it cannot know
        from repro.cli import main

        sinks = []
        for name, values in (("a", (2.0, 4.0)), ("b", (1.0,))):
            OBS.enable(fresh=True)
            for value in values:
                OBS.histogram("lat").observe(value)
            OBS.sample("cell")
            sink = tmp_path / f"{name}.jsonl"
            OBS.sampler.write_jsonl(str(sink))
            OBS.reset()
            sinks.append(str(sink))
        assert main(["obs", "summarize", "--diff", *sinks]) == 0
        out = capsys.readouterr().out
        assert "lat: a n=2 mean=3, b n=1 mean=1" in out
        assert "p95" not in out

    def test_sample_flag_writes_sink(self, tmp_path, capsys, monkeypatch):
        # deploy and one-shot restore have no sample hooks of their own:
        # each run closes its sink with one row of counters and coverage
        # health
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        for command in ("deploy", "restore"):
            code = main([
                command, "--k", "1", "--points", "120", "--side", "20",
                "--method", "grid", "--sample", "sink.jsonl",
            ])
            assert code == 0
            lines = (tmp_path / "sink.jsonl").read_text().splitlines()
            assert json.loads(lines[0])["type"] == "header"
            assert "wrote sink.jsonl" in capsys.readouterr().out
            (row,) = [json.loads(line) for line in lines[1:]]
            assert (row["tag"], row["ctx"]) == (command, {"k": 1, "method": "grid"})
            assert row["series"]["health_coverage_fraction"]["v"] == 1.0
            assert row["series"]["decor_placements_total{method=grid}"]["v"] > 0

    def test_pooled_metrics_gauges_match_serial(self, tmp_path, capsys,
                                                monkeypatch):
        """Worker gauges take the last reading in submission order, as a
        serial run does; summing them reported coverage fractions of 8."""
        from repro.cli import main

        monkeypatch.setenv("REPRO_SCALE", "smoke")
        gauges = []
        for extra in ([], ["--workers", "2"]):
            dump = tmp_path / f"metrics{len(gauges)}.json"
            assert main(["figure", "8", "--metrics", str(dump), *extra]) == 0
            OBS.reset()
            gauges.append({
                (name, labels): payload["value"]
                for name, series in json.loads(dump.read_text()).items()
                for labels, payload in series.items()
                if payload["type"] == "gauge"
            })
        capsys.readouterr()
        assert gauges[0][("health_coverage_fraction", "")] == 1.0
        assert gauges[0] == gauges[1]

"""Tests for the observability layer (repro.obs).

The load-bearing guarantee sits in :class:`TestDisabledIsInvisible`: with
``REPRO_OBS`` unset the instrumented placement code produces bit-identical
results to the enabled runs and records nothing.
"""

import json

import numpy as np
import pytest

from repro.core.planner import METHODS, run_method
from repro.errors import ExperimentError, ObservabilityError
from repro.experiments.summary import summarize_trace
from repro.field import FieldModel
from repro.obs import (
    NULL_FLIGHT,
    NULL_SPAN,
    OBS,
    Gauge,
    Histogram,
    MCounter,
    MetricsRegistry,
    ObsRuntime,
    Tracer,
    bridge_field_stats,
    bridge_radio_stats,
)


@pytest.fixture(autouse=True)
def pristine_obs():
    """Every test starts and ends with the global runtime pristine."""
    OBS.reset()
    yield
    OBS.reset()


def run_all_methods(seed: int = 0):
    """One small deployment per method; returns positions keyed by method."""
    rng_pts = np.random.default_rng(seed)
    pts = rng_pts.random((150, 2)) * 25.0
    from repro.geometry import Rect
    from repro.network import SensorSpec

    region = Rect.square(25.0)
    spec = SensorSpec(4.0, 8.0)
    out = {}
    for name in METHODS:
        result = run_method(
            name, pts, spec, 2,
            region=region,
            rng=np.random.default_rng(99),
            cell_size=5.0,
        )
        out[name] = np.array(result.deployment.alive_positions())
    return out


# ----------------------------------------------------------------------
# the invisibility guarantee
# ----------------------------------------------------------------------
class TestDisabledIsInvisible:
    def test_disabled_runs_record_nothing(self):
        assert not OBS.enabled
        run_all_methods()
        assert len(OBS.tracer) == 0
        assert OBS.tracer.n_events == 0
        assert OBS.metrics.as_dict() == {}

    def test_placements_bit_identical_enabled_vs_disabled(self):
        baseline = run_all_methods()
        OBS.enable(fresh=True)
        instrumented = run_all_methods()
        OBS.disable()
        for name in METHODS:
            np.testing.assert_array_equal(
                baseline[name], instrumented[name],
                err_msg=f"instrumentation perturbed method {name!r}",
            )
        # and the enabled run did observe the work
        assert len(OBS.tracer) > 0
        assert OBS.metrics.value("decor_placements_total", method="grid") > 0

    def test_null_objects_are_shared_and_inert(self):
        assert OBS.span("anything", k=1) is NULL_SPAN
        counter = OBS.counter("nope")
        counter.inc(5)
        assert counter.value == 0
        assert OBS.counter("other") is counter
        with OBS.span("outer"):
            pass  # context-manager protocol works while disabled
        OBS.event("ignored", x=1)
        assert len(OBS.tracer) == 0


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_nesting_and_parents(self):
        tracer = Tracer()
        with tracer.span("a") as a:
            with tracer.span("b"):
                tracer.event("tick", n=1)
        records = tracer.records()
        # children close first: event, span b, span a
        assert [r["type"] for r in records] == ["event", "span", "span"]
        b, top = records[1], records[2]
        assert top["name"] == "a" and top["parent"] is None and top["depth"] == 0
        assert b["parent"] == top["id"] and b["depth"] == 1
        assert records[0]["span"] == b["id"]
        assert a.attrs == {}

    def test_ring_buffer_drops_oldest(self):
        tracer = Tracer(capacity=3)
        for i in range(5):
            with tracer.span("s", i=i):
                pass
        assert len(tracer) == 3
        assert tracer.dropped == 2
        assert [r["attrs"]["i"] for r in tracer.records()] == [2, 3, 4]

    def test_out_of_order_close_rejected(self):
        tracer = Tracer()
        a = tracer.span("a")
        b = tracer.span("b")
        a.__enter__()
        b.__enter__()
        with pytest.raises(ObservabilityError):
            a.__exit__(None, None, None)

    def test_error_attr_on_exception(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        (rec,) = tracer.records()
        assert rec["attrs"]["error"] == "ValueError"

    def test_jsonl_roundtrip_scrubs_nonfinite(self, tmp_path):
        tracer = Tracer()
        with tracer.span("s", ratio=float("nan"), n=np.int64(3)):
            pass
        path = tmp_path / "trace.jsonl"
        n = tracer.write_jsonl(path)
        assert n == 1
        (rec,) = [json.loads(line) for line in path.read_text().splitlines()]
        assert rec["attrs"] == {"ratio": "nan", "n": 3}


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_labelled_series_are_distinct(self):
        reg = MetricsRegistry()
        reg.counter("m", method="a").inc()
        reg.counter("m", method="b").inc(2)
        assert reg.value("m", method="a") == 1
        assert reg.value("m", method="b") == 2
        assert reg.counter("m", method="a") is reg.counter("m", method="a")

    def test_counter_rejects_negative(self):
        with pytest.raises(ObservabilityError):
            MetricsRegistry().counter("c").inc(-1)

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("m").inc()
        with pytest.raises(ObservabilityError):
            reg.gauge("m")

    def test_histogram_summary(self):
        h = MetricsRegistry().histogram("h")
        for v in (0.5, 1.5, 200.0):
            h.observe(v)
        d = h.as_dict()
        assert d["count"] == 3 and d["min"] == 0.5 and d["max"] == 200.0
        assert d["sum"] == pytest.approx(202.0)

    def test_as_dict_shape(self):
        reg = MetricsRegistry()
        reg.counter("c", x="1").inc()
        reg.gauge("g").set(2.5)
        d = reg.as_dict()
        assert d["c"]["x=1"] == {"type": "counter", "value": 1}
        assert d["g"][""]["value"] == 2.5
        assert {MCounter.kind, Gauge.kind, Histogram.kind} == {
            "counter", "gauge", "histogram"
        }


# ----------------------------------------------------------------------
# runtime
# ----------------------------------------------------------------------
class TestRuntime:
    def test_enable_disable_reset(self):
        OBS.enable(fresh=True)
        with OBS.span("s"):
            OBS.counter("c").inc()
        OBS.disable()
        assert not OBS.enabled
        assert len(OBS.tracer) == 1  # records survive disable for export
        OBS.reset()
        assert len(OBS.tracer) == 0 and OBS.metrics.as_dict() == {}

    def test_span_totals_record_only_when_enabled(self):
        runtime = ObsRuntime()
        with runtime.span("site.test"):
            pass
        assert runtime.tracer.span_stats == {}
        runtime.enable()
        with runtime.span("site.test"):
            pass
        assert runtime.tracer.span_stats["site.test"].count == 1
        assert runtime.tracer.total("site.test") > 0.0
        assert runtime.tracer.total("never.opened") == 0.0


# ----------------------------------------------------------------------
# bridges
# ----------------------------------------------------------------------
class TestBridges:
    def test_field_stats_bridged_as_delta(self):
        fm = FieldModel(np.random.default_rng(0).random((50, 2)) * 10.0)
        fm.adjacency(2.0)  # pre-enable work must not be counted
        OBS.enable(fresh=True)
        snap = fm.stats.snapshot()
        fm.adjacency(2.0)  # hit
        fm.adjacency(3.0)  # build
        bridge_field_stats(fm, since=snap)
        assert OBS.metrics.value("field_model_builds_total", kind="adjacency") == 1
        assert OBS.metrics.value("field_model_hits_total", kind="adjacency") == 1

    def test_radio_stats_bridged(self):
        class FakeStats:
            def total_sent(self):
                return 7

            def total_received(self):
                return 5

            def total_dropped(self):
                return 2

        OBS.enable(fresh=True)
        bridge_radio_stats(FakeStats(), protocol="test")
        assert OBS.metrics.value(
            "radio_messages_sent_total", protocol="test"
        ) == 7
        assert OBS.metrics.value(
            "radio_messages_dropped_total", protocol="test"
        ) == 2


# ----------------------------------------------------------------------
# trace digests
# ----------------------------------------------------------------------
class TestSummarizeTrace:
    def test_from_tracer_and_path_agree(self, tmp_path):
        OBS.enable(fresh=True)
        with OBS.span("outer"):
            with OBS.span("inner"):
                OBS.event("hit")
            with OBS.span("inner"):
                pass
        OBS.disable()
        live = summarize_trace(OBS.tracer)
        path = tmp_path / "t.jsonl"
        OBS.tracer.write_jsonl(path)
        loaded = summarize_trace(path)
        for s in (live, loaded):
            assert s.spans["inner"].count == 2
            assert s.spans["outer"].count == 1
            assert s.events == {"hit": 1}
            assert s.max_depth == 1
        assert "inner" in live.format() and "event hit: 1" in live.format()

    def test_unknown_record_type_rejected(self):
        with pytest.raises(ExperimentError):
            summarize_trace([{"type": "mystery"}])

    def test_totals_count_spans_the_ring_evicted(self):
        tracer = Tracer(capacity=2)
        for _ in range(5):
            with tracer.span("epoch"):
                with tracer.span("repair"):
                    pass
        assert len(tracer) == 2 and tracer.dropped == 8
        assert tracer.span_stats["epoch"].count == 5
        assert tracer.span_stats["repair"].count == 5
        assert tracer.total("epoch") >= tracer.total("repair") > 0.0
        summary = summarize_trace(tracer)
        assert summary.spans["epoch"].count == 5
        assert summary.spans["repair"].total == tracer.total("repair")
        text = summary.format()
        assert "10 spans" in text and "8 dropped" in text
        row = next(line for line in text.splitlines() if "epoch" in line)
        assert row.split()[1] == "5"


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCliExport:
    def test_figure_trace_and_metrics(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_SCALE", "smoke")
        trace = tmp_path / "t.jsonl"
        metrics = tmp_path / "m.json"
        code = main([
            "figure", "8", "--seeds", "1",
            "--trace", str(trace), "--metrics", str(metrics),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Trace summary:" in out
        assert not OBS.enabled  # the CLI turns the runtime back off

        records = [json.loads(line) for line in trace.read_text().splitlines()]
        spans = {r["id"]: r for r in records if r["type"] == "span"}
        names = {r["name"] for r in spans.values()}
        assert {"figure", "series", "k", "placement"} <= names
        # every placement span chains figure -> series -> k -> placement
        for r in spans.values():
            if r["name"] != "placement":
                continue
            chain = [r["name"]]
            cur = r
            while cur["parent"] is not None:
                cur = spans[cur["parent"]]
                chain.append(cur["name"])
            assert chain == ["placement", "k", "series", "figure"]

        dump = json.loads(metrics.read_text())
        assert "field_model_builds_total" in dump
        assert "decor_placements_total" in dump
        assert "decor_messages_total" in dump

    def test_deploy_exports(self, tmp_path, capsys):
        from repro.cli import main

        metrics = tmp_path / "m.json"
        code = main([
            "deploy", "--k", "1", "--method", "grid", "--side", "20",
            "--points", "100", "--metrics", str(metrics),
        ])
        assert code == 0
        dump = json.loads(metrics.read_text())
        assert "decor_placements_total" in dump
        assert "field_model_builds_total" in dump


# ----------------------------------------------------------------------
# protocol instrumentation
# ----------------------------------------------------------------------
class TestProtocolCounters:
    def test_grid_protocol_bridges_radio(self):
        from repro.core.protocols import run_grid_protocol
        from repro.geometry import Rect
        from repro.network import SensorSpec

        pts = np.random.default_rng(3).random((80, 2)) * 20.0
        OBS.enable(fresh=True)
        run_grid_protocol(pts, SensorSpec(4.0, 8.0), 1, Rect.square(20.0), 5.0)
        OBS.disable()
        dump = OBS.metrics.as_dict()
        assert "radio_messages_sent_total" in dump
        assert OBS.metrics.value(
            "radio_messages_sent_total", protocol="grid"
        ) > 0
        names = {r["name"] for r in OBS.tracer.records() if r["type"] == "span"}
        assert "protocol" in names

    def test_restoration_protocol_records_health(self):
        """A recorded in-network restoration sets the liveness gauge from
        its surviving heartbeat nodes."""
        from repro.obs.replay import _run_protocol_scenario

        OBS.enable(fresh=True)
        _run_protocol_scenario({"protocol": "restoration", "n_points": 60})
        OBS.disable()
        assert "health_suspected_nodes" in OBS.metrics.as_dict()
        assert OBS.metrics.value("radio_messages_sent_total", protocol="restoration") > 0


# ----------------------------------------------------------------------
# cross-process aggregation (the repro.parallel seam)
# ----------------------------------------------------------------------
class TestMetricsAggregation:
    def test_dump_absorb_roundtrip(self):
        worker = MetricsRegistry()
        worker.counter("decor_placements_total", method="grid").inc(7)
        worker.gauge("open_spans").set(2.0)
        worker.histogram("greedy_round_benefit").observe(1.5)
        worker.histogram("greedy_round_benefit").observe(64.0)

        parent = MetricsRegistry()
        parent.counter("decor_placements_total", method="grid").inc(3)
        parent.absorb(worker.dump_state())
        assert parent.value("decor_placements_total", method="grid") == 10
        assert parent.value("open_spans") == 2.0
        hist = parent.histogram("greedy_round_benefit")
        assert (hist.count, hist.min, hist.max) == (2, 1.5, 64.0)

    def test_absorb_from_two_workers_is_order_independent(self):
        def worker(n):
            reg = MetricsRegistry()
            reg.counter("x_total").inc(n)
            reg.histogram("h").observe(float(n))
            return reg.dump_state()

        ab, ba = MetricsRegistry(), MetricsRegistry()
        ab.absorb(worker(1)); ab.absorb(worker(2))
        ba.absorb(worker(2)); ba.absorb(worker(1))
        assert ab.as_dict() == ba.as_dict()

    def test_dump_state_is_json_safe(self):
        reg = MetricsRegistry()
        reg.counter("x_total", kind="a").inc()
        reg.histogram("h").observe(3.0)
        json.dumps(reg.dump_state())  # picklable AND serialisable

    def test_histogram_bucket_mismatch_rejected(self):
        a, b = Histogram(), Histogram()
        state = b.state()
        state["buckets"] = state["buckets"][:-1]
        with pytest.raises(ObservabilityError):
            a.combine(state)


class TestTracerAbsorb:
    def test_graft_remaps_ids_and_depths(self):
        worker = Tracer()
        with worker.span("series", series="grid-small"):
            with worker.span("k", k=1):
                worker.event("placement", point=3)

        parent = Tracer()
        with parent.span("figure", figure="fig08"):
            with parent.span("prefill"):
                n = parent.absorb(worker.records())
        assert n == 3
        recs = {r["name"]: r for r in parent.records()}
        prefill, series, k = recs["prefill"], recs["series"], recs["k"]
        assert series["parent"] == prefill["id"]
        assert k["parent"] == series["id"]
        assert recs["placement"]["span"] == k["id"]
        assert (series["depth"], k["depth"]) == (2, 3)
        span_ids = [r["id"] for r in parent.records() if r["type"] == "span"]
        assert len(span_ids) == len(set(span_ids))
        assert parent.n_spans == 4 and parent.n_events == 1

    def test_absorb_outside_any_span_grafts_to_root(self):
        worker = Tracer()
        with worker.span("cell"):
            pass
        parent = Tracer()
        parent.absorb(worker.records())
        rec = parent.records()[0]
        assert rec["parent"] is None and rec["depth"] == 0

    def test_absorb_accumulates_dropped(self):
        parent = Tracer()
        parent.absorb([], dropped=5)
        assert parent.dropped == 5

    def test_absorb_tracer_instance_propagates_overflow(self):
        # a worker whose ring buffer overflowed must not look complete
        # after merging: its eviction count carries over automatically
        worker = Tracer(capacity=2)
        for i in range(5):
            worker.event("tick", i=i)
        assert worker.dropped == 3

        parent = Tracer()
        n = parent.absorb(worker)
        assert n == 2
        assert parent.dropped == 3
        # explicit dropped= still adds on top (the bridge payload path)
        parent.absorb(worker, dropped=4)
        assert parent.dropped == 3 + 3 + 4

    def test_absorb_self_rejected(self):
        tracer = Tracer()
        with pytest.raises(ObservabilityError):
            tracer.absorb(tracer)


class TestWorkerCapture:
    def test_capture_and_merge(self):
        from repro.obs import capture_worker_obs, merge_worker_obs

        with capture_worker_obs(False) as cap:
            with OBS.span("series", series="random"):
                if OBS.enabled:
                    OBS.counter("decor_placements_total", method="random").inc(4)
        assert not OBS.enabled
        payload = cap.payload()
        assert payload is not None

        OBS.enable(fresh=True)
        with OBS.span("prefill"):
            merge_worker_obs(payload)
        OBS.disable()
        assert OBS.metrics.value(
            "decor_placements_total", method="random"
        ) == 4
        names = {r["name"] for r in OBS.tracer.records() if r["type"] == "span"}
        assert {"series", "prefill"} <= names

    def test_merge_counts_spans_the_worker_ring_evicted(self):
        from repro.obs import capture_worker_obs, merge_worker_obs

        with capture_worker_obs(False) as cap:
            OBS.tracer = Tracer(capacity=1)
            for _ in range(3):
                with OBS.span("cell"):
                    pass
            worker_total = OBS.tracer.total("cell")
        payload = cap.payload()
        assert len(payload["trace"]) == 1 and payload["dropped"] == 2

        OBS.enable(fresh=True)
        merge_worker_obs(payload)
        stats = OBS.tracer.span_stats["cell"]
        assert stats.count == 3
        assert stats.total == pytest.approx(worker_total)
        assert OBS.tracer.dropped == 2 and OBS.tracer.n_spans == 1

    def test_one_payload_carries_the_flight_log(self):
        from repro.obs import capture_worker_obs, merge_worker_obs

        def work():
            with OBS.run("grid_decor", k=1):
                if OBS.enabled:
                    OBS.flight.emit("placement", 0, t=1.0, point=3)

        # a worker keeps a flight log only if its parent does
        assert OBS.recording() is None
        OBS.enable(fresh=True)
        with capture_worker_obs(OBS.recording()) as cap:
            work()
        assert cap.payload()["records"] == []
        OBS.enable(fresh=True, flight=True)
        with capture_worker_obs(OBS.recording()) as cap:
            work()
        payload = cap.payload()
        assert [r["type"] for r in payload["records"]] == ["begin", "event", "end"]

        OBS.enable(fresh=True)  # a parent that keeps no flight log
        merge_worker_obs(payload)
        assert OBS.flight is NULL_FLIGHT
        OBS.enable(fresh=True, flight=True)
        merge_worker_obs(payload)
        merge_worker_obs(payload)
        assert [r["run"] for r in OBS.flight.records() if r["type"] == "begin"] == [1, 2]

    def test_disabled_capture_is_inert(self):
        from repro.obs import capture_worker_obs, merge_worker_obs

        with capture_worker_obs(None) as cap:
            pass
        assert cap.payload() is None
        merge_worker_obs(None)  # no-op
        assert len(OBS.metrics) == 0

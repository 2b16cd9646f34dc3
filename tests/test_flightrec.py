"""Tests for the protocol flight recorder, replay verification, analyzers
and the swim-lane timeline renderer.

The headline contract: a recording is a pure function of the scenario —
two runs or a serial-vs-workers sweep both produce byte-identical JSONL —
and `repro.obs.replay` can re-execute a recorded stream and prove the
reproduction byte-for-byte.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import (
    convergence_times,
    election_churn,
    energy_timeline,
    message_breakdown,
    split_runs,
)
from repro.errors import ConfigurationError, ObservabilityError
from repro.obs import NULL_FLIGHT, NULL_SPAN, OBS, FlightRecorder
from repro.obs.replay import (
    load_stream,
    record_protocol_run,
    replay_stream,
    validate_stream,
    verify_stream,
)
from repro.viz import svg_timeline

PROTOCOLS = ("grid", "voronoi", "restoration")


@pytest.fixture(autouse=True)
def pristine_obs():
    OBS.reset()
    yield
    OBS.reset()


def _demo_run(rec: FlightRecorder) -> None:
    """One tiny run block: send -> deliver -> caused placement."""
    with rec.run("demo", k=1):
        sid = rec.emit_send(0, t=0.0, msg="HELLO")
        did = rec.emit_deliver(1, sid, t=0.5, msg="HELLO")
        rec.set_cause(did)
        rec.emit("placement", 1, t=0.5, point=7)


# ----------------------------------------------------------------------
# recorder semantics
# ----------------------------------------------------------------------
class TestRecorder:
    def test_disabled_is_inert(self):
        from repro.obs.replay import _run_protocol_scenario

        assert not OBS.enabled and OBS.flight is NULL_FLIGHT
        # run() is the shared null span while disabled
        assert OBS.run("a") is OBS.run("b") is NULL_SPAN
        # a fully instrumented protocol run records nothing, and neither
        # does a recording that asked for no flight log
        _run_protocol_scenario({"protocol": "grid", "n_points": 60})
        OBS.enable(fresh=True)
        _run_protocol_scenario({"protocol": "grid", "n_points": 60})
        assert OBS.run("a") is NULL_SPAN
        assert OBS.flight is NULL_FLIGHT and OBS.flight.records() == []
        assert OBS.tracer.n_spans > 0  # the other pillars did record

    def test_flight_log_needs_a_fresh_recording(self):
        with pytest.raises(ObservabilityError):
            OBS.enable(flight=True)
        with pytest.raises(ObservabilityError):
            NULL_FLIGHT.set_header("protocol", {})

    def test_run_block_shape(self):
        rec = FlightRecorder()
        _demo_run(rec)
        types = [r["type"] for r in rec.records()]
        assert types == ["begin", "event", "event", "event", "end"]
        begin, end = rec.records()[0], rec.records()[-1]
        assert begin["run"] == end["run"] == 1
        assert begin["protocol"] == "demo" and begin["attrs"] == {"k": 1}
        assert end["events"] == 3

    def test_causal_context_and_lamport(self):
        rec = FlightRecorder()
        _demo_run(rec)
        send, deliver, placement = [
            r for r in rec.records() if r["type"] == "event"
        ]
        assert send["cause"] is None and send["lamport"] == 1
        # delivery is caused by the send and merges the sender's clock
        assert deliver["cause"] == send["id"]
        assert deliver["lamport"] == 2
        # the placement emitted while handling the delivery inherits it
        assert placement["cause"] == deliver["id"]
        assert placement["lamport"] == 3

    def test_clear_cause_stops_inheritance(self):
        rec = FlightRecorder()
        with rec.run("demo"):
            eid = rec.emit("start", 0, t=0.0)
            rec.set_cause(eid)
            rec.clear_cause()
            spont = rec.emit("placement", 0, t=1.0)
        assert rec.records()[2]["cause"] is None and spont == 1

    def test_run_local_state_resets_between_blocks(self):
        rec = FlightRecorder()
        _demo_run(rec)
        _demo_run(rec)
        runs = split_runs(rec.records())
        assert [r["run"] for r in runs] == [1, 2]
        # ids, seq and Lamport clocks are run-local: block 2 == block 1
        strip = lambda ev: {k: v for k, v in ev.items() if k != "seq"}
        assert list(map(strip, runs[0]["events"])) == list(
            map(strip, runs[1]["events"])
        )

    def test_reentrant_run_passes_through(self):
        rec = FlightRecorder()
        with rec.run("outer") as outer:
            with rec.run("inner"):  # no second begin/end
                rec.emit("start", 0, t=0.0)
            outer.set(placed=1)
        types = [r["type"] for r in rec.records()]
        assert types == ["begin", "event", "end"]
        assert rec.records()[0]["protocol"] == "outer"
        assert rec.records()[-1]["attrs"] == {"placed": 1}

    def test_nested_begin_run_rejected(self):
        rec = FlightRecorder()
        rec.begin_run("a")
        with pytest.raises(ObservabilityError):
            rec.begin_run("b")

    def test_header_must_be_first(self):
        rec = FlightRecorder()
        rec.begin_run("a")
        rec.end_run()
        with pytest.raises(ObservabilityError):
            rec.set_header("protocol", {"seed": 0})

    def test_absorb_renumbers_runs_and_drops_worker_header(self):
        parent = FlightRecorder()
        _demo_run(parent)

        worker = FlightRecorder()
        worker.set_header("protocol", {"seed": 1})
        _demo_run(worker)
        _demo_run(worker)

        n = parent.absorb(worker.records())
        assert n == 10  # 2 blocks x 5 records, header dropped
        runs = [r["run"] for r in parent.records() if r["type"] == "begin"]
        assert runs == [1, 2, 3]
        assert all(r["type"] != "header" for r in parent.records())

    def test_absorb_mid_block_rejected(self):
        rec = FlightRecorder()
        rec.begin_run("open")
        with pytest.raises(ObservabilityError):
            rec.absorb([])

    @pytest.mark.parametrize("enabled", [False, True])
    def test_recording_puts_the_switch_back(self, enabled):
        if enabled:
            OBS.enable()
        records = record_protocol_run("grid", n_points=60)
        assert OBS.enabled is enabled
        assert records[0]["type"] == "header" and len(records) > 2
        # the flight log ends with the recording that asked for it
        assert OBS.flight is NULL_FLIGHT
        assert OBS.recording() is (False if enabled else None)

    def test_jsonl_roundtrip(self, tmp_path):
        rec = FlightRecorder()
        _demo_run(rec)
        path = tmp_path / "rec.jsonl"
        assert rec.write_jsonl(path) == 5
        assert load_stream(path) == rec.records()


# ----------------------------------------------------------------------
# determinism of real protocol recordings
# ----------------------------------------------------------------------
class TestDeterminism:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_two_runs_byte_identical(self, protocol):
        a = record_protocol_run(protocol, n_points=60)
        b = record_protocol_run(protocol, n_points=60)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert any(r["type"] == "event" for r in a)

    def test_recorded_runner_writes_stream(self, tmp_path):
        import numpy as np

        from repro.core.grid_decor import grid_decor
        from repro.core.restoration_protocol import run_restoration_protocol
        from repro.network.spec import SensorSpec
        from repro.obs.replay import _scenario_field

        pts, region = _scenario_field({"seed": 0, "n_points": 60, "side": 20.0})
        spec = SensorSpec(sensing_radius=5.0, communication_radius=15.0)
        deployed = grid_decor(pts, spec, 1, region, 10.0)
        positions = deployed.deployment.alive_positions()

        path = tmp_path / "restore.jsonl"
        OBS.enable(fresh=True, flight=True)
        run_restoration_protocol(
            pts, spec, 1, region, 10.0,
            positions, np.arange(2),
            seed=0,
        )
        OBS.disable()
        OBS.flight.write_jsonl(path)
        records = load_stream(path)
        validate_stream(records)
        kinds = {r["kind"] for r in records if r["type"] == "event"}
        assert {"crash", "fail", "send", "deliver"} <= kinds
        # the recording's other pillars saw the same run
        assert "health_suspected_nodes" in OBS.metrics.as_dict()

    def test_serial_vs_workers_merged_stream_identical(self):
        from repro.experiments.runner import DeploymentCache
        from repro.experiments.setup import ExperimentSetup
        from repro.parallel import prefill_cache

        setup = ExperimentSetup(
            field_side=25.0, n_points=120, n_initial=0, n_seeds=2,
            k_values=(1,),
        )
        cells = [
            ("grid-small", 1, 0),
            ("voronoi-small", 1, 0),
            ("grid-small", 1, 1),
            ("voronoi-small", 1, 1),
        ]

        OBS.enable(fresh=True, flight=True)
        prefill_cache(DeploymentCache(setup), cells)
        serial = OBS.flight.to_jsonl()

        OBS.enable(fresh=True, flight=True)
        prefill_cache(DeploymentCache(setup), cells, workers=2)
        parallel = OBS.flight.to_jsonl()

        assert serial == parallel
        assert OBS.flight.n_runs == len(cells)


# ----------------------------------------------------------------------
# replay: validation and byte-identical reproduction
# ----------------------------------------------------------------------
class TestReplay:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_verify_reproduces_byte_identically(self, protocol):
        records = record_protocol_run(protocol, n_points=60)
        report = verify_stream(records)
        assert report.matches, report.detail
        assert report.n_replayed == len(records)
        assert report.first_divergence is None

    def test_validate_reports_stream_stats(self):
        records = record_protocol_run("grid", n_points=60)
        stats = validate_stream(records)
        assert stats["has_header"] and stats["n_runs"] == 1
        assert stats["n_records"] == len(records)
        assert stats["kinds"]["send"] > 0

    def test_corrupted_lamport_rejected(self):
        records = record_protocol_run("grid", n_points=60)
        for rec in records:
            if rec["type"] == "event":
                rec["lamport"] += 1
                break
        with pytest.raises(ObservabilityError, match="lamport"):
            validate_stream(records)

    def test_dangling_cause_rejected(self):
        records = record_protocol_run("grid", n_points=60)
        events = [r for r in records if r["type"] == "event"]
        events[-1]["cause"] = events[-1]["id"] + 99
        with pytest.raises(ObservabilityError):
            validate_stream(records)

    def test_tampered_attr_reported_as_divergence(self):
        records = record_protocol_run("grid", n_points=60)
        for i, rec in enumerate(records):
            if rec["type"] == "event" and rec["kind"] == "placement":
                rec["attrs"]["point"] = -1
                expected = i
                break
        validate_stream(records)  # still schema-valid ...
        report = verify_stream(records)  # ... but not reproducible
        assert not report.matches
        assert report.first_divergence == expected

    def test_headerless_stream_cannot_replay(self):
        rec = FlightRecorder()
        _demo_run(rec)
        with pytest.raises(ObservabilityError):
            replay_stream(rec.records())

    def test_unknown_scenario_parameter_rejected(self):
        with pytest.raises(ObservabilityError):
            record_protocol_run("grid", bogus=3)

    def test_load_stream_names_bad_line(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"type": "begin", "run": 1}\nnot json\n')
        with pytest.raises(ObservabilityError, match=":2:"):
            load_stream(path)


# ----------------------------------------------------------------------
# analyzers and timeline over a real restoration recording
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def restoration_records():
    return record_protocol_run("restoration", n_points=60)


class TestAnalyzers:
    def test_split_runs_framing(self, restoration_records):
        # the scenario records the grid_decor deployment, then the repair
        runs = split_runs(restoration_records)
        assert [r["protocol"] for r in runs] == ["grid_decor", "restoration"]
        assert [r["run"] for r in runs] == [1, 2]
        restoration = runs[-1]
        assert restoration["end"]["restored"] is True
        assert len(restoration["events"]) > 0

    def test_split_runs_rejects_orphan_event(self):
        with pytest.raises(ObservabilityError):
            split_runs([
                {"type": "event", "seq": 0, "id": 0, "t": 0.0, "node": 1,
                 "kind": "start", "cause": None, "lamport": 1, "attrs": {}},
            ])

    def test_message_breakdown(self, restoration_records):
        down = message_breakdown(restoration_records)[-1]
        assert down["protocol"] == "restoration"
        assert "HEARTBEAT" in down["kinds"]
        for counts in down["kinds"].values():
            # one broadcast send delivers to many receivers
            assert counts["sent"] > 0 and counts["delivered"] >= 0
        # the analytic grid_decor block carries message-count attrs instead
        assert message_breakdown(restoration_records)[0]["analytic_messages"] > 0

    def test_convergence_times(self, restoration_records):
        conv = convergence_times(restoration_records)[-1]
        assert conv["crash_t"] is not None
        assert conv["restored_t"] > conv["crash_t"]
        assert conv["quiescence_t"] >= conv["restored_t"]
        assert convergence_times(restoration_records)[0]["n_placements"] > 0

    def test_election_churn(self):
        # the restoration protocol pins leaders; drive the §3.1 rotating
        # election directly to exercise the `elected` analyzer
        from repro.sim import CellElectionNode, ElectionConfig, Radio, Simulator

        OBS.enable(fresh=True, flight=True)
        with OBS.run("election"):
            sim = Simulator()
            radio = Radio(sim, rc=50.0)
            config = ElectionConfig(rotation_period=5.0, settle_delay=0.1)
            nodes = [
                CellElectionNode(i, sim, radio, [float(i), 0.0], 0, config)
                for i in range(4)
            ]
            for node in nodes:
                node.start(delay=0.001 * node.node_id)
            sim.run(until=30.0)

        churn = election_churn(OBS.flight.records())[0]
        cell = churn["cells"][0]
        assert cell["rounds"] >= 2
        assert cell["distinct_leaders"] >= 2  # rotation actually rotates
        assert cell["rounds"] >= cell["changes"] == churn["total_changes"] >= 1

    def test_energy_timeline(self, restoration_records):
        timeline = energy_timeline(restoration_records, n_bins=16)[-1]
        totals = timeline["total"]
        assert len(totals) == 16
        assert all(b >= a for a, b in zip(totals, totals[1:]))
        assert timeline["imbalance"] >= 1.0
        assert sum(timeline["per_node"].values()) == pytest.approx(totals[-1])


class TestTimeline:
    def test_svg_structure(self, restoration_records):
        svg = svg_timeline(restoration_records, title="restoration run")
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "restoration run" in svg
        assert "squares=placements" in svg  # legend present

    def test_missing_run_rejected(self, restoration_records):
        with pytest.raises(ConfigurationError):
            svg_timeline(restoration_records, run=99)

    def test_too_narrow_rejected(self, restoration_records):
        with pytest.raises(ConfigurationError):
            svg_timeline(restoration_records, width=100)

    def test_saveable(self, tmp_path, restoration_records):
        from repro.viz.svg_field import save_svg

        path = tmp_path / "timeline.svg"
        save_svg(path, svg_timeline(restoration_records))
        assert path.read_text().startswith("<svg")


# ----------------------------------------------------------------------
# CLI round trip
# ----------------------------------------------------------------------
class TestCli:
    def test_deploy_record_then_replay(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "deploy.jsonl"
        code = main([
            "deploy", "--k", "1", "--method", "grid", "--side", "20",
            "--points", "100", "--flight-record", str(path),
        ])
        assert code == 0 and not OBS.enabled
        out = capsys.readouterr().out
        assert "flight records" in out

        records = load_stream(path)
        header = records[0]
        assert header["type"] == "header" and header["entry"] == "cli"
        # the recording flag itself is stripped from the replayable argv
        assert "--flight-record" not in header["params"]["argv"]

        svg = tmp_path / "deploy.svg"
        code = main(["replay", str(path), "--timeline", str(svg)])
        out = capsys.readouterr().out
        assert code == 0
        assert "reproduced byte-identically" in out
        assert svg.read_text().startswith("<svg")

    def test_replay_reports_mismatch(self, tmp_path, capsys):
        from repro.cli import main

        records = record_protocol_run("grid", n_points=60)
        for rec in records:
            if rec["type"] == "event" and rec["kind"] == "placement":
                rec["attrs"]["benefit"] = 0.0
                break
        path = tmp_path / "tampered.jsonl"
        path.write_text(
            "\n".join(
                json.dumps(r, sort_keys=True, allow_nan=False)
                for r in records
            )
            + "\n"
        )
        code = main(["replay", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "MISMATCH" in captured.err

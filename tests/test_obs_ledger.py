"""Tests for the run ledger: determinism contract, store, diff.

The load-bearing guarantee is the masked-row byte identity: two ledger
rows from the same config — one serial, one through a 2-worker pool —
must serialize identically once :func:`~repro.obs.ledger.mask_row`
strips identity/timing/environment.  Everything else (diff cleanliness,
fingerprint grouping, the ``runs diff --exit-code`` gate) builds on that.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ObservabilityError
from repro.obs import OBS, MetricsRegistry, MetricsSampler
from repro.obs.ledger import (
    HARVEST_EXCLUDED_PREFIXES,
    LedgerStore,
    build_row,
    capture_environment,
    config_fingerprint,
    diff_is_clean,
    diff_rows,
    harvest,
    mask_row,
    render_diff,
    sections_from_sample_rows,
)


@pytest.fixture(autouse=True)
def pristine_runtimes():
    OBS.reset()
    yield
    OBS.reset()


def _masked_json(row):
    return json.dumps(mask_row(row), sort_keys=True)


# ----------------------------------------------------------------------
# row construction
# ----------------------------------------------------------------------
class TestRowConstruction:
    def test_fingerprint_is_order_insensitive(self):
        a = config_fingerprint({"k": 3, "method": "grid"})
        b = config_fingerprint({"method": "grid", "k": 3})
        assert a == b

    def test_fingerprint_distinguishes_configs(self):
        a = config_fingerprint({"k": 3})
        b = config_fingerprint({"k": 4})
        assert a != b

    def test_run_id_prefixed_by_fingerprint(self):
        config = {"k": 2}
        row = build_row("deploy", "d", config)
        assert row["run_id"].startswith(config_fingerprint(config)[:12])

    def test_artifacts_keep_basename_only(self, tmp_path):
        art = tmp_path / "deep" / "fig.json"
        art.parent.mkdir()
        art.write_text("{}", encoding="utf-8")
        row = build_row("figure", "f", {}, artifacts={"figure_json": str(art)})
        meta = row["artifacts"]["figure_json"]
        assert meta["file"] == "fig.json"
        assert len(meta["sha256"]) == 64

    def test_missing_artifact_digests_null(self, tmp_path):
        row = build_row(
            "figure", "f", {},
            artifacts={"x": str(tmp_path / "nope.json")},
        )
        assert row["artifacts"]["x"]["sha256"] is None

    def test_mask_strips_identity_timing_env(self):
        row = build_row("deploy", "d", {"k": 1}, wall={"deploy": 0.5})
        masked = mask_row(row)
        for field in ("run_id", "ts", "env", "wall"):
            assert field not in masked
        assert masked["config"] == {"k": 1}

    def test_environment_capture_shape(self):
        env = capture_environment(workers=4)
        assert env["workers"] == 4
        assert "python" in env and "repro_env" in env


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------
class TestLedgerStore:
    def test_append_and_iter_roundtrip(self, tmp_path):
        store = LedgerStore(tmp_path / "ledger")
        for k in (1, 2, 3):
            store.append(build_row("deploy", f"d{k}", {"k": k}))
        rows = store.rows()
        assert [r["label"] for r in rows] == ["d1", "d2", "d3"]

    def test_segment_rollover(self, tmp_path):
        store = LedgerStore(tmp_path / "ledger", segment_max_rows=2)
        for k in range(5):
            store.append(build_row("deploy", f"d{k}", {"k": k}))
        assert len(store.segments()) == 3
        assert len(store.rows()) == 5

    def test_concurrent_appends_lose_and_tear_no_row(self, tmp_path):
        """Two processes append to one store at once.  ``LedgerStore``
        takes no lock: each row reaches its segment in one ``write`` to
        an ``O_APPEND`` file, so no row is lost, torn or interleaved (a
        segment may overshoot ``segment_max_rows``; see
        ``docs/observability.md``)."""
        root, go = tmp_path / "ledger", tmp_path / "go"
        script = tmp_path / "writer.py"
        script.write_text(
            "import os, sys, time\n"
            "from repro.obs.ledger import LedgerStore, build_row\n"
            "root, go, writer = sys.argv[1:]\n"
            "store = LedgerStore(root, segment_max_rows=16)\n"
            "pad = 'x' * 20_000\n"
            "while not os.path.exists(go):\n"
            "    time.sleep(0.001)\n"
            "for i in range(300):\n"
            "    store.append(build_row(\n"
            "        'bench', 'concurrent', {'writer': writer, 'i': i, 'pad': pad}\n"
            "    ))\n",
            encoding="utf-8",
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        writers = [
            subprocess.Popen(
                [sys.executable, str(script), str(root), str(go), name],
                env=env, stderr=subprocess.PIPE, text=True,
            )
            for name in ("a", "b")
        ]
        go.touch()
        for proc in writers:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = LedgerStore(root).rows()
        seen = Counter((r["config"]["writer"], r["config"]["i"]) for r in rows)
        assert seen == Counter({(w, i): 1 for w in "ab" for i in range(300)})
        assert all(len(r["config"]["pad"]) == 20_000 for r in rows)

    def test_corrupt_line_skipped_with_warning(self, tmp_path):
        store = LedgerStore(tmp_path / "ledger")
        store.append(build_row("deploy", "good", {}))
        segment = store.segments()[0]
        with open(segment, "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
            fh.write('"a bare string"\n')
        store.append(build_row("deploy", "also-good", {}))
        with pytest.warns(UserWarning, match="corrupt ledger"):
            rows = store.rows()
        assert [r["label"] for r in rows] == ["good", "also-good"]

    def test_resolve_latest_and_offset(self, tmp_path):
        store = LedgerStore(tmp_path / "ledger")
        for k in (1, 2):
            store.append(build_row("deploy", f"d{k}", {"k": k}))
        assert store.resolve("latest")["label"] == "d2"
        assert store.resolve("latest~1")["label"] == "d1"

    def test_resolve_prefix_and_errors(self, tmp_path):
        store = LedgerStore(tmp_path / "ledger")
        row = build_row("deploy", "d", {"k": 1})
        store.append(row)
        assert store.resolve(row["run_id"][:8])["label"] == "d"
        with pytest.raises(ObservabilityError, match="no run matches"):
            store.resolve("zzzzzz")
        with pytest.raises(ObservabilityError, match="only 1 runs"):
            store.resolve("latest~1")

    def test_resolve_empty_ledger(self, tmp_path):
        with pytest.raises(ObservabilityError, match="empty"):
            LedgerStore(tmp_path / "ledger").resolve("latest")


# ----------------------------------------------------------------------
# harvest
# ----------------------------------------------------------------------
class TestHarvest:
    def test_sections_fold_sample_rows(self):
        rows = [
            {"type": "header"},
            {"type": "sample", "series": {
                "c{a=1}": {"k": "counter", "v": 2},
                "g": {"k": "gauge", "v": 0.5},
                "h": {"k": "histogram", "count": 1, "sum": 0.25},
            }},
            {"type": "sample", "series": {
                "c{a=1}": {"k": "counter", "v": 3},
                "g": {"k": "gauge", "v": 0.75},
                "h": {"k": "histogram", "count": 2, "sum": 0.5},
            }},
        ]
        sections = sections_from_sample_rows(rows)
        assert sections["counters"] == {"c{a=1}": 5}
        assert sections["gauges"] == {"g": 0.75}
        assert sections["histograms"] == {"h": {"count": 3, "sum": 0.75}}

    def test_exclude_prefixes(self):
        rows = [{"type": "sample", "series": {
            "keep_total": {"k": "counter", "v": 1},
            "drop_total": {"k": "counter", "v": 1},
        }}]
        sections = sections_from_sample_rows(rows, exclude=("drop_",))
        assert list(sections["counters"]) == ["keep_total"]

    def test_harvest_survives_sampler_eviction(self):
        # the harvest reads the registry, so it covers rows the sampler's
        # ring evicted and series touched after the last row
        reg = MetricsRegistry()
        s = MetricsSampler(reg, capacity=3)
        for i in range(5):
            reg.counter("a_total").inc(i + 1)
            reg.gauge("g").set(float(i))
            reg.histogram("h").observe(float(i))
            s.sample("t", i=i)
        reg.counter("a_total").inc(10)
        assert s.dropped == 2
        sections = harvest(reg)
        assert sections["counters"] == {"a_total": 25}
        assert sections["gauges"] == {"g": 4.0}
        assert sections["histograms"] == {"h": {"count": 5, "sum": 10.0}}


# ----------------------------------------------------------------------
# diff
# ----------------------------------------------------------------------
class TestDiff:
    def test_identical_rows_diff_clean(self):
        metrics = {
            "counters": {"decor_placements_total": 5},
            "gauges": {}, "histograms": {},
        }
        a = build_row("figure", "f", {"k": 1}, metrics=metrics,
                      wall={"figure": 0.5})
        b = build_row("figure", "f", {"k": 1}, metrics=metrics,
                      wall={"figure": 0.9})
        diff = diff_rows(a, b)
        assert diff["fingerprint_match"]
        assert diff_is_clean(diff)
        assert "identical" in render_diff(diff)
        # wall differences are informational, never semantic
        assert diff["informational"]["wall"]["figure"] == (0.5, 0.9)

    def test_counter_drift_is_semantic(self):
        a = build_row("figure", "f", {"k": 1}, metrics={
            "counters": {"c": 5}, "gauges": {}, "histograms": {}})
        b = build_row("figure", "f", {"k": 1}, metrics={
            "counters": {"c": 6}, "gauges": {}, "histograms": {}})
        diff = diff_rows(a, b)
        assert not diff_is_clean(diff)
        assert diff["semantic"]["counters"]["c"] == (5, 6)

    def test_config_change_breaks_fingerprint(self):
        a = build_row("figure", "f", {"k": 1})
        b = build_row("figure", "f", {"k": 2})
        diff = diff_rows(a, b)
        assert not diff["fingerprint_match"]
        assert "config" in diff["semantic"]

    def test_artifact_digest_change_is_semantic(self, tmp_path):
        (tmp_path / "a.json").write_text("aaa", encoding="utf-8")
        (tmp_path / "b.json").write_text("bbb", encoding="utf-8")
        a = build_row("figure", "f", {},
                      artifacts={"out": str(tmp_path / "a.json")})
        b = build_row("figure", "f", {},
                      artifacts={"out": str(tmp_path / "b.json")})
        assert not diff_is_clean(diff_rows(a, b))


# ----------------------------------------------------------------------
# end to end through the CLI
# ----------------------------------------------------------------------
class TestCliEndToEnd:
    @pytest.fixture(autouse=True)
    def _smoke(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        monkeypatch.chdir(tmp_path)

    def _run_figure(self, ledger, *extra):
        code = main(
            ["figure", "8", "--seeds", "1", "--ledger", str(ledger), *extra]
        )
        assert code == 0
        OBS.reset()

    def test_serial_and_pooled_rows_mask_identical(self, tmp_path, capsys):
        ledger = tmp_path / "ledger"
        self._run_figure(ledger)
        self._run_figure(ledger, "--workers", "2")
        capsys.readouterr()
        rows = LedgerStore(ledger).rows()
        assert len(rows) == 2
        assert _masked_json(rows[0]) == _masked_json(rows[1])
        assert rows[0]["fingerprint"] == rows[1]["fingerprint"]
        assert rows[0]["run_id"] != rows[1]["run_id"]
        # the pooled run records its worker count in the masked env
        assert rows[1]["env"]["workers"] == 2
        # and the harvest actually carried semantic counters
        assert any(
            key.startswith("decor_placements_total")
            for key in rows[0]["counters"]
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["deploy", "--k", "2", "--method", "grid"],
            ["figure", "8"],
            ["restore", "--epochs", "3"],
        ],
        ids=["deploy", "figure8", "restore-epochs"],
    )
    def test_row_sections_equal_metrics_dump(self, tmp_path, capsys, argv):
        """The harvested row is the whole run: the ``--metrics`` dump minus
        the excluded prefixes, however few sample hooks the command has."""
        ledger = tmp_path / "ledger"
        dump = tmp_path / "metrics.json"
        assert main([*argv, "--ledger", str(ledger), "--metrics", str(dump)]) == 0
        (row,) = LedgerStore(ledger).rows()
        expected = {"counters": {}, "gauges": {}, "histograms": {}}
        for name, series in json.loads(dump.read_text()).items():
            for labels, payload in series.items():
                key = f"{name}{{{labels}}}" if labels else name
                if key.startswith(HARVEST_EXCLUDED_PREFIXES):
                    continue
                if payload["type"] == "counter":
                    expected["counters"][key] = payload["value"]
                elif payload["type"] == "gauge":
                    expected["gauges"][key] = payload["value"]
                else:
                    expected["histograms"][key] = {
                        "count": payload["count"], "sum": payload["sum"],
                    }
        assert expected["counters"]
        assert {section: row[section] for section in expected} == expected

    @pytest.mark.parametrize(
        ("argv", "keys"),
        [
            (["figure", "8", "--seeds", "1"], ["figure"]),
            (["figure", "8", "--seeds", "1", "--workers", "2"],
             ["figure", "pool_compute", "pool_publish"]),
            (["deploy", "--k", "1", "--side", "20", "--points", "100"],
             ["deploy"]),
            (["summary", "--k", "1", "--seeds", "1", "--workers", "2"],
             ["pool_compute", "pool_publish", "summary"]),
            (["restore", "--k", "1", "--side", "20", "--points", "100"],
             ["deploy", "restore"]),
            (["restore", "--k", "1", "--side", "20", "--points", "100",
              "--epochs", "2"], ["deploy", "restore"]),
        ],
        ids=["figure", "figure-workers", "deploy", "summary-workers",
             "restore", "restore-epochs"],
    )
    def test_wall_is_span_totals(self, tmp_path, capsys, argv, keys):
        """Each ``wall`` entry is the total of the spans of one name, and
        the ``--trace`` summary printed by the same run agrees with it."""
        ledger = tmp_path / "ledger"
        assert main([*argv, "--ledger", str(ledger), "--trace",
                     str(tmp_path / "t.jsonl")]) == 0
        tracer = OBS.tracer
        (row,) = LedgerStore(ledger).rows()
        assert sorted(row["wall"]) == keys
        assert row["wall"] == {key: tracer.total(key) for key in keys}
        out = capsys.readouterr().out
        for key in keys:
            (line,) = [ln for ln in out.splitlines()
                       if ln.split()[:1] == [key]]
            count, total = line.split()[1:3]
            assert int(count) == tracer.span_stats[key].count
            assert float(total) == pytest.approx(row["wall"][key], abs=1e-4)

    def test_runs_diff_and_regress_exit_codes(self, tmp_path, capsys):
        ledger = tmp_path / "ledger"
        self._run_figure(ledger)
        self._run_figure(ledger)
        assert main(["runs", "--ledger", str(ledger), "list"]) == 0
        assert "fig08" in capsys.readouterr().out
        diff = ["runs", "--ledger", str(ledger), "diff", "latest~1", "latest",
                "--exit-code"]
        assert main(diff) == 0
        capsys.readouterr()
        # a row with the same fingerprint and one counter changed is a
        # regression of the counted work: the diff gate must fail on it
        store = LedgerStore(ledger)
        row = copy.deepcopy(store.resolve("latest"))
        key = next(k for k in row["counters"]
                   if k.startswith("decor_placements_total"))
        row["counters"][key] += 1
        store.append(row)
        assert main(diff) == 1
        out = capsys.readouterr().out
        assert "fingerprint: match" in out and key in out
        # the gate is the diff alone: `runs regress` is no command
        with pytest.raises(SystemExit) as exc:
            main(["runs", "--ledger", str(ledger), "regress"])
        assert exc.value.code == 2

    def test_runs_list_wall_counts_the_pool_once(self, tmp_path, capsys):
        """``runs list`` prints the command's own span total: the pool's
        spans nest inside ``figure``, so a pooled row lists its ``figure``
        total, and a serial row, which has only that span, lists the same
        sum of its ``wall`` as before."""
        ledger = tmp_path / "ledger"
        self._run_figure(ledger)
        self._run_figure(ledger, "--workers", "2")
        capsys.readouterr()
        serial, pooled = LedgerStore(ledger).rows()
        assert sorted(serial["wall"]) == ["figure"]
        assert sorted(pooled["wall"]) == ["figure", "pool_compute", "pool_publish"]
        assert main(["runs", "--ledger", str(ledger), "list"]) == 0
        listed = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in listed] == [
            serial["run_id"], pooled["run_id"],
        ]
        for line, row in zip(listed, (serial, pooled)):
            assert line.endswith(f"wall={row['wall']['figure']:.2f}s")

    def test_runs_show_prints_row_json(self, tmp_path, capsys):
        ledger = tmp_path / "ledger"
        self._run_figure(ledger)
        capsys.readouterr()
        assert main(["runs", "--ledger", str(ledger), "show", "latest"]) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["kind"] == "figure" and row["label"] == "fig08"

    def test_summarize_diff_renders_sections(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        code = main(
            ["figure", "8", "--seeds", "1", "--sample", str(a)]
        )
        assert code == 0
        OBS.reset()
        code = main(
            ["figure", "9", "--seeds", "1", "--sample", str(b)]
        )
        assert code == 0
        OBS.reset()
        capsys.readouterr()
        assert main(["obs", "summarize", "--diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "gauge trajectories" in out
        assert str(a) in out and str(b) in out

    def test_summarize_single_source_still_works(self, tmp_path, capsys):
        sink = tmp_path / "s.jsonl"
        code = main(["figure", "8", "--seeds", "1", "--sample", str(sink)])
        assert code == 0
        OBS.reset()
        capsys.readouterr()
        assert main(["obs", "summarize", str(sink)]) == 0
        assert "sample rows" in capsys.readouterr().out

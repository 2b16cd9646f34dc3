"""Tests for the command-line interface."""

import gc
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro.cli import _flightrec_argv, build_parser, main
from repro.obs import NULL_FLIGHT, OBS
from repro.obs.ledger import LedgerStore


class TestParser:
    def test_figure_numbers_restricted(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["figure", "99"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])
        assert "decor" in capsys.readouterr().out


class TestDeploy:
    def test_prints_metrics(self, capsys):
        code = main(
            ["deploy", "--k", "1", "--method", "centralized",
             "--side", "20", "--points", "100"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "nodes_total" in out
        assert "covered_fraction: 1.0" in out

    def test_ascii_render(self, capsys):
        code = main(
            ["deploy", "--k", "1", "--method", "voronoi",
             "--side", "20", "--points", "100", "--ascii"]
        )
        assert code == 0
        assert "o" in capsys.readouterr().out

    def test_grid_method(self, capsys):
        code = main(
            ["deploy", "--k", "1", "--method", "grid", "--cell-size", "5",
             "--side", "20", "--points", "100"]
        )
        assert code == 0


class TestFigure:
    def test_figure_8_smoke_tiny(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        code = main(["figure", "8", "--seeds", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fig08" in out and "centralized" in out

    def test_json_and_csv_written(self, tmp_path, capsys):
        jpath = tmp_path / "fig.json"
        cpath = tmp_path / "fig.csv"
        code = main(
            ["figure", "13", "--seeds", "1",
             "--json", str(jpath), "--csv", str(cpath)]
        )
        assert code == 0
        payload = json.loads(jpath.read_text())
        assert payload["figure_id"] == "fig13"
        assert cpath.read_text().startswith("figure,series,x,y")


class TestSummaryRestoreLifetime:
    def test_summary(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        code = main(["summary", "--k", "2", "--seeds", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Method summary at k = 2" in out
        assert "voronoi-big" in out

    def test_restore(self, capsys):
        code = main(
            ["restore", "--k", "1", "--method", "centralized",
             "--side", "25", "--points", "150"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "repair" in out and "100%" in out

    def test_lifetime(self, capsys):
        code = main(
            ["lifetime", "--k", "3", "--side", "25", "--points", "150"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "shift rotation" in out


_SMALL_RESTORE = ["restore", "--k", "1", "--side", "25", "--points", "150"]


@pytest.mark.parametrize(
    ("argv", "names"),
    [
        (["figure", "8", "--workers", "-1"], "--workers"),
        (["summary", "--workers", "-2"], "--workers"),
        ([*_SMALL_RESTORE, "--disaster-radius", "0"], "--disaster-radius"),
        ([*_SMALL_RESTORE, "--disaster-radius", "-3"], "--disaster-radius"),
        (["figure", "8", "--seeds", "0"], "n_seeds"),
    ],
    ids=["figure-workers", "summary-workers", "radius-zero", "radius-negative",
         "seeds-zero"],
)
def test_invalid_inputs_rejected_before_work(argv, names, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "smoke")
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert names in err
    assert "deployed" not in out


@pytest.mark.parametrize(
    ("argv", "names"),
    [
        (["runs", "show", "latest~abc"], "latest~abc"),
        (["runs", "show", "latest~-1"], "latest~-1"),
        (["runs", "diff", "latest", "latest~x"], "latest~x"),
        (["runs", "list", "--limit", "0"], "--limit"),
        (["runs", "list", "--limit", "-1"], "--limit"),
    ],
    ids=["offset-not-int", "offset-negative", "diff-offset", "limit-zero",
         "limit-negative"],
)
def test_runs_rejects_malformed_input(argv, names, tmp_path, capsys):
    """Malformed ``decor runs`` references and flags exit 2 with a message
    naming them, against a ledger that holds a row to resolve."""
    ledger = tmp_path / "ledger"
    assert main(["deploy", "--k", "1", "--side", "20", "--points", "100",
                 "--ledger", str(ledger)]) == 0
    OBS.reset()
    capsys.readouterr()
    assert main(["runs", "--ledger", str(ledger), *argv[1:]]) == 2
    out, err = capsys.readouterr()
    assert names in err
    assert "Traceback" not in err and out == ""


def test_summarize_closes_the_export(tmp_path, capsys, monkeypatch):
    """``obs summarize`` closes the file it reads: with ResourceWarning an
    error, an unclosed file would raise in its finalizer, which reaches
    ``sys.unraisablehook``."""
    OBS.enable(fresh=True)
    OBS.counter("msgs_total").inc(3)
    path = tmp_path / "metrics.json"
    OBS.metrics.write_json(str(path))
    OBS.reset()
    unraisable: list = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        assert main(["obs", "summarize", str(path)]) == 0
        gc.collect()
    assert "top counters" in capsys.readouterr().out
    assert not unraisable


@pytest.mark.parametrize(
    "argv",
    [
        ["figure", "8", "--ledger", "--seeds", "1"],
        ["figure", "8", "--seeds", "1", "--ledger"],
        ["figure", "8", "--ledger", "runs/ledger", "--seeds", "1"],
        ["figure", "8", "--ledger=runs/ledger", "--seeds", "1"],
    ],
    ids=["bare-before-flag", "bare-last", "with-path", "with-equals"],
)
def test_flightrec_argv_strips_ledger(argv):
    """``--ledger`` takes an optional value: the next token is only its
    value when argparse would have consumed it."""
    assert _flightrec_argv(argv) == ["figure", "8", "--seeds", "1"]


class TestRecordingSession:
    @pytest.fixture(autouse=True)
    def _pristine(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        monkeypatch.chdir(tmp_path)
        OBS.reset()
        yield
        OBS.reset()

    @staticmethod
    def _switches():
        return (OBS.enabled, OBS.flight is NULL_FLIGHT)

    def test_bare_ledger_recording_replays(self, capsys):
        assert main([
            "figure", "8", "--ledger", "--seeds", "1",
            "--flight-record", "flight.jsonl",
        ]) == 0
        assert len(LedgerStore(".decor/ledger").rows()) == 1
        capsys.readouterr()
        assert main(["replay", "flight.jsonl"]) == 0
        assert "reproduced byte-identically" in capsys.readouterr().out

    def test_failed_command_restores_switches(self, capsys):
        before = self._switches()
        code = main([
            "deploy", "--k", "0", "--side", "20", "--points", "100",
            "--trace", "t.jsonl", "--sample", "s.jsonl", "--ledger", "d",
        ])
        assert code == 2
        assert self._switches() == before
        assert LedgerStore("d").rows() == []

    def test_recording_does_not_outlive_main(self, capsys):
        before = self._switches()
        deploy = ["deploy", "--k", "1", "--side", "20", "--points", "100"]
        assert main([*deploy, "--ledger", "d"]) == 0
        assert self._switches() == before
        capsys.readouterr()
        assert main(deploy) == 0
        assert "Trace summary" not in capsys.readouterr().out
        assert self._switches() == before
        assert len(LedgerStore("d").rows()) == 1

    @pytest.mark.parametrize("enabled", [False, True])
    def test_flight_log_does_not_outlive_main(self, capsys, enabled):
        if enabled:
            OBS.enable()
        assert main([
            "deploy", "--k", "1", "--side", "20", "--points", "100",
            "--flight-record", "f.jsonl",
        ]) == 0
        assert self._switches() == (enabled, True)
        assert OBS.recording() is (False if enabled else None)


def test_gallery(capsys):
    code = main(["gallery"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Figure 4" in out and "Figure 5" in out and "Figure 6" in out
    assert "!" in out  # the disaster hole is visible


REPO_ROOT = Path(__file__).resolve().parents[1]


def _cli_env() -> dict[str, str]:
    """A fresh interpreter's environment: the repo's ``src`` on the path and
    no ``REPRO_*`` knobs (this process may run with some set)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


@pytest.fixture(scope="module")
def modules_after_cli_import() -> set[str]:
    probe = "import sys, repro.cli; print(' '.join(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=_cli_env(), capture_output=True,
        text=True, check=True, timeout=60,
    ).stdout
    return set(out.split())


@pytest.mark.parametrize(
    "module", ["networkx", "scipy", "http.server", "ssl", "repro.obs.ledger"]
)
def test_import_leaves_module_unloaded(modules_after_cli_import, module):
    """Only the analyses (networkx, scipy) and the tests' kd-tree reference
    (scipy) need networkx and scipy, nothing needs http.server or ssl, and
    only ``--ledger`` and ``decor runs`` need the run ledger, so importing
    the CLI must not load any of them."""
    assert module not in modules_after_cli_import


# a meta-path finder in front of every other: any scipy import, however
# lazy, raises; forked pool workers inherit it
_BLOCK_SCIPY = """
import sys
class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("blocked: " + name)
sys.meta_path.insert(0, BlockScipy())
from repro.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "args",
    [
        ["figure", "8", "--json", "{out}"],
        ["figure", "8", "--workers", "2", "--json", "{out}"],
        ["restore", "--side", "50", "--points", "500", "--k", "2", "--method",
         "centralized", "--epochs", "3", "--seed", "0"],
    ],
    ids=["figure8", "figure8-workers", "restore"],
)
def test_default_runs_never_import_scipy(tmp_path, args):
    out = tmp_path / "fig08.json"
    argv = [a.format(out=out) for a in args]
    proc = subprocess.run(
        [sys.executable, "-c", _BLOCK_SCIPY, *argv], env=_cli_env(),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    if "--json" in argv:
        expected = REPO_ROOT / "benchmarks" / "results" / "smoke" / "fig08.json"
        assert out.read_bytes() == expected.read_bytes()

"""Command-line interface.

Usage (installed as ``decor`` or via ``python -m repro.cli``)::

    decor figure 8                      # regenerate a paper figure (smoke scale)
    decor figure 10 --scale paper       # full paper-scale run
    decor figure 8 --json out.json      # persist the series
    decor deploy --k 3 --method voronoi # one deployment, metrics + ASCII view
    decor summary --k 3                 # one-row-per-method bottom line
    decor restore --k 3 --method grid   # deploy, disaster, repair, report
    decor restore --epochs 5            # survive 5 failure epochs, one session
    decor lifetime --k 3                # sleep-shift lifetime multiplier
    decor gallery                       # paper Figures 4-6 as ASCII art

Scale selection: ``--scale`` beats the ``REPRO_SCALE`` environment variable,
which beats the default ("smoke").

Parallelism: ``--workers N`` (on figure and summary) shards the independent
``(series, k, seed)`` deployments across N worker processes and merges the
results deterministically — the output is bit-identical to a serial run.
See ``docs/performance.md``.

Observability: ``--trace out.jsonl`` / ``--metrics out.json`` (on figure,
deploy, summary and restore) enable the :mod:`repro.obs` runtime for the
invocation and export the recorded spans and metric series; a trace
summary table is printed either way.

Flight recording: ``--flight-record out.jsonl`` (same commands) also keeps
the runtime's flight log, a causal per-node protocol event log (see
:mod:`repro.obs.flightrec`) whose header embeds a cleaned argv, so
``decor replay out.jsonl`` can re-execute the command and verify the
stream reproduces byte for byte — including sweeps recorded with
``--workers N``, which replay serially.

Time series: ``--sample sink.jsonl`` streams the sampler's metric deltas
and ``health_*`` gauges to a JSONL sink while the command runs, one row
per hook in deterministic logical time.  ``decor obs summarize PATH``
pretty-prints any export offline (``--diff A B`` compares two sample
sinks).  See ``docs/observability.md``.

Run ledger: ``--ledger [PATH]`` appends one structured history row per
figure/deploy/summary/restore invocation — config fingerprint,
environment, per-layer span walls, the run's counters/gauges, artifact
digests — to an append-only JSONL store (default ``.decor/ledger``).
Query it with ``decor runs list|show|diff``; ``diff --exit-code``
returns nonzero when two rows differ in any counter, gauge, histogram,
config value or artifact digest, which is the CI gate on counted work.

One recording session (:func:`_recording`) is the only reader of these
five flags: any of them starts one fresh :data:`~repro.obs.OBS` recording
before the command runs, the session writes the exports after it, and
it drops the flight log and puts the runtime switch back however the
command ends.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Any, Iterator


from repro._version import __version__
from repro.analysis.metrics import evaluate_deployment
from repro.core.planner import DecorPlanner, METHODS
from repro.errors import ConfigurationError, ReproError
from repro.experiments.figures import FIGURES, run_figure
from repro.experiments.recording import figure_to_csv, figure_to_json
from repro.experiments.runner import DeploymentCache
from repro.experiments.setup import ExperimentSetup
from repro.geometry.region import Rect
from repro.network.failures import area_failure
from repro.network.spec import SensorSpec
from repro.obs import (
    NULL_FLIGHT,
    OBS,
    bridge_field_stats,
    record_coverage_health,
)
from repro.viz.ascii_field import render_coverage, render_deployment, render_points

__all__ = ["main", "build_parser"]


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", metavar="PATH",
        help="enable instrumentation; write the span trace as JSON lines",
    )
    parser.add_argument(
        "--metrics", metavar="PATH",
        help="enable instrumentation; write the metrics dump as JSON",
    )
    parser.add_argument(
        "--flight-record", metavar="PATH",
        help="record a replayable causal protocol event log as JSON lines "
             "(verify it later with `decor replay PATH`)",
    )
    parser.add_argument(
        "--sample", metavar="PATH",
        help="enable instrumentation; stream time-series health/metric "
             "samples to a JSONL sink (summarize it with "
             "`decor obs summarize PATH`)",
    )
    parser.add_argument(
        "--ledger", metavar="PATH", nargs="?", const="",
        help="append a run-history row (config fingerprint, counters, "
             "health gauges, staged walls, artifact digests) to the "
             "ledger at PATH (default .decor/ledger; query it with "
             "`decor runs`)",
    )


#: Flags stripped from the argv recorded in a flight stream's header:
#: output/export paths and worker counts do not affect the event stream,
#: and stripping ``--flight-record`` itself keeps replay from recursing.
_NON_REPLAY_FLAGS = (
    "--flight-record", "--trace", "--metrics", "--sample", "--json", "--csv",
    "--workers", "--ledger",
)


def _flightrec_argv(argv: list[str]) -> list[str]:
    """Clean argv for a flight-stream header (drops non-semantic flags).

    Each stripped flag takes its value with it.  ``--ledger``'s value is
    optional: the next token is its value only when argparse would have
    consumed it, that is, when it does not start with ``-``.
    """
    out: list[str] = []
    flag: str | None = None
    for token in argv:
        takes_token = flag is not None and not (
            flag == "--ledger" and token.startswith("-")
        )
        flag = None
        if takes_token:
            continue
        if token in _NON_REPLAY_FLAGS:
            flag = token
        elif not any(token.startswith(f + "=") for f in _NON_REPLAY_FLAGS):
            out.append(token)
    return out


#: The worker pool's spans; they nest inside the ``figure`` and
#: ``summary`` spans and appear only when the command ran a parallel prefill.
_POOL_SPANS = ("pool_publish", "pool_compute")

#: Span names whose totals make up a ledger row's ``wall``, per command.
_WALL_SPANS: dict[str, tuple[str, ...]] = {
    "figure": ("figure", *_POOL_SPANS),
    "deploy": ("deploy",),
    "summary": ("summary", *_POOL_SPANS),
    "restore": ("deploy", "restore"),
}


class _LedgerRow:
    """What a recording command declares about its run-ledger row."""

    __slots__ = ("parts",)

    def __init__(self) -> None:
        self.parts: dict[str, Any] | None = None

    def declare(
        self, kind: str, label: str, config: dict, **artifacts: str | None
    ) -> None:
        """Name the row and the artifacts the command itself wrote."""
        self.parts = {
            "kind": kind, "label": label, "config": config,
            "artifacts": artifacts,
        }


@contextlib.contextmanager
def _recording(args: argparse.Namespace, argv: list[str]) -> Iterator[_LedgerRow]:
    """The invocation's one recording session.

    The only reader of ``--trace``, ``--metrics``, ``--sample``,
    ``--flight-record`` and ``--ledger``.  Any of them starts a fresh
    :data:`OBS` recording on entry; ``--flight-record`` also gives it a
    live flight log, headed by the cleaned argv.  On a clean exit, after
    the command's own output, it writes the trace, metrics and sample
    exports with their ``wrote`` lines and the trace summary (unless only
    a flight log was asked for), then the flight record, then the ledger
    row, built from :data:`OBS`'s span totals and metrics registry.
    However the command ends, the sample sink is closed, the flight log
    is dropped and ``OBS.enabled`` goes back to its value on entry.
    """
    trace = getattr(args, "trace", None)
    metrics = getattr(args, "metrics", None)
    sample = getattr(args, "sample", None)
    flight_record = getattr(args, "flight_record", None)
    ledger = getattr(args, "ledger", None)
    export = bool(trace or metrics or sample or ledger is not None)
    saved = OBS.enabled
    sink = None
    row = _LedgerRow()
    try:
        if export or flight_record:
            stream = open(sample, "w", encoding="utf-8") if sample else None
            OBS.enable(
                fresh=True, flight=bool(flight_record), sample_stream=stream
            )
            sink = OBS.sampler
            if flight_record:
                OBS.flight.set_header("cli", {"argv": _flightrec_argv(argv)})
        yield row
        if export:
            _write_exports(trace, metrics, sample)
        if flight_record:
            n = OBS.flight.write_jsonl(flight_record)
            print(f"wrote {flight_record} ({n} flight records)")
        if ledger is not None and row.parts is not None:
            _append_ledger_row(
                ledger or None, row.parts,
                {"sample_sink": sample, "flight_record": flight_record},
                workers=getattr(args, "workers", None) or 1,
            )
    finally:
        if sink is not None:
            sink.close()
        if flight_record:
            OBS.flight = NULL_FLIGHT
        OBS.enabled = saved


def _append_ledger_row(
    root: str | None, parts: dict[str, Any], recorded: dict[str, str | None],
    *, workers: int,
) -> None:
    """Build the run's ledger row from :data:`OBS` and append it."""
    from repro.obs.ledger import (
        DEFAULT_LEDGER_ROOT,
        LedgerStore,
        build_row,
        capture_environment,
        harvest,
    )

    tracer = OBS.tracer
    names = _WALL_SPANS[parts["kind"]]
    written = {**parts["artifacts"], **recorded}
    entry = build_row(
        parts["kind"],
        parts["label"],
        parts["config"],
        metrics=harvest(OBS.metrics),
        wall={n: tracer.total(n) for n in names if n in tracer.span_stats},
        artifacts={k: v for k, v in written.items() if v},
        env=capture_environment(workers=workers),
    )
    store = LedgerStore(root or DEFAULT_LEDGER_ROOT)
    store.append(entry)
    print(f"ledger: recorded {entry['run_id']} -> {store.root}")


def _write_exports(trace: str | None, metrics: str | None, sample: str | None) -> None:
    """Export and print what the finished command recorded."""
    from repro.experiments.summary import summarize_trace

    OBS.disable()
    if trace:
        n = OBS.tracer.write_jsonl(trace)
        print(f"wrote {trace} ({n} trace records)")
    if metrics:
        n = OBS.metrics.write_json(metrics)
        print(f"wrote {metrics} ({n} metric series)")
    if sample:
        OBS.sampler.close()
        print(f"wrote {sample} ({OBS.sampler.seq} sample rows)")
    print(summarize_trace(OBS.tracer).format())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decor",
        description="DECOR k-coverage restoration (IPPS 2007 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"decor {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("figure", help="regenerate a paper figure")
    p_fig.add_argument("number", type=int, choices=sorted(FIGURES))
    p_fig.add_argument("--scale", choices=["smoke", "paper"], default=None)
    p_fig.add_argument("--seeds", type=int, default=None, help="override seed count")
    p_fig.add_argument("--json", metavar="PATH", help="also write JSON")
    p_fig.add_argument("--csv", metavar="PATH", help="also write CSV")
    p_fig.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="compute the figure's deployments across N worker processes "
             "(bit-identical output; default: serial)",
    )
    _add_obs_args(p_fig)

    p_dep = sub.add_parser("deploy", help="run one deployment and report metrics")
    p_dep.add_argument("--k", type=int, default=3)
    p_dep.add_argument("--method", choices=METHODS, default="voronoi")
    p_dep.add_argument("--side", type=float, default=50.0, help="field side length")
    p_dep.add_argument("--points", type=int, default=500, help="field points")
    p_dep.add_argument("--rs", type=float, default=4.0)
    p_dep.add_argument("--rc", type=float, default=8.0)
    p_dep.add_argument("--cell-size", type=float, default=5.0)
    p_dep.add_argument("--seed", type=int, default=0)
    p_dep.add_argument("--ascii", action="store_true", help="render the deployment")
    _add_obs_args(p_dep)

    p_sum = sub.add_parser("summary", help="per-method bottom line at one k")
    p_sum.add_argument("--k", type=int, default=3)
    p_sum.add_argument("--scale", choices=["smoke", "paper"], default=None)
    p_sum.add_argument("--seeds", type=int, default=None)
    p_sum.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="compute the per-method deployments across N worker processes",
    )
    _add_obs_args(p_sum)

    p_res = sub.add_parser("restore", help="deploy, break, repair, report")
    p_res.add_argument("--k", type=int, default=2)
    p_res.add_argument("--method", choices=METHODS, default="voronoi")
    p_res.add_argument("--side", type=float, default=50.0)
    p_res.add_argument("--points", type=int, default=500)
    p_res.add_argument("--rs", type=float, default=4.0)
    p_res.add_argument("--rc", type=float, default=8.0)
    p_res.add_argument("--cell-size", type=float, default=5.0)
    p_res.add_argument("--disaster-radius", type=float, default=None,
                       help="default: 0.24 x side (the paper's proportion)")
    p_res.add_argument("--seed", type=int, default=0)
    p_res.add_argument(
        "--epochs", type=int, default=1, metavar="N",
        help="survive N failure epochs (disc/random/correlated schedule) "
             "through one RestorationSession (default: one disaster disc)",
    )
    _add_obs_args(p_res)

    p_life = sub.add_parser("lifetime", help="sleep-shift lifetime multiplier")
    p_life.add_argument("--k", type=int, default=3)
    p_life.add_argument("--side", type=float, default=50.0)
    p_life.add_argument("--points", type=int, default=500)
    p_life.add_argument("--rs", type=float, default=4.0)
    p_life.add_argument("--rc", type=float, default=8.0)
    p_life.add_argument("--capacity", type=float, default=1000.0)
    p_life.add_argument("--seed", type=int, default=0)

    sub.add_parser("gallery", help="print paper Figures 4-6 as ASCII art")

    p_obs = sub.add_parser("obs", help="telemetry tooling: summarize exports")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_sumz = obs_sub.add_parser(
        "summarize",
        help="pretty-print an exported metrics JSON / trace or sample JSONL",
    )
    p_sumz.add_argument("source", metavar="PATH", nargs="+")
    p_sumz.add_argument(
        "--diff", action="store_true",
        help="compare two sample sinks (counter deltas, gauge "
             "trajectories, histogram quantile shifts); takes exactly "
             "two PATH arguments",
    )

    p_runs = sub.add_parser(
        "runs", help="query the run ledger: list, show, diff"
    )
    p_runs.add_argument(
        "--ledger", metavar="PATH", default=None, dest="store",
        help="ledger root directory (default .decor/ledger)",
    )
    runs_sub = p_runs.add_subparsers(dest="runs_command", required=True)
    p_rls = runs_sub.add_parser("list", help="list recorded runs")
    p_rls.add_argument("--kind", default=None, help="filter by row kind")
    p_rls.add_argument("--label", default=None, help="filter by row label")
    p_rls.add_argument("--limit", type=int, default=20, metavar="N",
                       help="show at most N most recent rows (default 20)")
    p_rsh = runs_sub.add_parser("show", help="print one run row as JSON")
    p_rsh.add_argument("ref", metavar="REF",
                       help="run-id prefix, 'latest', or 'latest~N'")
    p_rdf = runs_sub.add_parser("diff", help="semantic diff of two runs")
    p_rdf.add_argument("ref_a", metavar="A")
    p_rdf.add_argument("ref_b", metavar="B")
    p_rdf.add_argument(
        "--exit-code", action="store_true",
        help="exit 1 when the semantic sections differ (for CI gates)",
    )

    p_chk = sub.add_parser(
        "check",
        help="run every static gate: lint, typing, mypy",
    )
    p_chk.add_argument(
        "--output", choices=["text", "json", "sarif"], default="text",
        help="report format (sarif feeds GitHub code scanning)",
    )
    p_chk.add_argument(
        "--skip", action="append", default=[], metavar="GATE",
        choices=["lint", "typing", "mypy"],
        help="skip a gate (repeatable; e.g. --skip mypy)",
    )

    p_rep = sub.add_parser(
        "replay", help="validate and re-verify a flight recording"
    )
    p_rep.add_argument("recording", metavar="PATH",
                       help="a JSONL flight recording (from --flight-record)")
    p_rep.add_argument("--no-verify", action="store_true",
                       help="only validate the schema, do not re-execute")
    p_rep.add_argument("--timeline", metavar="PATH",
                       help="also render a swim-lane SVG of one run block")
    p_rep.add_argument("--run", type=int, default=1, metavar="N",
                       help="run block to render with --timeline (default 1)")
    return parser


def _validate_args(args: argparse.Namespace) -> None:
    """Reject out-of-range flag values before any work starts."""
    workers = getattr(args, "workers", None)
    if workers is not None and workers < 0:
        raise ConfigurationError(f"--workers must be >= 0, got {workers}")
    radius = getattr(args, "disaster_radius", None)
    if radius is not None and not radius > 0:
        raise ConfigurationError(f"--disaster-radius must be > 0, got {radius:g}")
    epochs = getattr(args, "epochs", None)
    if epochs is not None and epochs < 1:
        raise ConfigurationError(f"--epochs must be >= 1, got {epochs}")
    limit = getattr(args, "limit", None)
    if limit is not None and limit < 1:
        raise ConfigurationError(f"--limit must be >= 1, got {limit}")


def _setup_from_args(args: argparse.Namespace) -> ExperimentSetup:
    scale = args.scale or os.environ.get("REPRO_SCALE")
    setup = ExperimentSetup.from_env(scale)
    if args.seeds is not None:
        setup = setup.with_seeds(args.seeds)
    return setup


def _cmd_figure(args: argparse.Namespace, row: _LedgerRow) -> int:
    from repro.experiments.tables import format_figure_table

    setup = _setup_from_args(args)
    cache = DeploymentCache(setup)
    result = run_figure(setup, args.number, cache, workers=args.workers)
    print(format_figure_table(result))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(figure_to_json(result))
        print(f"wrote {args.json}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(figure_to_csv(result))
        print(f"wrote {args.csv}")
    row.declare(
        "figure", f"fig{args.number:02d}",
        {"command": "figure", "figure": args.number, **cache.describe()},
        figure_json=args.json, figure_csv=args.csv,
    )
    return 0


def _planner_config(args: argparse.Namespace, command: str) -> dict:
    """The semantic config of a planner-shaped command (deploy/restore)."""
    return {
        "command": command,
        "k": args.k,
        "method": args.method,
        "side": args.side,
        "points": args.points,
        "rs": args.rs,
        "rc": args.rc,
        "cell_size": args.cell_size,
        "seed": args.seed,
    }


def _cmd_deploy(args: argparse.Namespace, row: _LedgerRow) -> int:
    planner = DecorPlanner(
        Rect.square(args.side),
        SensorSpec(args.rs, args.rc),
        n_points=args.points,
        seed=args.seed,
    )
    result = planner.deploy(args.k, method=args.method, cell_size=args.cell_size)
    metrics = evaluate_deployment(result, area=planner.region.area)
    for key, value in metrics.as_row().items():
        print(f"{key:>18}: {value}")
    if args.ascii:
        print(
            render_deployment(
                planner.region,
                planner.field_points,
                result.deployment.alive_positions(),
                title=f"{args.method} deployment, k={args.k}",
            )
        )
    if OBS.enabled:
        bridge_field_stats(planner.field)
    _closing_sample(result.coverage, args)
    row.declare(
        "deploy", f"deploy-{args.method}-k{args.k}",
        _planner_config(args, "deploy"),
    )
    return 0


def _closing_sample(coverage: Any, args: argparse.Namespace) -> None:
    """The one sample row of a command with no sample hooks of its own.

    ``deploy`` and the one-shot ``restore`` write it to their ``--sample``
    sink: the run's counters and the final coverage health.  Neither takes
    ``--workers``, so serial and pooled sinks cannot diverge here.
    """
    if OBS.enabled and args.sample:
        record_coverage_health(coverage, args.k)
        OBS.sample(args.command, method=args.method, k=args.k)


def _cmd_summary(args: argparse.Namespace, row: _LedgerRow) -> int:
    from repro.experiments import format_summary_table, method_summary
    from repro.experiments.runner import DeploymentCache

    setup = _setup_from_args(args)
    k = min(args.k, max(setup.k_values))
    cache = DeploymentCache(setup)
    with OBS.span("summary", k=k):
        if args.workers is not None and args.workers > 1:
            from repro.experiments.setup import SERIES

            cache.prefill(
                [(s.name, k, seed) for s in SERIES for seed in range(setup.n_seeds)],
                workers=args.workers,
            )
        rows = method_summary(setup, k, cache)
    print(format_summary_table(rows))
    row.declare(
        "summary", f"summary-k{k}",
        {"command": "summary", "k": k, **cache.describe()},
    )
    return 0


def _cmd_restore(args: argparse.Namespace, row: _LedgerRow) -> int:
    planner = DecorPlanner(
        Rect.square(args.side),
        SensorSpec(args.rs, args.rc),
        n_points=args.points,
        seed=args.seed,
    )
    result = planner.deploy(args.k, method=args.method, cell_size=args.cell_size)
    radius = (
        0.24 * args.side if args.disaster_radius is None else args.disaster_radius
    )
    print(f"deployed           : {result.total_alive} nodes (k={args.k}, "
          f"{args.method})")
    if args.epochs == 1:
        # the classic one-shot flow: one disaster disc, one repair
        event = area_failure(result.deployment, planner.region.center, radius)
        report = planner.restore_after(
            result, event, method=args.method, cell_size=args.cell_size
        )
        print(f"disaster           : radius {radius:g}, "
              f"{event.n_failed} nodes lost")
        print(f"coverage after loss: {report.covered_after_failure:.1%}")
        print(f"repair             : +{report.extra_nodes} nodes -> "
              f"{report.covered_after_repair:.0%} k-covered")
        _closing_sample(report.repair.coverage, args)
    else:
        from repro.experiments.epochs import epoch_failure

        total = 0
        with OBS.span("restore", method=args.method, k=args.k,
                      epochs=args.epochs):
            session = planner.session(
                result, method=args.method, cell_size=args.cell_size
            )
            for epoch in range(args.epochs):
                event = epoch_failure(
                    session.deployment, planner.region, epoch, args.seed,
                    radius=radius,
                )
                report = session.restore(event)
                total += report.extra_nodes
                print(f"epoch {epoch} ({event.kind:>10}): "
                      f"{event.n_failed} lost, "
                      f"{report.covered_after_failure:.1%} after loss, "
                      f"repair +{report.extra_nodes} -> "
                      f"{report.covered_after_repair:.0%} k-covered")
        print(f"survived           : {session.epoch} epochs (warm), "
              f"+{total} nodes total, "
              f"{session.deployment.n_alive} alive")
    if OBS.enabled:
        bridge_field_stats(planner.field)
    config = _planner_config(args, "restore")
    config.update(epochs=args.epochs, disaster_radius=radius)
    row.declare("restore", f"restore-{args.method}-k{args.k}", config)
    return 0


def _cmd_lifetime(args: argparse.Namespace) -> int:
    from repro.sim import BatteryConfig, simulate_lifetime

    planner = DecorPlanner(
        Rect.square(args.side),
        SensorSpec(args.rs, args.rc),
        n_points=args.points,
        seed=args.seed,
    )
    result = planner.deploy(args.k, method="voronoi")
    config = BatteryConfig(capacity=args.capacity)
    on = simulate_lifetime(result.coverage, config, policy="always-on")
    rot = simulate_lifetime(result.coverage, config, policy="shift-rotation")
    print(f"k={args.k} deployment of {result.total_alive} nodes")
    print(f"always-on lifetime : {on.lifetime:g}")
    print(f"shift rotation     : {rot.lifetime:g} "
          f"({rot.n_shifts} shifts, {rot.lifetime / on.lifetime:.1f}x)")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.obs.replay import load_stream, validate_stream, verify_stream

    records = load_stream(args.recording)
    stats = validate_stream(records)
    print(
        f"{args.recording}: {stats['n_records']} records, "
        f"{stats['n_runs']} run blocks, {stats['n_events']} events"
    )
    kinds = ", ".join(f"{k}={v}" for k, v in stats["kinds"].items())
    if kinds:
        print(f"event kinds : {kinds}")
    if args.timeline:
        from repro.viz import save_svg
        from repro.viz.timeline import svg_timeline

        save_svg(args.timeline, svg_timeline(records, run=args.run))
        print(f"wrote {args.timeline}")
    if args.no_verify:
        print("schema      : valid (replay verification skipped)")
        return 0
    if not stats["has_header"]:
        print("schema      : valid (no header; stream is not replayable)")
        return 0
    report = verify_stream(records)
    if report.matches:
        print(
            f"replay      : {report.n_replayed} records reproduced "
            "byte-identically"
        )
        return 0
    print(f"replay MISMATCH at record {report.first_divergence}:",
          file=sys.stderr)
    print(report.detail, file=sys.stderr)
    return 1


def _cmd_obs(args: argparse.Namespace) -> int:
    if args.diff:
        if len(args.source) != 2:
            raise ConfigurationError(
                "summarize --diff takes exactly two PATH arguments, "
                f"got {len(args.source)}"
            )
        print(_summarize_sink_diff(*args.source), end="")
        return 0
    if len(args.source) != 1:
        raise ConfigurationError(
            "summarize takes one PATH (use --diff to compare two)"
        )
    print(_summarize_export(args.source[0]), end="")
    return 0


def _summarize_export(source: str) -> str:
    """Pretty-print any export the CLI writes (metrics/trace/samples)."""
    import json as _json

    from repro.experiments.summary import summarize_trace
    from repro.obs.sampler import load_rows, series_table

    with open(source, encoding="utf-8") as fh:
        text = fh.read()
    doc: dict | None = None
    first: dict | None = None
    try:
        whole = _json.loads(text) if text.strip() else None
        if isinstance(whole, dict):
            doc = whole
    except _json.JSONDecodeError:
        pass
    if doc is None:
        first_line = text.lstrip().splitlines()[0] if text.strip() else ""
        try:
            obj = _json.loads(first_line) if first_line else None
            if isinstance(obj, dict):
                first = obj
        except _json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"{source}: not a JSON/JSONL export: {exc}"
            )
    lines: list[str] = []
    if doc is not None and doc.get("type") in ("header", "sample") or (
        first is not None and first.get("type") in ("header", "sample")
    ):
        rows = load_rows(source)
        table = series_table(rows)
        lines.append(f"{source}: {len(rows)} sample rows, "
                     f"{len(table)} series")
        for key in sorted(
            table, key=lambda k: (not k.startswith("health_"), k)
        ):
            pts = table[key]
            lines.append(
                f"  {key}: {len(pts)} points, "
                f"first {pts[0][1]:g} -> last {pts[-1][1]:g}"
            )
    elif doc is not None and "type" not in doc:
        lines.append(f"{source}: metrics dump, {len(doc)} metrics")
        lines.extend(_summarize_metrics_doc(doc))
    else:
        summary = summarize_trace(source)
        lines.append(f"{source}: trace export")
        lines.append(summary.format())
    return "\n".join(lines) + "\n"


def _summarize_metrics_doc(doc: dict) -> list[str]:
    """Top counters and histogram quantiles from an as_dict metrics dump.

    Each dumped histogram is rebuilt through :meth:`Histogram.combine`
    so its quantiles come from :meth:`Histogram.quantile`.
    """
    from repro.obs.metrics import _BUCKET_EDGES, Histogram

    bucket_index = {f"{edge:g}": i for i, edge in enumerate(_BUCKET_EDGES)}
    bucket_index["+inf"] = len(_BUCKET_EDGES)
    counters: list[tuple[float, str]] = []
    hists: list[tuple[str, Histogram]] = []
    for name, series in sorted(doc.items()):
        for labels, payload in sorted(series.items()):
            key = f"{name}{{{labels}}}" if labels else name
            if payload.get("type") == "counter":
                counters.append((float(payload["value"]), key))
            elif payload.get("type") == "histogram":
                buckets = [0] * (len(_BUCKET_EDGES) + 1)
                for edge, n in payload.get("buckets", {}).items():
                    buckets[bucket_index[edge]] = int(n)
                hist = Histogram()
                hist.combine({
                    "count": payload["count"],
                    "sum": payload["sum"],
                    "min": payload.get("min", hist.min),
                    "max": payload.get("max", hist.max),
                    "buckets": buckets,
                })
                hists.append((key, hist))
    out: list[str] = []
    if counters:
        out.append("  top counters:")
        for value, key in sorted(counters, reverse=True)[:10]:
            out.append(f"    {key}: {value:g}")
    if hists:
        out.append("  histograms (p50/p95/p99):")
        for key, hist in hists:
            out.append(
                f"    {key}: n={hist.count} mean={hist.mean:g} "
                f"p50={hist.quantile(0.5):g} p95={hist.quantile(0.95):g} "
                f"p99={hist.quantile(0.99):g}"
            )
    return out


def _summarize_sink_diff(path_a: str, path_b: str) -> str:
    """Compare two ``--sample`` sinks side by side.

    Aggregates each sink into the ledger's counter/gauge/histogram
    sections and renders their delta with the same renderer ``decor runs
    diff`` uses, then adds what flat sections cannot express: gauge
    trajectories (first -> last reading).  Sample rows carry only each
    histogram's count and sum, so histograms report ``n`` and ``mean``.
    """
    from repro.obs.ledger import (
        diff_sections,
        render_sections,
        sections_from_sample_rows,
    )
    from repro.obs.sampler import load_rows, series_table

    rows_a = load_rows(path_a)
    rows_b = load_rows(path_b)
    sections_a = sections_from_sample_rows(rows_a)
    sections_b = sections_from_sample_rows(rows_b)
    lines = [
        f"a: {path_a} ({len(rows_a)} sample rows)",
        f"b: {path_b} ({len(rows_b)} sample rows)",
    ]
    delta = diff_sections(sections_a, sections_b)
    if delta:
        lines.append("aggregate differences:")
        lines.extend(render_sections(delta, "a", "b"))
    else:
        lines.append("aggregate sections: identical")
    table_a = series_table(rows_a)
    table_b = series_table(rows_b)
    gauge_keys = sorted(set(sections_a["gauges"]) | set(sections_b["gauges"]))
    if gauge_keys:
        lines.append("gauge trajectories (first -> last):")
        for key in gauge_keys:
            lines.append(
                f"  {key}: a {_trajectory(table_a.get(key))}, "
                f"b {_trajectory(table_b.get(key))}"
            )
    hists_a = sections_a["histograms"]
    hists_b = sections_b["histograms"]
    hist_keys = sorted(set(hists_a) | set(hists_b))
    if hist_keys:
        lines.append("histograms (n, mean):")
        for key in hist_keys:
            lines.append(
                f"  {key}: a {_mean_summary(hists_a.get(key))}, "
                f"b {_mean_summary(hists_b.get(key))}"
            )
    return "\n".join(lines) + "\n"


def _trajectory(points: list[tuple[float, float]] | None) -> str:
    if not points:
        return "absent"
    return f"{points[0][1]:g} -> {points[-1][1]:g}"


def _mean_summary(entry: dict | None) -> str:
    if not entry or not entry["count"]:
        return "empty"
    return f"n={entry['count']} mean={entry['sum'] / entry['count']:g}"


def _cmd_runs(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs.ledger import (
        DEFAULT_LEDGER_ROOT,
        LedgerStore,
        diff_is_clean,
        diff_rows,
        render_diff,
    )

    store = LedgerStore(args.store or DEFAULT_LEDGER_ROOT)
    if args.runs_command == "list":
        rows = store.rows()
        if args.kind:
            rows = [r for r in rows if r.get("kind") == args.kind]
        if args.label:
            rows = [r for r in rows if r.get("label") == args.label]
        shown = rows[-args.limit:]
        if not shown:
            print(f"no matching runs recorded under {store.root}")
            return 0
        for row in shown:
            # the command's top-level spans: the pool's nest inside them
            wall = sum(t for name, t in row.get("wall", {}).items()
                       if name not in _POOL_SPANS)
            print(
                f"{row.get('run_id')}  {row.get('ts')}  "
                f"{row.get('kind'):>8}  {str(row.get('label')):<24}  "
                f"wall={wall:.2f}s"
            )
        if len(rows) > len(shown):
            print(f"({len(rows) - len(shown)} older runs not shown)")
        return 0
    if args.runs_command == "show":
        print(_json.dumps(store.resolve(args.ref), indent=2, sort_keys=True))
        return 0
    if args.runs_command == "diff":
        diff = diff_rows(
            store.resolve(args.ref_a), store.resolve(args.ref_b)
        )
        print(
            render_diff(diff, label_a=args.ref_a, label_b=args.ref_b),
            end="",
        )
        return 1 if args.exit_code and not diff_is_clean(diff) else 0
    raise AssertionError("unreachable")  # pragma: no cover


def _cmd_gallery(_: argparse.Namespace) -> int:
    region = Rect.square(100.0)
    spec = SensorSpec(4.0, 8.0)
    planner = DecorPlanner(region, spec, n_points=2000, seed=0)
    print(render_points(region, planner.field_points,
                        title="Figure 4: a field approximated with 2000 Halton points"))
    result = planner.deploy(k=1, method="grid", cell_size=5.0)
    print()
    print(render_deployment(region, planner.field_points,
                            result.deployment.alive_positions(),
                            title="Figure 5: an example DECOR deployment (grid, k=1)"))
    event = area_failure(result.deployment, region.center, 24.0)
    survivor = result.deployment.copy()
    survivor.fail(event.node_ids)
    print()
    print(render_coverage(region, survivor.alive_positions(), spec.rs, k=1,
                          title="Figure 6: an uncovered area ('!' = uncovered)"))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.checks.aggregate import (
        overall_ok,
        render_json,
        render_sarif,
        render_text,
        run_gates,
    )

    results = run_gates(skip=args.skip)
    if args.output == "json":
        print(render_json(results))
    elif args.output == "sarif":
        print(render_sarif(results))
    else:
        print(render_text(results))
    return 0 if overall_ok(results) else 1


def _dispatch(args: argparse.Namespace, row: _LedgerRow) -> int:
    if args.command == "figure":
        return _cmd_figure(args, row)
    if args.command == "deploy":
        return _cmd_deploy(args, row)
    if args.command == "summary":
        return _cmd_summary(args, row)
    if args.command == "restore":
        return _cmd_restore(args, row)
    if args.command == "lifetime":
        return _cmd_lifetime(args)
    if args.command == "gallery":
        return _cmd_gallery(args)
    if args.command == "obs":
        return _cmd_obs(args)
    if args.command == "runs":
        return _cmd_runs(args)
    if args.command == "replay":
        return _cmd_replay(args)
    if args.command == "check":
        return _cmd_check(args)
    raise AssertionError("unreachable")  # pragma: no cover


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(raw)
    try:
        _validate_args(args)
        with _recording(args, raw) as row:
            return _dispatch(args, row)
    except (ReproError, OSError) as exc:
        # a bad path on the command line is an input error too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

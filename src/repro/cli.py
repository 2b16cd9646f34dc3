"""Command-line interface.

Usage (installed as ``decor`` or via ``python -m repro.cli``)::

    decor figure 8                      # regenerate a paper figure (smoke scale)
    decor figure 10 --scale paper       # full paper-scale run
    decor figure 8 --json out.json      # persist the series
    decor deploy --k 3 --method voronoi # one deployment, metrics + ASCII view
    decor summary --k 3                 # one-row-per-method bottom line
    decor restore --k 3 --method grid   # deploy, disaster, repair, report
    decor restore --epochs 5 --warm     # survive 5 failure epochs, warm engine
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
invocation and export the recorded spans/events and metric series; a trace
summary table is printed either way.  ``REPRO_OBS=1`` enables recording
without exporting.

Flight recording: ``--flight-record out.jsonl`` (same commands) records a
causal per-node protocol event log (see :mod:`repro.obs.flightrec`) whose
header embeds a cleaned argv, so ``decor replay out.jsonl`` can re-execute
the command and verify the stream reproduces byte for byte — including
sweeps recorded with ``--workers N``, which replay serially.

Live telemetry: ``--sample sink.jsonl`` streams timestamped metric deltas
and ``health_*`` gauges to a JSONL sink while the command runs
(``REPRO_OBS_SAMPLE=<period>`` throttles to wall-time sampling; the
default is one row per hook in deterministic logical time).  Watch a sink
with ``decor top sink.jsonl --follow``, serve any export as a Prometheus
scrape endpoint with ``decor obs serve``, grammar-check an endpoint with
``decor obs scrape URL``, and pretty-print exports offline with
``decor obs summarize PATH`` (``--diff A B`` compares two sample sinks).
See ``docs/observability.md``.

Run ledger: ``--ledger [PATH]`` (or ``REPRO_LEDGER=1``) appends one
structured history row per figure/deploy/summary/restore invocation —
config fingerprint, environment, staged wall timings, harvested
counters/gauges, artifact digests — to an append-only JSONL store
(default ``.decor/ledger``).  Query it with ``decor runs list|show|diff|
regress``; ``diff --exit-code`` and ``regress`` return nonzero on
semantic drift, which is the CI regression gate.
"""

from __future__ import annotations

import argparse
import os
import sys


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
from repro.obs import FREC, LEDGER, OBS, bridge_field_stats
from repro.viz.ascii_field import render_coverage, render_deployment, render_points

__all__ = ["main", "build_parser"]


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", metavar="PATH",
        help="enable instrumentation; write the span/event trace as JSON lines",
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
             "samples to a JSONL sink (watch it with `decor top PATH`; "
             "REPRO_OBS_SAMPLE=<seconds> switches to wall-time throttling)",
    )
    parser.add_argument(
        "--ledger", metavar="PATH", nargs="?", const="",
        help="append a run-history row (config fingerprint, counters, "
             "health gauges, staged walls, artifact digests) to the "
             "ledger at PATH (default .decor/ledger; query it with "
             "`decor runs`)",
    )


def _obs_begin(args: argparse.Namespace) -> bool:
    """Enable a fresh obs runtime when an export flag asks for one.

    ``--ledger [PATH]`` (or a pre-set ``REPRO_LEDGER``) also counts: the
    ledger harvests its counters from this invocation's obs runtime, and
    attaches a logical-clock sampler when no other sampling is configured
    so the harvest aggregates sample rows — which are byte-identical
    between serial and ``--workers N`` runs — instead of the registry's
    schedule-dependent terminal state.
    """
    ledger = getattr(args, "ledger", None)
    if ledger is not None:
        LEDGER.enable(ledger or None)
    wants = bool(
        getattr(args, "trace", None)
        or getattr(args, "metrics", None)
        or getattr(args, "sample", None)
        or LEDGER.enabled
    )
    if wants:
        stream = None
        sample_path = getattr(args, "sample", None)
        if sample_path:
            stream = open(sample_path, "w", encoding="utf-8")
            args._sample_stream = stream
        period = None
        if (
            LEDGER.enabled
            and stream is None
            and not os.environ.get("REPRO_OBS_SAMPLE")
        ):
            period = 0.0
        OBS.enable(fresh=True, sample=period, sample_stream=stream)
    return wants


#: Flags stripped from the argv recorded in a flight stream's header:
#: output/export paths and worker counts do not affect the event stream,
#: and stripping ``--flight-record`` itself keeps replay from recursing.
_NON_REPLAY_FLAGS = (
    "--flight-record", "--trace", "--metrics", "--sample", "--json", "--csv",
    "--workers", "--ledger",
)


def _flightrec_argv(argv: list[str]) -> list[str]:
    """Clean argv for a flight-stream header (drops non-semantic flags)."""
    out: list[str] = []
    skip = False
    for token in argv:
        if skip:
            skip = False
            continue
        if token in _NON_REPLAY_FLAGS:
            skip = True
            continue
        if any(token.startswith(flag + "=") for flag in _NON_REPLAY_FLAGS):
            continue
        out.append(token)
    return out


def _obs_finish(args: argparse.Namespace) -> None:
    """Export and print what the finished command recorded."""
    from repro.experiments.summary import summarize_trace

    OBS.disable()
    if getattr(args, "trace", None):
        n = OBS.tracer.write_jsonl(args.trace)
        print(f"wrote {args.trace} ({n} trace records)")
    if getattr(args, "metrics", None):
        n = OBS.metrics.write_json(args.metrics)
        print(f"wrote {args.metrics} ({n} metric series)")
    if getattr(args, "sample", None):
        stream = getattr(args, "_sample_stream", None)
        if stream is not None:
            stream.close()
        n = OBS.sampler.seq if OBS.sampler is not None else 0
        print(f"wrote {args.sample} ({n} sample rows)")
    print(summarize_trace(OBS.tracer).format())


def _ledger_pend(
    args: argparse.Namespace,
    kind: str,
    label: str,
    config: dict,
    **artifacts: str | None,
) -> None:
    """Stash the ledger row parts; ``main`` appends after artifacts close.

    The flight-record stream is finalized by ``main`` *after* dispatch
    returns, so artifact digests (and therefore the row) must wait until
    then — commands only declare what the row should say.
    """
    if not LEDGER.enabled:
        return
    args._ledger_pend = {
        "kind": kind,
        "label": label,
        "config": config,
        "artifacts": {k: v for k, v in artifacts.items() if v},
    }


def _ledger_finish(args: argparse.Namespace) -> None:
    """Append the pending row (harvest + digests) to the run ledger."""
    if not LEDGER.enabled:
        return
    pend = getattr(args, "_ledger_pend", None)
    if pend is None:
        return
    from repro.obs.ledger import capture_environment

    workers = getattr(args, "workers", None)
    row = LEDGER.record_run(
        pend["kind"],
        pend["label"],
        pend["config"],
        artifacts=pend["artifacts"],
        env=capture_environment(workers=workers or 1),
    )
    if row is not None and LEDGER.store is not None:
        print(f"ledger: recorded {row['run_id']} -> {LEDGER.store.root}")


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
    strat = p_res.add_mutually_exclusive_group()
    strat.add_argument(
        "--warm", dest="warm", action="store_true", default=None,
        help="keep the benefit engine warm across epochs "
             "(undo only the failed rows; default, see REPRO_RESTORE)",
    )
    strat.add_argument(
        "--cold", dest="warm", action="store_false",
        help="rebuild all placement state each epoch (the paper's loop)",
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

    p_obs = sub.add_parser(
        "obs", help="telemetry tooling: serve, scrape, summarize exports"
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_serve = obs_sub.add_parser(
        "serve",
        help="serve a metrics/sample export as a Prometheus scrape endpoint",
    )
    p_serve.add_argument(
        "source", metavar="PATH",
        help="a --metrics JSON or --sample JSONL export (re-read per scrape)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=9464)
    p_serve.add_argument(
        "--once", action="store_true",
        help="print the exposition once and exit instead of serving",
    )
    p_scrape = obs_sub.add_parser(
        "scrape", help="fetch an exposition endpoint and validate its grammar"
    )
    p_scrape.add_argument("url", metavar="URL")
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
        "runs", help="query the run ledger: list, show, diff, regress"
    )
    p_runs.add_argument(
        "--ledger", metavar="PATH", default=None,
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
    p_rgr = runs_sub.add_parser(
        "regress", help="run regression detectors against the run's history"
    )
    p_rgr.add_argument("ref", metavar="REF", nargs="?", default="latest",
                       help="run to check (default: latest)")
    p_rgr.add_argument("--window", type=int, default=5, metavar="N",
                       help="baseline window size (default 5)")
    p_rgr.add_argument("--tolerance", type=float, default=0.1,
                       help="relative drift tolerance for counters "
                            "(default 0.1)")
    p_rgr.add_argument("--wall-tolerance", type=float, default=0.5,
                       help="relative wall slowdown tolerance (default 0.5)")
    p_rgr.add_argument(
        "--detector", action="append", default=None, metavar="NAME",
        help="run only this detector (repeatable; default: all registered)",
    )

    p_top = sub.add_parser(
        "top", help="terminal dashboard over a --sample JSONL sink"
    )
    p_top.add_argument("source", metavar="PATH")
    p_top.add_argument(
        "--follow", action="store_true",
        help="keep re-reading the sink (attach to a running sweep)",
    )
    p_top.add_argument("--interval", type=float, default=2.0, metavar="S",
                       help="refresh period with --follow (default 2s)")
    p_top.add_argument("--frames", type=int, default=None, metavar="N",
                       help="stop after N frames (default: 1, endless with "
                            "--follow)")
    p_top.add_argument("--width", type=int, default=48,
                       help="sparkline width (default 48)")
    p_top.add_argument("--limit", type=int, default=24,
                       help="max series shown (default 24)")
    p_top.add_argument("--prefix", default="", metavar="P",
                       help="only series starting with P (try health_)")

    p_chk = sub.add_parser(
        "check",
        help="run every static gate: flow, lint, typing, mypy, bench",
    )
    p_chk.add_argument(
        "--output", choices=["text", "json", "sarif"], default="text",
        help="report format (sarif feeds GitHub code scanning)",
    )
    p_chk.add_argument(
        "--skip", action="append", default=[], metavar="GATE",
        choices=["flow", "lint", "typing", "mypy", "bench"],
        help="skip a gate (repeatable; e.g. --skip bench for pre-commit)",
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


def _setup_from_args(args: argparse.Namespace) -> ExperimentSetup:
    scale = args.scale or os.environ.get("REPRO_SCALE")
    setup = ExperimentSetup.from_env(scale)
    if args.seeds is not None:
        setup = setup.with_seeds(args.seeds)
    return setup


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments.tables import format_figure_table

    obs = _obs_begin(args)
    setup = _setup_from_args(args)
    cache = DeploymentCache(setup)
    with LEDGER.stage("figure"):
        if args.workers is not None and args.workers > 1:
            from repro.parallel import WorkerPool

            with WorkerPool.for_cache(cache, workers=args.workers) as pool:
                result = run_figure(setup, args.number, cache, pool=pool)
        else:
            result = run_figure(setup, args.number, cache)
    print(format_figure_table(result))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(figure_to_json(result))
        print(f"wrote {args.json}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(figure_to_csv(result))
        print(f"wrote {args.csv}")
    if obs:
        _obs_finish(args)
    _ledger_pend(
        args, "figure", f"fig{args.number:02d}",
        {"command": "figure", "figure": args.number, **cache.describe()},
        figure_json=args.json, figure_csv=args.csv,
        sample_sink=getattr(args, "sample", None),
        flight_record=getattr(args, "flight_record", None),
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


def _cmd_deploy(args: argparse.Namespace) -> int:
    obs = _obs_begin(args)
    planner = DecorPlanner(
        Rect.square(args.side),
        SensorSpec(args.rs, args.rc),
        n_points=args.points,
        seed=args.seed,
    )
    with LEDGER.stage("deploy"):
        result = planner.deploy(
            args.k, method=args.method, cell_size=args.cell_size
        )
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
    if obs:
        bridge_field_stats(planner.field)
        _obs_finish(args)
    _ledger_pend(
        args, "deploy", f"deploy-{args.method}-k{args.k}",
        _planner_config(args, "deploy"),
        sample_sink=getattr(args, "sample", None),
        flight_record=getattr(args, "flight_record", None),
    )
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    from repro.experiments import format_summary_table, method_summary
    from repro.experiments.runner import DeploymentCache

    obs = _obs_begin(args)
    setup = _setup_from_args(args)
    k = min(args.k, max(setup.k_values))
    cache = DeploymentCache(setup)
    with LEDGER.stage("summary"):
        if args.workers is not None and args.workers > 1:
            from repro.experiments.setup import SERIES
            from repro.parallel import WorkerPool

            cells = [
                (s.name, k, seed)
                for s in SERIES
                for seed in range(setup.n_seeds)
            ]
            with WorkerPool.for_cache(cache, workers=args.workers) as pool:
                cache.prefill(cells, pool=pool)
        rows = method_summary(setup, k, cache)
    print(format_summary_table(rows))
    if obs:
        _obs_finish(args)
    _ledger_pend(
        args, "summary", f"summary-k{k}",
        {"command": "summary", "k": k, **cache.describe()},
        sample_sink=getattr(args, "sample", None),
        flight_record=getattr(args, "flight_record", None),
    )
    return 0


def _cmd_restore(args: argparse.Namespace) -> int:
    if args.epochs < 1:
        raise ConfigurationError(f"--epochs must be >= 1, got {args.epochs}")
    obs = _obs_begin(args)
    planner = DecorPlanner(
        Rect.square(args.side),
        SensorSpec(args.rs, args.rc),
        n_points=args.points,
        seed=args.seed,
    )
    with LEDGER.stage("deploy"):
        result = planner.deploy(
            args.k, method=args.method, cell_size=args.cell_size
        )
    radius = args.disaster_radius or 0.24 * args.side
    print(f"deployed           : {result.total_alive} nodes (k={args.k}, "
          f"{args.method})")
    if args.epochs == 1 and args.warm is None:
        # the classic one-shot flow: one disaster disc, one repair
        event = area_failure(result.deployment, planner.region.center, radius)
        with LEDGER.stage("restore"):
            report = planner.restore_after(
                result, event, method=args.method, cell_size=args.cell_size
            )
        print(f"disaster           : radius {radius:g}, "
              f"{event.n_failed} nodes lost")
        print(f"coverage after loss: {report.covered_after_failure:.1%}")
        print(f"repair             : +{report.extra_nodes} nodes -> "
              f"{report.covered_after_repair:.0%} k-covered")
    else:
        from repro.experiments.epochs import epoch_failure

        session = planner.session(
            result, method=args.method, warm=args.warm,
            cell_size=args.cell_size,
        )
        total = 0
        with LEDGER.stage("restore"):
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
        mode = "warm" if session.warm else "cold"
        print(f"survived           : {session.epoch} epochs ({mode}), "
              f"+{total} nodes total, "
              f"{session.deployment.n_alive} alive")
    if obs:
        bridge_field_stats(planner.field)
        _obs_finish(args)
    config = _planner_config(args, "restore")
    config.update(
        epochs=args.epochs,
        warm=args.warm,
        disaster_radius=radius,
        restore_mode=os.environ.get("REPRO_RESTORE", "warm"),
    )
    _ledger_pend(
        args, "restore", f"restore-{args.method}-k{args.k}", config,
        sample_sink=getattr(args, "sample", None),
        flight_record=getattr(args, "flight_record", None),
    )
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
    from repro.obs.export import (
        ExpositionServer,
        load_registry,
        parse_exposition,
        prometheus_exposition,
    )

    if args.obs_command == "serve":
        if args.once:
            print(prometheus_exposition(load_registry(args.source)), end="")
            return 0
        server = ExpositionServer(
            lambda: load_registry(args.source),
            host=args.host, port=args.port,
        ).start()
        print(f"serving {args.source} at {server.url} (ctrl-c to stop)")
        try:
            server.wait()
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            server.stop()
        return 0
    if args.obs_command == "scrape":
        import urllib.request

        with urllib.request.urlopen(args.url) as resp:  # noqa: S310
            text = resp.read().decode("utf-8")
        parsed = parse_exposition(text)
        print(
            f"{args.url}: valid exposition — {len(parsed['samples'])} "
            f"samples across {len(parsed['families'])} metric families"
        )
        return 0
    if args.obs_command == "summarize":
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
    raise AssertionError("unreachable")  # pragma: no cover


def _summarize_export(source: str) -> str:
    """Pretty-print any export the CLI writes (metrics/trace/samples)."""
    import json as _json

    from repro.experiments.summary import summarize_trace
    from repro.obs.top import load_rows, series_table

    text = open(source, encoding="utf-8").read()
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
    """Top counters and histogram quantiles from an as_dict metrics dump."""
    from repro.obs.export import registry_from_metrics_json
    from repro.obs.metrics import Histogram

    registry = registry_from_metrics_json(doc)
    counters: list[tuple[float, str]] = []
    hists: list[tuple[str, Histogram]] = []
    for name, labels, kind, payload in registry.dump_state():
        key = name + (
            "{" + ",".join(f"{k}={v}" for k, v in labels) + "}" if labels
            else ""
        )
        if kind == "counter":
            counters.append((float(payload["value"]), key))
        elif kind == "histogram":
            hists.append((key, registry.histogram(name, **dict(labels))))
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
    trajectories (first -> last reading) and histogram quantile shifts.
    """
    from repro.obs.export import _split_series_key, registry_from_samples
    from repro.obs.ledger import (
        diff_sections,
        render_sections,
        sections_from_sample_rows,
    )
    from repro.obs.top import load_rows, series_table

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
    hist_keys = sorted(
        set(sections_a["histograms"]) | set(sections_b["histograms"])
    )
    if hist_keys:
        reg_a = registry_from_samples(rows_a)
        reg_b = registry_from_samples(rows_b)
        lines.append("histogram quantiles (p50/p95/p99):")
        for key in hist_keys:
            name, labels = _split_series_key(key)
            lines.append(
                f"  {key}: a {_quantile_summary(reg_a, name, labels)}, "
                f"b {_quantile_summary(reg_b, name, labels)}"
            )
    return "\n".join(lines) + "\n"


def _trajectory(points: list[tuple[float, float]] | None) -> str:
    if not points:
        return "absent"
    return f"{points[0][1]:g} -> {points[-1][1]:g}"


def _quantile_summary(registry, name: str, labels: dict) -> str:
    hist = registry.histogram(name, **labels)
    if hist.count == 0:
        return "empty"
    return (
        f"n={hist.count} p50={hist.quantile(0.5):g} "
        f"p95={hist.quantile(0.95):g} p99={hist.quantile(0.99):g}"
    )


def _ledger_store(args: argparse.Namespace):
    """The store ``decor runs`` queries: --ledger, the live one, or default."""
    from repro.obs.ledger import DEFAULT_LEDGER_ROOT, LedgerStore

    if getattr(args, "ledger", None):
        return LedgerStore(args.ledger)
    if LEDGER.enabled and LEDGER.store is not None:
        return LEDGER.store
    return LedgerStore(DEFAULT_LEDGER_ROOT)


def _cmd_runs(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs.ledger import (
        RegressOptions,
        baseline_rows,
        diff_is_clean,
        diff_rows,
        render_diff,
        run_detectors,
    )

    store = _ledger_store(args)
    if args.runs_command == "list":
        rows = store.rows()
        if args.kind:
            rows = [r for r in rows if r.get("kind") == args.kind]
        if args.label:
            rows = [r for r in rows if r.get("label") == args.label]
        shown = rows[-args.limit:] if args.limit and args.limit > 0 else rows
        if not shown:
            print(f"no matching runs recorded under {store.root}")
            return 0
        for row in shown:
            wall = sum(row.get("wall", {}).values())
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
    if args.runs_command == "regress":
        run = store.resolve(args.ref)
        baseline = baseline_rows(store.rows(), run, window=args.window)
        options = RegressOptions(
            tolerance=args.tolerance,
            wall_tolerance=args.wall_tolerance,
            detectors=tuple(args.detector) if args.detector else None,
        )
        findings = run_detectors(run, baseline, options)
        print(
            f"{run.get('run_id')}: {len(baseline)} baseline run(s), "
            f"{len(findings)} finding(s)"
        )
        for finding in findings:
            print("  " + finding.format())
        return 1 if findings else 0
    raise AssertionError("unreachable")  # pragma: no cover


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.top import run_top

    run_top(
        args.source,
        follow=args.follow,
        interval=args.interval,
        frames=args.frames,
        width=args.width,
        limit=args.limit,
        prefix=args.prefix,
    )
    return 0


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


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "deploy":
        return _cmd_deploy(args)
    if args.command == "summary":
        return _cmd_summary(args)
    if args.command == "restore":
        return _cmd_restore(args)
    if args.command == "lifetime":
        return _cmd_lifetime(args)
    if args.command == "gallery":
        return _cmd_gallery(args)
    if args.command == "obs":
        return _cmd_obs(args)
    if args.command == "runs":
        return _cmd_runs(args)
    if args.command == "top":
        return _cmd_top(args)
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
        path = getattr(args, "flight_record", None)
        if path:
            header = ("cli", {"argv": _flightrec_argv(raw)})
            with FREC.session(path, header=header) as session:
                code = _dispatch(args)
            print(f"wrote {path} ({len(session.records)} flight records)")
            _ledger_finish(args)
            return code
        code = _dispatch(args)
        _ledger_finish(args)
        return code
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

#!/usr/bin/env python3
"""Enforce the bench ratchet: counted work only shrinks.

The companion of ``tools/typing_ratchet.py`` for performance: where the
typing ratchet pins which packages are strictly typed, this one pins how
much *work* the benefit engine and the telemetry pipeline do on
canonical workloads, so an innocent-looking refactor cannot quietly
re-introduce full-field re-accounting:

1. **epoch sweep** — steady-state benefit entries updated incrementally
   (``benefit_delta_updates_total``) by warm vs cold restoration across
   small-disc failure epochs at the paper's fig08 field scale (the
   warm-start gate; epoch 0 is the warm-up and is excluded, see
   ``benchmarks/test_bench_warm_restore.py``).
2. **telemetry** — sample rows and series the live-telemetry sampler
   emits on the smoke fig08 sweep (the PR 7 pipeline): the row count is
   deterministic (one per cell, logical clock), so it ratchets like any
   other counter; wall medians with the sampler off vs on ride along
   under the wall-clock bound.

The counters are deterministic (seeded fields, integer work counts), so
their gate is tight: the measured value may not exceed the recorded one
by more than ``--tolerance`` (default 5%), and a recorded counter the
current measurement no longer produces fails the gate rather than
passing unchecked.  The ``wall_seconds`` entries are recorded for
context and gated only by the generous ``--wall-factor`` (default 10x)
— timing is machine-dependent, counters are the contract.  Wall time is
gated end to end by the ``benchmarks/e2e`` workloads and by the >= 2x
fan-out gate of ``benchmarks/test_bench_pr4.py``.

Exit status 0 when the ratchet holds, 1 with a findings report otherwise.

Every measuring pass also appends one ``kind="bench"`` row (counters +
wall timings + the full nested measurements) to the repository's run
ledger (``.decor/ledger``), so ``decor runs list --kind bench`` shows
the ratchet's trajectory and ``--from-ledger`` can re-run the gate
against the most recent config-matching row without re-measuring.

Usage::

    python tools/bench_ratchet.py [--root REPO_ROOT]   # check
    python tools/bench_ratchet.py --update              # re-record
    python tools/bench_ratchet.py --from-ledger         # gate last row
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

RECORD_NAME = "bench_ratchet.json"


def _import_repro(root: Path) -> None:
    src = root / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def measure_epoch_sweep(root: Path, *, epochs: int = 6) -> dict:
    """Steady-state warm/cold benefit delta updates at the paper fig08
    scale."""
    _import_repro(root)
    import numpy as np

    from repro.core.restoration import RestorationSession
    from repro.experiments import ExperimentSetup
    from repro.experiments.runner import DeploymentCache
    from repro.experiments.setup import series_by_name
    from repro.network.failures import area_failure
    from repro.obs import OBS

    setup = ExperimentSetup.paper().with_seeds(1)
    cache = DeploymentCache(setup)
    series = series_by_name("centralized")
    result = cache.get(series, 2, 0)
    field = cache.field(0)
    spec = setup.spec_for(series)

    out: dict = {"delta_updates": {}, "wall_seconds": {}, "epochs": epochs}
    for warm in (True, False):
        session = RestorationSession(
            field, spec, result.deployment, 2, "centralized", warm=warm
        )
        OBS.enable(fresh=True)
        warmup = 0
        t0 = time.perf_counter()
        try:
            for epoch in range(epochs):
                center = setup.region.sample(
                    1, np.random.default_rng(90_000 + epoch)
                )[0]
                session.restore(
                    area_failure(session.deployment, center, setup.rs)
                )
                if epoch == 0:
                    warmup = OBS.metrics.value("benefit_delta_updates_total")
        finally:
            wall = time.perf_counter() - t0
            OBS.disable()
        total = OBS.metrics.value("benefit_delta_updates_total")
        OBS.reset()
        mode = "warm" if warm else "cold"
        out["delta_updates"][mode] = int(total - warmup)
        out["wall_seconds"][mode] = round(wall, 4)
    return out


def measure_telemetry(root: Path, *, rounds: int = 3) -> dict:
    """Sample-row volume and wall medians of the sampled fig08 sweep."""
    _import_repro(root)
    import statistics

    from repro.experiments import ExperimentSetup
    from repro.experiments.figures import cells_for_figure
    from repro.experiments.runner import DeploymentCache
    from repro.obs import OBS
    from repro.parallel import prefill_cache

    setup = ExperimentSetup.smoke()
    cells = cells_for_figure(setup, 8)
    sample_rows = 0
    series_count = 0
    walls: dict[str, list[float]] = {"off": [], "on": []}
    for _ in range(rounds):
        t0 = time.perf_counter()
        prefill_cache(DeploymentCache(setup), cells)
        walls["off"].append(time.perf_counter() - t0)

        OBS.enable(fresh=True)
        t0 = time.perf_counter()
        try:
            prefill_cache(DeploymentCache(setup), cells)
        finally:
            walls["on"].append(time.perf_counter() - t0)
            OBS.disable()
        sample_rows = OBS.sampler.seq
        series_count = len({
            key for row in OBS.sampler.rows() for key in row["series"]
        })
        OBS.reset()
    return {
        "sample_rows": sample_rows,
        "distinct_series": series_count,
        "wall_seconds": {
            mode: round(statistics.median(vals), 4)
            for mode, vals in walls.items()
        },
    }


def measure(root: Path) -> dict:
    return {
        "epoch_sweep": measure_epoch_sweep(root),
        "telemetry": measure_telemetry(root),
    }


def _ratchet_config() -> dict:
    """The config fingerprinted into the ratchet's ledger rows."""
    return {
        "command": "bench_ratchet",
        "scale": os.environ.get("REPRO_SCALE") or "smoke",
        "cpu_count": os.cpu_count(),
    }


def append_ledger_row(root: Path, current: dict) -> dict:
    """Record one ``kind="bench"`` ledger row for this measurement pass.

    Counter leaves ride the ledger's counter section (tight drift gate),
    timing leaves the masked ``wall`` section; the full nested
    measurement dict rides along under ``measurements`` so
    ``--from-ledger`` can re-run the ratchet gate without re-measuring.
    """
    _import_repro(root)
    from repro.obs.ledger import LedgerStore, build_row

    row = build_row(
        "bench",
        "bench_ratchet",
        _ratchet_config(),
        metrics={
            "counters": dict(_walk_counters(current)),
            "gauges": {},
            "histograms": {},
        },
        wall=dict(_walk_walls(current)),
    )
    row["measurements"] = current
    LedgerStore(root / ".decor" / "ledger").append(row)
    return row


def measurements_from_ledger(root: Path) -> dict:
    """The most recent config-matching ``bench_ratchet`` ledger row's
    measurements (for gating a run that already happened)."""
    _import_repro(root)
    from repro.obs.ledger import LedgerStore, config_fingerprint

    fingerprint = config_fingerprint(_ratchet_config())
    store = LedgerStore(root / ".decor" / "ledger")
    candidates = [
        row
        for row in store.rows()
        if row.get("kind") == "bench"
        and row.get("label") == "bench_ratchet"
        and row.get("fingerprint") == fingerprint
        and isinstance(row.get("measurements"), dict)
    ]
    if not candidates:
        raise SystemExit(
            f"RATCHET: no bench_ratchet row for this config in "
            f"{store.root} -- run without --from-ledger first"
        )
    return candidates[-1]["measurements"]


def _walk_counters(d: dict, prefix: str = "") -> list[tuple[str, float]]:
    """Flatten nested numeric leaves, skipping timing subtrees."""
    out: list[tuple[str, float]] = []
    for key, value in d.items():
        path = f"{prefix}.{key}" if prefix else key
        if key == "wall_seconds":
            continue
        if isinstance(value, dict):
            out.extend(_walk_counters(value, path))
        elif isinstance(value, (int, float)):
            out.append((path, float(value)))
    return out


def _walk_walls(d: dict, prefix: str = "") -> list[tuple[str, float]]:
    out: list[tuple[str, float]] = []
    for key, value in d.items():
        path = f"{prefix}.{key}" if prefix else key
        if key == "wall_seconds" and isinstance(value, dict):
            out.extend(
                (f"{path}.{k}", float(v)) for k, v in value.items()
            )
        elif isinstance(value, dict):
            out.extend(_walk_walls(value, path))
    return out


def check(recorded: dict, current: dict, *, tolerance: float,
          wall_factor: float) -> int:
    failures = 0
    rec_counters = dict(_walk_counters(recorded))
    cur_counters = dict(_walk_counters(current))
    for path in sorted(rec_counters.keys() - cur_counters.keys()):
        print(f"RATCHET: recorded {path} is missing from this measurement "
              f"-- if it was deleted on purpose, re-record with --update")
        failures += 1
    for path, value in cur_counters.items():
        baseline = rec_counters.get(path)
        if baseline is None:
            print(f"RATCHET: {path} = {value:g} has no recorded baseline "
                  f"-- run with --update to record it")
            failures += 1
        elif value > baseline * (1.0 + tolerance):
            print(
                f"RATCHET: {path} regressed: {value:g} > recorded "
                f"{baseline:g} (+{100 * (value / baseline - 1):.1f}%, "
                f"tolerance {100 * tolerance:.0f}%) -- counted work "
                "only shrinks; if the increase is deliberate, re-record "
                "with --update"
            )
            failures += 1
    rec_walls = dict(_walk_walls(recorded))
    for path, value in _walk_walls(current):
        baseline = rec_walls.get(path)
        if baseline and value > baseline * wall_factor:
            print(
                f"RATCHET: {path} took {value:.3f}s vs recorded "
                f"{baseline:.3f}s (> {wall_factor:g}x) -- wall-clock "
                "sanity bound blown"
            )
            failures += 1
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="repository root (default: the tree this script lives in)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="re-measure and rewrite the recorded numbers",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.05,
        help="allowed relative counter increase (default 0.05 = 5%%)",
    )
    parser.add_argument(
        "--wall-factor", type=float, default=10.0,
        help="allowed wall-clock multiple of the recorded time (default 10x)",
    )
    parser.add_argument(
        "--from-ledger", action="store_true",
        help="gate the most recent config-matching bench_ratchet ledger "
             "row instead of re-measuring (pairs with a prior run that "
             "recorded one)",
    )
    opts = parser.parse_args(argv)
    root: Path = opts.root
    record_path = root / "tools" / RECORD_NAME

    if opts.from_ledger:
        current = measurements_from_ledger(root)
    else:
        current = measure(root)
        append_ledger_row(root, current)
    if opts.update:
        record_path.write_text(
            json.dumps(current, indent=2) + "\n", encoding="utf-8"
        )
        print(f"bench ratchet: recorded -> {record_path.relative_to(root)}")
        return 0

    if not record_path.is_file():
        print(
            f"RATCHET: {record_path} is missing -- run "
            "`python tools/bench_ratchet.py --update` to record baselines",
            file=sys.stderr,
        )
        return 1
    recorded = json.loads(record_path.read_text(encoding="utf-8"))
    failures = check(
        recorded, current,
        tolerance=opts.tolerance, wall_factor=opts.wall_factor,
    )
    if failures:
        print(f"bench ratchet: {failures} failure(s)", file=sys.stderr)
        return 1
    updates = current["epoch_sweep"]["delta_updates"]
    print(
        "bench ratchet: OK (epoch sweep delta updates "
        f"warm {updates['warm']} vs cold {updates['cold']})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

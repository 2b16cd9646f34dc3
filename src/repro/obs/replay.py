"""Flight-stream schema validation and deterministic replay.

A flight recording (see :mod:`repro.obs.flightrec`) contains only
simulation-derived data, so re-running the producer must reproduce the
stream *byte for byte*.  This module turns that claim into a checkable
property:

* :func:`load_stream` / :func:`validate_stream` — parse a JSONL recording
  and verify its structural invariants (header first, non-nested run
  blocks with consecutive run numbers, contiguous per-run sequence
  numbers, causes that reference earlier events, exact Lamport-clock
  arithmetic, non-decreasing sim time per block);
* :func:`replay_stream` — re-execute the producer named by the stream
  header (a registered *replay entry*) under a fresh flight recording;
* :func:`verify_stream` — replay and compare, reporting the first
  diverging record if the streams differ;
* :func:`record_protocol_run` — the canonical replayable producer: a
  seeded protocol scenario (``grid``/``voronoi``/``restoration``) whose
  parameters fit in the stream header.

Two entries ship by default: ``"protocol"`` (the scenario above) and
``"cli"`` (re-invoking :func:`repro.cli.main` on recorded argv — the CLI
records a cleaned argv without output/worker flags, so a parallel sweep
replays serially and must still match, run block for run block).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.errors import ObservabilityError
from repro.obs.flightrec import RECORD_TYPES
from repro.obs.runtime import NULL_FLIGHT, OBS

__all__ = [
    "ReplayReport",
    "REPLAY_ENTRIES",
    "load_stream",
    "record_protocol_run",
    "replay_entry",
    "replay_stream",
    "validate_stream",
    "verify_stream",
]

#: Registered replay entry points: name -> callable(params).
REPLAY_ENTRIES: dict[str, Callable[[dict[str, Any]], None]] = {}


def replay_entry(name: str) -> Callable:
    """Register a replay entry point under ``name`` (decorator)."""

    def register(fn: Callable[[dict[str, Any]], None]) -> Callable:
        REPLAY_ENTRIES[name] = fn
        return fn

    return register


# ----------------------------------------------------------------------
# loading and validation
# ----------------------------------------------------------------------
def load_stream(path: str | os.PathLike) -> list[dict[str, Any]]:
    """Parse a JSONL flight recording into a record list."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ObservabilityError(
                    f"{path}:{lineno}: not valid JSON: {exc}"
                ) from exc
            if not isinstance(rec, dict):
                raise ObservabilityError(
                    f"{path}:{lineno}: record is not an object"
                )
            records.append(rec)
    return records


def _fail(i: int, msg: str) -> None:
    raise ObservabilityError(f"flight stream invalid at record {i}: {msg}")


def validate_stream(records: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Check a stream's structural invariants; returns summary statistics.

    Raises :class:`~repro.errors.ObservabilityError` on the first
    violation.  The returned summary maps ``n_runs``/``n_events``/
    ``has_header``/``kinds`` (a per-kind event count).
    """
    records = list(records)
    n_runs = 0
    n_events = 0
    kinds: dict[str, int] = {}
    has_header = False
    in_run = False
    expect_seq = 0
    last_t = float("-inf")
    lamport: dict[int, int] = {}
    send_lamport: dict[int, int] = {}
    event_kind_by_id: dict[int, str] = {}

    for i, rec in enumerate(records):
        rtype = rec.get("type")
        if rtype not in RECORD_TYPES:
            _fail(i, f"unknown record type {rtype!r}")
        if rtype == "header":
            if i != 0:
                _fail(i, "header must be the first record")
            if not isinstance(rec.get("entry"), str):
                _fail(i, "header lacks a string 'entry'")
            if not isinstance(rec.get("params"), dict):
                _fail(i, "header lacks a 'params' object")
            has_header = True
        elif rtype == "begin":
            if in_run:
                _fail(i, "begin inside an open run block")
            if rec.get("run") != n_runs + 1:
                _fail(i, f"expected run {n_runs + 1}, got {rec.get('run')}")
            if not isinstance(rec.get("protocol"), str):
                _fail(i, "begin lacks a string 'protocol'")
            n_runs += 1
            in_run = True
            expect_seq = 0
            last_t = float("-inf")
            lamport = {}
            send_lamport = {}
            event_kind_by_id = {}
        elif rtype == "end":
            if not in_run:
                _fail(i, "end without an open run block")
            if rec.get("run") != n_runs:
                _fail(i, f"end run {rec.get('run')} != open run {n_runs}")
            if rec.get("events") != expect_seq:
                _fail(i, f"end counts {rec.get('events')} events, saw {expect_seq}")
            in_run = False
        else:  # event
            if not in_run:
                _fail(i, "event outside a run block")
            if rec.get("seq") != expect_seq or rec.get("id") != expect_seq:
                _fail(
                    i,
                    f"expected seq/id {expect_seq}, got "
                    f"{rec.get('seq')}/{rec.get('id')}",
                )
            node = rec.get("node")
            if not isinstance(node, int):
                _fail(i, f"event node {node!r} is not an int")
            kind = rec.get("kind")
            if not isinstance(kind, str):
                _fail(i, f"event kind {kind!r} is not a string")
            t = rec.get("t")
            if not isinstance(t, (int, float)):
                _fail(i, f"event time {t!r} is not a number")
            if t < last_t:
                _fail(i, f"time {t} goes backwards (last was {last_t})")
            last_t = float(t)
            cause = rec.get("cause")
            if cause is not None:
                if not isinstance(cause, int) or not 0 <= cause < expect_seq:
                    _fail(i, f"cause {cause!r} does not name an earlier event")
            # exact Lamport arithmetic: deliveries merge the sender's
            # clock at send time, everything else ticks locally
            prev = lamport.get(node, 0)
            if kind == "deliver" and cause is not None:
                if event_kind_by_id.get(cause) != "send":
                    _fail(i, f"deliver cause {cause} is not a send")
                expected_lam = max(prev, send_lamport.get(cause, 0)) + 1
            else:
                expected_lam = prev + 1
            if rec.get("lamport") != expected_lam:
                _fail(
                    i,
                    f"lamport {rec.get('lamport')} for node {node} "
                    f"(expected {expected_lam})",
                )
            lamport[node] = expected_lam
            if kind == "send":
                send_lamport[expect_seq] = expected_lam
            event_kind_by_id[expect_seq] = kind
            if not isinstance(rec.get("attrs"), dict):
                _fail(i, "event lacks an 'attrs' object")
            kinds[kind] = kinds.get(kind, 0) + 1
            n_events += 1
            expect_seq += 1
    if in_run:
        _fail(len(records), "stream ends inside an open run block")
    return {
        "n_records": len(records),
        "n_runs": n_runs,
        "n_events": n_events,
        "has_header": has_header,
        "kinds": dict(sorted(kinds.items())),
    }


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
def _record(
    entry: str,
    params: dict[str, Any],
    fn: Callable[[dict[str, Any]], None],
    path: str | os.PathLike | None = None,
) -> list[dict[str, Any]]:
    """Run ``fn(params)`` in a fresh flight recording headed by
    ``entry``/``params``; returns its records (written to ``path`` when
    given), then drops the flight log and puts the ``OBS`` switch back as
    it found it."""
    saved = OBS.enabled
    OBS.enable(fresh=True, flight=True)
    try:
        OBS.flight.set_header(entry, params)
        fn(params)
        if path is not None:
            OBS.flight.write_jsonl(path)
        return OBS.flight.records()
    finally:
        OBS.flight = NULL_FLIGHT
        OBS.enabled = saved


def replay_stream(records: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Re-execute the producer named by the stream header.

    Returns the freshly recorded stream.  Raises if the stream has no
    header or names an unregistered entry.
    """
    if not records or records[0].get("type") != "header":
        raise ObservabilityError(
            "stream has no header record and cannot be replayed"
        )
    entry = records[0]["entry"]
    params = records[0]["params"]
    fn = REPLAY_ENTRIES.get(entry)
    if fn is None:
        raise ObservabilityError(
            f"no replay entry registered for {entry!r} "
            f"(known: {sorted(REPLAY_ENTRIES)})"
        )
    return _record(entry, params, fn)


@dataclass
class ReplayReport:
    """Outcome of a :func:`verify_stream` round trip.

    ``first_divergence`` is the index of the first differing record
    (``None`` when the streams match), and ``detail`` renders the two
    records side by side for diagnostics.
    """

    entry: str
    matches: bool
    n_records: int
    n_replayed: int
    first_divergence: int | None = None
    detail: str = ""


def _canon(rec: dict[str, Any]) -> str:
    return json.dumps(rec, sort_keys=True, allow_nan=False)


def verify_stream(records: list[dict[str, Any]]) -> ReplayReport:
    """Replay a stream and compare it record by record with the original."""
    validate_stream(records)
    replayed = replay_stream(records)
    a = [_canon(r) for r in records]
    b = [_canon(r) for r in replayed]
    if a == b:
        return ReplayReport(
            entry=records[0]["entry"], matches=True,
            n_records=len(a), n_replayed=len(b),
        )
    n = min(len(a), len(b))
    div = next((i for i in range(n) if a[i] != b[i]), n)
    detail = (
        f"recorded[{div}]: {a[div] if div < len(a) else '<missing>'}\n"
        f"replayed[{div}]: {b[div] if div < len(b) else '<missing>'}"
    )
    return ReplayReport(
        entry=records[0]["entry"], matches=False,
        n_records=len(a), n_replayed=len(b),
        first_divergence=div, detail=detail,
    )


# ----------------------------------------------------------------------
# replayable producers
# ----------------------------------------------------------------------
_PROTOCOL_DEFAULTS: dict[str, Any] = {
    "seed": 0,
    "n_points": 80,
    "k": 1,
    "side": 20.0,
    "cell_size": 10.0,
    "rs": 5.0,
    "rc": 15.0,
    "n_failed": 2,
}


def _scenario_field(params: dict[str, Any]) -> "tuple[Any, Any]":
    """The seeded uniform point field + region a scenario deploys over."""
    import numpy as np

    from repro.geometry.region import Rect

    side = float(params["side"])
    rng = np.random.default_rng(int(params["seed"]))
    pts = rng.uniform(0.0, side, size=(int(params["n_points"]), 2))
    return pts, Rect(0.0, 0.0, side, side)


@replay_entry("protocol")
def _run_protocol_scenario(params: dict[str, Any]) -> None:
    """Execute one seeded protocol run (the ``"protocol"`` replay entry)."""
    import numpy as np

    from repro.network.spec import SensorSpec

    params = {**_PROTOCOL_DEFAULTS, **params}
    protocol = params.get("protocol")
    pts, region = _scenario_field(params)
    spec = SensorSpec(
        sensing_radius=float(params["rs"]),
        communication_radius=float(params["rc"]),
    )
    k = int(params["k"])
    if protocol == "grid":
        from repro.core.protocols import run_grid_protocol

        run_grid_protocol(pts, spec, k, region, float(params["cell_size"]))
    elif protocol == "voronoi":
        from repro.core.voronoi_protocol import run_voronoi_protocol

        run_voronoi_protocol(pts, spec, k)
    elif protocol == "restoration":
        from repro.core.grid_decor import grid_decor
        from repro.core.restoration_protocol import run_restoration_protocol

        deployed = grid_decor(pts, spec, k, region, float(params["cell_size"]))
        positions = deployed.deployment.alive_positions()
        failed = np.arange(min(int(params["n_failed"]), len(positions)))
        run_restoration_protocol(
            pts, spec, k, region, float(params["cell_size"]),
            positions, failed, seed=int(params["seed"]),
        )
    else:
        raise ObservabilityError(
            f"unknown protocol scenario {protocol!r} "
            "(expected grid/voronoi/restoration)"
        )


@replay_entry("cli")
def _replay_cli(params: dict[str, Any]) -> None:
    """Re-invoke the CLI on recorded argv (the ``"cli"`` replay entry).

    The CLI records argv already cleaned of recording/output/worker flags
    (see :func:`repro.cli._flightrec_argv`), so replaying cannot recurse
    and a ``--workers N`` sweep replays serially.
    """
    from repro.cli import main

    argv = params.get("argv")
    if not isinstance(argv, list):
        raise ObservabilityError("cli replay header lacks an 'argv' list")
    main([str(a) for a in argv])


def record_protocol_run(
    protocol: str,
    path: str | os.PathLike | None = None,
    **overrides: Any,
) -> list[dict[str, Any]]:
    """Record one replayable seeded protocol run; returns its records.

    ``protocol`` is ``"grid"``, ``"voronoi"`` or ``"restoration"``;
    overrides adjust the scenario knobs (``seed``, ``n_points``, ``k``,
    ``side``, ``cell_size``, ``rs``, ``rc``, ``n_failed``).  When ``path``
    is given the stream is also written there as JSONL.
    """
    unknown = set(overrides) - set(_PROTOCOL_DEFAULTS)
    if unknown:
        raise ObservabilityError(
            f"unknown scenario parameters {sorted(unknown)}"
        )
    params = {"protocol": str(protocol), **_PROTOCOL_DEFAULTS, **overrides}
    return _record("protocol", params, _run_protocol_scenario, path)

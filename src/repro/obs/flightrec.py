"""Protocol flight recorder: causal, per-node structured event logs.

Where :mod:`repro.obs.trace` answers *"where did the wall-clock go?"*, the
flight recorder answers the distributed-systems question the DECOR
protocols raise: **which node said what to whom, when (in simulation time),
and why**.  It is the flight pillar of :data:`~repro.obs.OBS`: a recording
that asks for a flight log (``OBS.enable(fresh=True, flight=True)``)
installs a :class:`FlightRecorder` as ``OBS.flight``; otherwise
``OBS.flight`` is a shared null recorder.  Instrumented code emits through
``OBS.flight`` under the one ``if OBS.enabled:`` guard (lint rule OBS001)
and opens run blocks with ``OBS.run(...)``.

Record model
------------
A recording is a JSON-lines stream of four record types:

``header``
    At most one, first: who produced the stream and — when the producer is
    replayable (the CLI, :func:`repro.obs.replay.record_protocol_run`) —
    the ``entry``/``params`` needed to re-execute it.
``begin`` / ``end``
    Delimit one *run block*: one protocol or placement execution
    (``grid``, ``voronoi``, ``restoration``, ``grid_decor``, ...).  Blocks
    never nest and carry a 1-based ``run`` number; all per-run state
    (event ids, sequence numbers, Lamport clocks) is **run-local**, which
    is what makes a parallel sweep's merged stream byte-identical to the
    serial stream: blocks are self-contained and concatenate.
``event``
    One thing one node did.  Fields:

    ===========  ====================================================
    ``seq``      0-based position within the run block
    ``id``       run-local event id (== seq; kept separate for clarity)
    ``t``        simulation time (or round number for analytic runs)
    ``node``     acting node id (cell/site id for analytic runs)
    ``kind``     ``send``/``deliver``/``drop``/``timer_set``/
                 ``timer_fire``/``start``/``fail``/``placement``/
                 ``elected``/``suspect``/``rescind``/``handoff``/...
    ``cause``    event id of the message delivery or timer firing that
                 triggered this event (``null`` for spontaneous events)
    ``lamport``  per-node Lamport clock: local events tick ``+1``;
                 a ``deliver`` ticks to ``max(own, sender_at_send) + 1``,
                 so ``lamport`` orders causally-related events even when
                 simulation timestamps tie
    ``attrs``    free-form details, scrubbed JSON-safe via
                 :func:`repro.obs.trace.scrub`
    ===========  ====================================================

Causal context: :meth:`FlightRecorder.set_cause` marks the event currently
being handled (a delivery, a timer firing); subsequent emits default their
``cause`` to it.  :meth:`~repro.sim.engine.Simulator.step` clears the
context before each callback so causes never leak between events.

Determinism: records contain only simulation-derived data — no wall clock,
no entropy — so one ``(spec, seed, protocol)`` always produces the same
byte stream.  :mod:`repro.obs.replay` turns that into a checkable property.
"""

from __future__ import annotations

import json
import os
from types import TracebackType
from typing import Any, Iterable

from repro.errors import ObservabilityError
from repro.obs.trace import scrub

__all__ = ["FlightRecorder", "RECORD_TYPES", "EVENT_KINDS"]

#: The record ``type`` values a stream may contain.
RECORD_TYPES = ("header", "begin", "end", "event")

#: Known event kinds (open set — analyzers tolerate others).
EVENT_KINDS = (
    "send",
    "deliver",
    "drop",
    "timer_set",
    "timer_fire",
    "start",
    "fail",
    "placement",
    "handoff",
    "elected",
    "suspect",
    "rescind",
    "crash",
    "restored",
)

#: Sentinel: "use the recorder's current causal context".
_CONTEXT = object()


class _Run:
    """An open run block; closes it (emitting ``end``) on exit."""

    __slots__ = ("_rec", "_owns", "_end_attrs")

    def __init__(self, rec: "FlightRecorder", owns: bool) -> None:
        self._rec = rec
        self._owns = owns
        self._end_attrs: dict[str, Any] = {}

    def set(self, **attrs: object) -> "_Run":
        """Attach attributes to the eventual ``end`` record."""
        self._end_attrs.update(attrs)
        return self

    def __enter__(self) -> "_Run":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        if self._owns:
            if exc_type is not None:
                self._end_attrs.setdefault("error", exc_type.__name__)
            self._rec.end_run(**self._end_attrs)
        return False


class FlightRecorder:
    """Causal event recorder; see the module docstring.

    >>> rec = FlightRecorder()
    >>> with rec.run("demo", k=1):
    ...     sid = rec.emit_send(0, t=0.0, msg="HELLO", mode="broadcast")
    ...     did = rec.emit_deliver(1, sid, t=0.1, msg="HELLO")
    ...     rec.set_cause(did)
    ...     _ = rec.emit("placement", 1, t=0.1, point=7)
    >>> [r["type"] for r in rec.records()]
    ['begin', 'event', 'event', 'event', 'end']
    >>> [r.get("kind") for r in rec.records() if r["type"] == "event"]
    ['send', 'deliver', 'placement']
    >>> rec.records()[3]["cause"], rec.records()[3]["lamport"]
    (1, 3)
    """

    __slots__ = (
        "_records",
        "_run_counter",
        "_run_open",
        "_seq",
        "_lamport",
        "_send_lamport",
        "_cause",
        "_has_header",
    )

    def __init__(self) -> None:
        self._records: list[dict[str, Any]] = []
        self._run_counter = 0
        self._run_open = False
        self._seq = 0
        self._lamport: dict[int, int] = {}
        self._send_lamport: dict[int, int] = {}
        self._cause: int | None = None
        self._has_header = False

    # ------------------------------------------------------------------
    # header and run blocks
    # ------------------------------------------------------------------
    def set_header(self, entry: str, params: dict[str, Any], **meta: object) -> None:
        """Record the stream header (once, before any run block).

        ``entry``/``params`` name a registered replay entry point (see
        :mod:`repro.obs.replay`); streams recorded from raw arrays use
        ``entry="opaque"`` and cannot be replayed, only validated.
        """
        if self._has_header or self._records:
            raise ObservabilityError("flight stream header must be the first record")
        self._records.append(
            {
                "type": "header",
                "version": 1,
                "entry": str(entry),
                "params": scrub(params),
                "attrs": {k: scrub(v) for k, v in meta.items()},
            }
        )
        self._has_header = True

    def run(self, protocol: str, **meta: object) -> _Run:
        """Open a run block as a context manager.

        Re-entrant: opening a run while one is already open yields a
        pass-through manager (the events simply flow into the enclosing
        block), so a protocol built on another recorded routine does not
        fracture the stream.
        """
        if self._run_open:
            return _Run(self, owns=False)
        self.begin_run(protocol, **meta)
        return _Run(self, owns=True)

    def begin_run(self, protocol: str, **meta: object) -> None:
        """Start a run block; resets run-local ids/seq/Lamport clocks."""
        if self._run_open:
            raise ObservabilityError("flight run blocks cannot nest")
        self._run_counter += 1
        self._run_open = True
        self._seq = 0
        self._lamport = {}
        self._send_lamport = {}
        self._cause = None
        self._records.append(
            {
                "type": "begin",
                "run": self._run_counter,
                "protocol": str(protocol),
                "attrs": {k: scrub(v) for k, v in meta.items()},
            }
        )

    def end_run(self, **meta: object) -> None:
        """Close the open run block."""
        if not self._run_open:
            raise ObservabilityError("no open flight run block to end")
        self._records.append(
            {
                "type": "end",
                "run": self._run_counter,
                "events": self._seq,
                "attrs": {k: scrub(v) for k, v in meta.items()},
            }
        )
        self._run_open = False
        self._cause = None

    # ------------------------------------------------------------------
    # causal context
    # ------------------------------------------------------------------
    def set_cause(self, event_id: int | None) -> None:
        """Mark the event currently being handled as the default cause."""
        self._cause = event_id

    def clear_cause(self) -> None:
        """Drop the causal context (the kernel does this before each event)."""
        self._cause = None

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def emit(
        self,
        kind: str,
        node: int,
        *,
        t: float,
        cause: Any = _CONTEXT,
        **attrs: object,
    ) -> int:
        """Record one event by ``node`` at sim-time ``t``; returns its id.

        ``cause`` defaults to the current causal context; pass ``None``
        explicitly for a spontaneous event.  The node's Lamport clock ticks
        by one.
        """
        node = int(node)
        lam = self._lamport.get(node, 0) + 1
        self._lamport[node] = lam
        return self._append_event(kind, node, t, cause, lam, attrs)

    def emit_send(
        self,
        node: int,
        *,
        t: float,
        msg: str,
        mode: str = "broadcast",
        cause: Any = _CONTEXT,
        **attrs: object,
    ) -> int:
        """Record a transmission; remembers its Lamport stamp for delivery."""
        node = int(node)
        lam = self._lamport.get(node, 0) + 1
        self._lamport[node] = lam
        eid = self._append_event(
            "send", node, t, cause, lam, {"msg": msg, "mode": mode, **attrs}
        )
        self._send_lamport[eid] = lam
        return eid

    def emit_deliver(
        self,
        node: int,
        send_id: int | None,
        *,
        t: float,
        msg: str,
        **attrs: object,
    ) -> int:
        """Record a delivery caused by ``send_id``; merges Lamport clocks."""
        node = int(node)
        sender_lam = self._send_lamport.get(send_id, 0) if send_id is not None else 0
        lam = max(self._lamport.get(node, 0), sender_lam) + 1
        self._lamport[node] = lam
        return self._append_event(
            "deliver", node, t, send_id, lam, {"msg": msg, **attrs}
        )

    def _append_event(
        self,
        kind: str,
        node: int,
        t: float,
        cause: Any,
        lamport: int,
        attrs: dict[str, Any],
    ) -> int:
        eid = self._seq
        self._records.append(
            {
                "type": "event",
                "seq": self._seq,
                "id": eid,
                "t": float(t),
                "node": node,
                "kind": str(kind),
                "cause": self._cause if cause is _CONTEXT else cause,
                "lamport": int(lamport),
                "attrs": {k: scrub(v) for k, v in attrs.items()},
            }
        )
        self._seq += 1
        return eid

    # ------------------------------------------------------------------
    # access, merge, export
    # ------------------------------------------------------------------
    @property
    def n_runs(self) -> int:
        return self._run_counter

    def records(self) -> list[dict[str, Any]]:
        """The recorded stream, oldest first (a copy; safe to mutate)."""
        return [dict(r) for r in self._records]

    def absorb(self, records: Iterable[dict[str, Any]]) -> int:
        """Append another recorder's run blocks, renumbering their runs.

        The seam :func:`repro.obs.bridge.merge_worker_obs` uses: a worker
        ships run-local blocks, the parent renumbers ``begin``/``end``
        records into its own run sequence.  Headers are dropped (the parent
        owns the stream header); absorbing mid-block raises.

        Returns the number of records appended.
        """
        if self._run_open:
            raise ObservabilityError(
                "cannot absorb worker flight records into an open run block"
            )
        n = 0
        current: int | None = None
        for rec in records:
            rtype = rec.get("type")
            if rtype == "header":
                continue
            rec = dict(rec)
            if rtype == "begin":
                self._run_counter += 1
                current = self._run_counter
                rec["run"] = current
            elif rtype == "end":
                rec["run"] = current if current is not None else self._run_counter
                current = None
            self._records.append(rec)
            n += 1
        return n

    def to_jsonl(self) -> str:
        """The stream as JSON lines (one record per line, sorted keys)."""
        return "\n".join(
            json.dumps(rec, sort_keys=True, allow_nan=False)
            for rec in self._records
        )

    def write_jsonl(self, path: str | os.PathLike) -> int:
        """Write the stream to ``path``; returns the record count."""
        text = self.to_jsonl()
        with open(path, "w", encoding="utf-8") as fh:
            if text:
                fh.write(text + "\n")
        return len(self._records)

"""Lightweight tracing: nested spans in a ring buffer.

A :class:`Tracer` records **spans** — ``with tracer.span("series", k=3):``
blocks timed with ``perf_counter``; spans nest, and every record carries
its ``id``, ``parent`` id and ``depth`` so the figure → series → k →
placement hierarchy of a sweep is reconstructible from the flat stream.
What happened inside a span is not the tracer's: the flight log
(:mod:`repro.obs.flightrec`) narrates events, the metrics registry counts
them, and a placement run's :class:`~repro.core.result.PlacementTrace`
holds every placement.

Records land in a bounded ring buffer (oldest dropped first, with a
``dropped`` count) as plain dicts, exported as JSON lines — one record per
line, greppable and streamable, no schema registry needed.  Span records
are appended when the span *closes*, so a trace file lists children before
their parents (the usual post-order of tracing backends).

Spans are the one wall clock of a run.  Besides the ring, the tracer keeps
per-name totals (:attr:`Tracer.span_stats`) of every span it closed or
absorbed, evicted ones included, so the CLI's trace summary and a ledger
row's ``wall`` section stay whole however long the run.

The tracer assumes single-threaded, well-nested use — the same assumption
the rest of the reproduction makes.  Attribute values are scrubbed to
JSON-safe types at record time (NumPy scalars unwrapped, arrays listed,
non-finite floats stringified) so exports never fail late.
"""

from __future__ import annotations

import json
import math
import os
from collections import deque
from time import perf_counter
from types import TracebackType

import numpy as np

from repro.errors import ObservabilityError

__all__ = ["Span", "SpanStats", "Tracer", "scrub"]

#: Default ring-buffer capacity (span records).
DEFAULT_CAPACITY = 65536


def scrub(value: object) -> object:
    """Coerce an attribute value to a JSON-serialisable equivalent.

    NumPy scalars unwrap to Python scalars, arrays become lists, non-finite
    floats become the strings ``"nan"`` / ``"inf"`` / ``"-inf"`` (plain JSON
    has no representation for them), and anything unrecognised falls back to
    ``repr`` — a trace record must never be the thing that crashes a run.
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isfinite(v):
            return v
        return "nan" if math.isnan(v) else ("inf" if v > 0 else "-inf")
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, np.ndarray):
        return [scrub(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): scrub(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [scrub(v) for v in value]
    return repr(value)


class SpanStats:
    """Count, total and max seconds of all spans sharing one name."""

    __slots__ = ("name", "count", "total", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def add(self, duration: float) -> None:
        self.count += 1
        self.total += duration
        if duration > self.max:
            self.max = duration

    def merge(self, other: "SpanStats") -> None:
        """Fold another tracer's totals for this name into these."""
        self.count += other.count
        self.total += other.total
        if other.max > self.max:
            self.max = other.max


class Span:
    """One timed, attributed block; also its own context manager.

    Created by :meth:`Tracer.span`; entering pushes it on the tracer's span
    stack and starts the clock, exiting records it.  :meth:`set` attaches
    result attributes discovered while the span is open (e.g. the number of
    nodes a placement run ended up adding).
    """

    __slots__ = ("name", "attrs", "span_id", "parent_id", "depth", "_tracer", "_t0")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self.name = str(name)
        self.attrs = attrs
        self._tracer = tracer
        self.span_id = -1
        self.parent_id: int | None = None
        self.depth = 0
        self._t0 = 0.0

    def set(self, **attrs: object) -> "Span":
        """Attach (or overwrite) attributes on the open span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        tracer = self._tracer
        self.parent_id = tracer._stack[-1] if tracer._stack else None
        self.depth = len(tracer._stack)
        self.span_id = tracer._take_id()
        tracer._stack.append(self.span_id)
        self._t0 = perf_counter()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        duration = perf_counter() - self._t0
        tracer = self._tracer
        if not tracer._stack or tracer._stack[-1] != self.span_id:
            raise ObservabilityError(
                f"span {self.name!r} closed out of order; spans must nest"
            )
        tracer._stack.pop()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        tracer._append_span(
            {
                "type": "span",
                "name": self.name,
                "id": self.span_id,
                "parent": self.parent_id,
                "depth": self.depth,
                "t0": self._t0 - tracer._origin,
                "dur": duration,
                "attrs": {k: scrub(v) for k, v in self.attrs.items()},
            }
        )
        return False


class Tracer:
    """Span recorder over a bounded ring buffer.

    Parameters
    ----------
    capacity:
        Maximum records retained; older records are dropped (and counted in
        :attr:`dropped`) once the buffer is full, so a tracer can stay
        attached to an arbitrarily long run with bounded memory.

    Examples
    --------
    >>> tracer = Tracer()
    >>> with tracer.span("figure", figure="fig08"):
    ...     with tracer.span("series", series="centralized") as sp:
    ...         _ = sp.set(placed=1)
    >>> [r["name"] for r in tracer.records()]   # children close first
    ['series', 'figure']
    >>> tracer.records()[0]["attrs"] == {"series": "centralized", "placed": 1}
    True
    >>> (tracer.n_spans, tracer.dropped)
    (2, 0)

    Per-name span totals outlive the ring:

    >>> tiny = Tracer(capacity=1)
    >>> for _ in range(3):
    ...     with tiny.span("epoch"):
    ...         pass
    >>> (len(tiny), tiny.dropped, tiny.span_stats["epoch"].count)
    (1, 2, 3)
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ObservabilityError(f"trace capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._buffer: deque[dict] = deque(maxlen=self.capacity)
        self._stack: list[int] = []
        self._ids = 0
        self._origin = perf_counter()
        self.n_spans = 0
        self.dropped = 0
        #: ``name -> SpanStats`` over every span closed or absorbed,
        #: including those the ring has since evicted.
        self.span_stats: dict[str, SpanStats] = {}

    # ------------------------------------------------------------------
    def _take_id(self) -> int:
        self._ids += 1
        return self._ids

    def _append(self, record: dict) -> None:
        if len(self._buffer) == self.capacity:
            self.dropped += 1
        self._buffer.append(record)

    def _stats(self, name: str) -> SpanStats:
        stats = self.span_stats.get(name)
        if stats is None:
            stats = self.span_stats[name] = SpanStats(name)
        return stats

    def _append_span(self, record: dict) -> None:
        self._stats(record["name"]).add(float(record["dur"]))
        self.n_spans += 1
        self._append(record)

    def total(self, name: str) -> float:
        """Seconds spent in spans called ``name`` (0.0 if none closed)."""
        stats = self.span_stats.get(name)
        return stats.total if stats is not None else 0.0

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: object) -> Span:
        """A context manager timing one named, attributed block."""
        return Span(self, name, attrs)

    def __len__(self) -> int:
        return len(self._buffer)

    def records(self) -> list[dict]:
        """The retained records, oldest first (a copy; safe to mutate)."""
        return list(self._buffer)

    # ------------------------------------------------------------------
    # cross-process aggregation
    # ------------------------------------------------------------------
    def absorb(
        self,
        records: "list[dict] | Tracer",
        *,
        dropped: int = 0,
        span_stats: dict[str, SpanStats] | None = None,
    ) -> int:
        """Graft another tracer's :meth:`records` under the open span.

        Worker processes run their own tracer; the parent folds the shipped
        records back in with this method.  Span ids are remapped into this
        tracer's id space (two passes, because span records appear in
        post-order — a child's record precedes its parent's, so the parent's
        new id must exist before links are rewritten).  Top-level worker
        spans — and any record whose parent fell out of the worker's ring
        buffer — are re-parented under the currently open span here, and
        depths shift accordingly.  Timestamps stay relative to the *worker's*
        origin; within one absorbed batch they remain mutually consistent.

        ``records`` may be another :class:`Tracer` directly, in which case
        its ring-buffer overflow count and per-name span totals carry over
        automatically — records the worker already lost must stay counted
        as lost at the parent, and its evicted spans must still count in
        the parent's totals.  When passing a plain record list, propagate
        the source's count via ``dropped=`` and its totals via
        ``span_stats=`` (as :func:`repro.obs.bridge.merge_worker_obs` does
        from the shipped payload).  Per-name totals come only from the
        source's ``span_stats``, never from the absorbed span records, so
        a span is counted once whether or not its record was shipped.

        Returns the number of records absorbed.

        >>> parent, worker = Tracer(), Tracer()
        >>> with worker.span("cell", series="grid-small"):
        ...     with worker.span("placement", method="grid"):
        ...         pass
        >>> with parent.span("figure", figure="fig08"):
        ...     _ = parent.absorb(worker.records())
        >>> [(r["name"], r["depth"]) for r in parent.records()]
        [('placement', 2), ('cell', 1), ('figure', 0)]
        >>> parent.records()[1]["parent"] == parent.records()[2]["id"]
        True
        >>> evicting = Tracer(capacity=1)
        >>> for _ in range(3):
        ...     with evicting.span("epoch"):
        ...         pass
        >>> _ = parent.absorb(evicting)         # ships 1 of its 3 spans
        >>> (parent.dropped, parent.span_stats["epoch"].count)
        (2, 3)
        """
        if isinstance(records, Tracer):
            if records is self:
                raise ObservabilityError("a tracer cannot absorb itself")
            dropped += records.dropped
            span_stats = records.span_stats
            records = records.records()
        idmap = {rec["id"]: self._take_id() for rec in records}
        graft = self._stack[-1] if self._stack else None
        base_depth = len(self._stack)
        for rec in records:
            rec = dict(rec)
            rec["id"] = idmap[rec["id"]]
            parent = rec.get("parent")
            rec["parent"] = idmap[parent] if parent in idmap else graft
            rec["depth"] = int(rec.get("depth", 0)) + base_depth
            self.n_spans += 1
            self._append(rec)
        self.dropped += int(dropped)
        for name, stats in (span_stats or {}).items():
            self._stats(name).merge(stats)
        return len(records)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """The retained records as JSON lines (one record per line)."""
        return "\n".join(
            json.dumps(rec, sort_keys=True, allow_nan=False) for rec in self._buffer
        )

    def write_jsonl(self, path: str | os.PathLike) -> int:
        """Write the records to ``path`` as JSON lines; returns record count."""
        text = self.to_jsonl()
        with open(path, "w", encoding="utf-8") as fh:
            if text:
                fh.write(text + "\n")
        return len(self._buffer)

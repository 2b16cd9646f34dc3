"""Time-series sampling of the metrics registry, and its sink reader.

A :class:`MetricsSampler` turns the cumulative :class:`~repro.obs.metrics.
MetricsRegistry` into a bounded ring of timestamped *rows*: each row captures
the series that moved since the previous sample — counters and histograms as
deltas, gauges as their current reading — so the JSONL sink and ``decor obs
summarize`` see a trajectory instead of one end-of-run total.

One clock: **logical time**.  Every :meth:`~MetricsSampler.sample` call
emits a row and the timestamp is the row's sequence number.  Deterministic
by construction, which is what makes the serial-vs-workers byte-identity
guarantee of :mod:`repro.obs.bridge` extend to sampled series.  Sim-time
hooks record their own clock in the row *context*
(``sample("sim", sim_t=engine.now)``), so simulated seconds survive into
the exported series while the ``t`` field stays the sampler's own
(merge-stable) clock.

The ring keeps at most ``capacity`` rows.  A run's totals live in the
registry, which the run ledger harvests, so an evicted row loses only its
place in the trajectory.

Determinism caveat: FieldModel build/hit counters are process-local —
they depend on which worker first touched a seed.  They are excluded
from rows by default (:data:`EXCLUDED_PREFIXES`); they remain in the full
registry dump, just not in the sampled trajectory.

:func:`load_rows` and :func:`series_table` read a written sink back, and
:func:`fold_series` aggregates its rows.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import IO, Any, Iterable

from repro.errors import ObservabilityError
from repro.obs.metrics import Gauge, Histogram, MCounter, MetricsRegistry

__all__ = [
    "DEFAULT_SAMPLE_CAPACITY",
    "EXCLUDED_PREFIXES",
    "MetricsSampler",
    "empty_sections",
    "fold_series",
    "load_rows",
    "series_key",
    "series_table",
]

#: Ring capacity: plenty for a smoke sweep, bounded for long runs.
DEFAULT_SAMPLE_CAPACITY = 4096

#: Metric-name prefixes excluded from sample rows (see module docstring).
EXCLUDED_PREFIXES: tuple[str, ...] = ("field_model_",)

#: Schema version stamped into the sink header row.
SINK_VERSION = 1


def series_key(name: str, labels: Iterable[tuple[str, object]]) -> str:
    """Canonical flat key for one series: ``name{a=b,c=d}`` or ``name``.

    >>> series_key("radio_messages_sent_total", (("protocol", "grid"),))
    'radio_messages_sent_total{protocol=grid}'
    >>> series_key("health_coverage_fraction", ())
    'health_coverage_fraction'
    """
    pairs = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{pairs}}}" if pairs else name


def empty_sections() -> dict[str, dict[str, Any]]:
    """Empty counter/gauge/histogram sections (the ledger row shape)."""
    return {"counters": {}, "gauges": {}, "histograms": {}}


def fold_series(sections: dict[str, dict[str, Any]], series: dict[str, Any]) -> None:
    """Fold one row's ``series`` into counter/gauge/histogram sections.

    Counters and histogram count/sum add up, gauges keep the last reading.

    >>> sections = empty_sections()
    >>> fold_series(sections, {"a_total": {"k": "counter", "v": 2}})
    >>> fold_series(sections, {"a_total": {"k": "counter", "v": 3}})
    >>> sections["counters"]
    {'a_total': 5}
    """
    for key, entry in series.items():
        kind = entry.get("k")
        if kind == "counter":
            counters = sections["counters"]
            counters[key] = counters.get(key, 0) + entry["v"]
        elif kind == "gauge":
            sections["gauges"][key] = entry["v"]
        elif kind == "histogram":
            hist = sections["histograms"].setdefault(key, {"count": 0, "sum": 0.0})
            hist["count"] += int(entry["count"])
            hist["sum"] += float(entry["sum"])


def _scalarize(inst: MCounter | Gauge | Histogram) -> Any:
    """The comparable per-series state a delta is computed against."""
    if isinstance(inst, Histogram):
        return (inst.count, inst.sum)
    return inst.value


class MetricsSampler:
    """Bounded ring of timestamped registry deltas.

    >>> reg = MetricsRegistry()
    >>> s = MetricsSampler(reg)
    >>> reg.counter("beacons_total").inc(3)
    >>> _ = s.sample("cell", seed=0)
    >>> reg.counter("beacons_total").inc(2)
    >>> reg.gauge("health_coverage_fraction").set(0.75)
    >>> _ = s.sample("cell", seed=1)
    >>> [r["series"]["beacons_total"]["v"] for r in s.rows()]
    [3, 2]
    >>> s.rows()[1]["series"]["health_coverage_fraction"]
    {'k': 'gauge', 'v': 0.75}
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        capacity: int = DEFAULT_SAMPLE_CAPACITY,
        exclude: tuple[str, ...] = EXCLUDED_PREFIXES,
        stream: IO[str] | None = None,
    ) -> None:
        if capacity < 1:
            raise ObservabilityError(f"sample capacity must be >= 1, got {capacity}")
        self.registry = registry
        self.exclude = tuple(exclude)
        self._rows: deque[dict[str, Any]] = deque(maxlen=capacity)
        self.dropped = 0
        self.seq = 0
        self._last: dict[tuple, Any] = {}
        self._stream = stream
        if stream is not None:
            stream.write(json.dumps(self.header(), sort_keys=True) + "\n")
            stream.flush()

    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        return len(self._rows)

    def header(self) -> dict[str, Any]:
        """The sink's self-describing first row.

        ``capacity`` and ``dropped`` make ring overflow visible on
        reload: a sink written after eviction says how many oldest rows
        are missing (its first sample row's ``seq`` equals ``dropped``).
        A streaming sink's header is written at attach time (``dropped``
        is 0 there — the stream itself never evicts).  ``period`` and
        ``clock`` are constants kept for sink compatibility.
        """
        return {
            "type": "header",
            "version": SINK_VERSION,
            "kind": "samples",
            "period": 0.0,
            "clock": "logical",
            "exclude": list(self.exclude),
            "capacity": self._rows.maxlen,
            "dropped": self.dropped,
        }

    def rows(self) -> list[dict[str, Any]]:
        return list(self._rows)

    # ------------------------------------------------------------------
    def _deltas(self) -> dict[str, Any]:
        """The series touched since the last row, as a row records them;
        advances the delta baseline and clears the registry's touched set."""
        series: dict[str, Any] = {}
        for name, labels, inst in self.registry.touched():
            if name.startswith(self.exclude):
                continue
            key = (name, labels)
            cur = _scalarize(inst)
            prev = self._last.get(key)
            self._last[key] = cur
            flat = series_key(name, labels)
            if isinstance(inst, Histogram):
                pc, ps = prev if prev is not None else (0, 0.0)
                series[flat] = {
                    "k": "histogram", "count": cur[0] - pc, "sum": cur[1] - ps,
                }
            elif isinstance(inst, Gauge):
                series[flat] = {"k": "gauge", "v": cur}
            else:
                series[flat] = {
                    "k": "counter", "v": cur - (prev if prev is not None else 0),
                }
        self.registry.clear_touched()
        return series

    def sample(self, tag: str, **ctx: object) -> dict[str, Any]:
        """Record one row of deltas since the previous sample.

        ``tag`` names the hook ("cell", "epoch", "sim", ...); extra keyword
        context (series name, epoch index, sim time) rides along under
        ``ctx``.
        """
        row: dict[str, Any] = {
            "type": "sample",
            "seq": self.seq,
            "t": float(self.seq),
            "tag": tag,
            "ctx": {k: v for k, v in sorted(ctx.items())},
            "series": self._deltas(),
        }
        self.seq += 1
        self._push(row)
        return row

    def _push(self, row: dict[str, Any]) -> None:
        if len(self._rows) == self._rows.maxlen:
            self.dropped += 1
        self._rows.append(row)
        if self._stream is not None:
            self._stream.write(json.dumps(row, sort_keys=True) + "\n")
            self._stream.flush()

    def close(self) -> None:
        """Close and detach the streaming sink; the ring keeps recording."""
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    # ------------------------------------------------------------------
    # cross-process merge (the bridge seam)
    # ------------------------------------------------------------------
    def absorb(self, rows: Iterable[dict[str, Any]]) -> int:
        """Append a worker's rows, renumbering into this sampler's timeline.

        Sequence numbers and timestamps continue this sampler's, so a
        merged sink is indistinguishable from a serial one.  Header rows
        are skipped.  Returns the number of rows absorbed.
        """
        n = 0
        for row in rows:
            if row.get("type") != "sample":
                continue
            merged = dict(row)
            merged["seq"] = self.seq
            merged["t"] = float(self.seq)
            self.seq += 1
            self._push(merged)
            n += 1
        return n

    def resync(self) -> None:
        """Re-baseline deltas against the registry's full current state.

        Called after the parent absorbs worker metrics
        (:func:`~repro.obs.bridge.merge_worker_obs`): the absorbed amounts
        are already accounted for by the worker's own rows, so the parent's
        next sample must not re-report them.
        """
        for name, labels, kind, payload in self.registry.dump_state():
            key = (name, labels)
            if kind == "histogram":
                self._last[key] = (int(payload["count"]), float(payload["sum"]))
            else:
                self._last[key] = payload["value"]
        self.registry.clear_touched()

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """Header plus every ring row, one JSON object per line."""
        lines = [json.dumps(self.header(), sort_keys=True)]
        lines.extend(json.dumps(r, sort_keys=True) for r in self._rows)
        return "\n".join(lines) + "\n"

    def write_jsonl(self, path: str) -> int:
        """Write the ring to ``path``; returns the row count (no header)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())
        return len(self._rows)


# ----------------------------------------------------------------------
# reading a sink back
# ----------------------------------------------------------------------
def load_rows(path: str | Path) -> list[dict[str, Any]]:
    """Parse a sampler sink: JSONL sample rows (header and blanks skipped).

    Tolerates a truncated final line (a run killed mid-append) and a
    missing file (no rows).
    """
    rows: list[dict[str, Any]] = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        return rows
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(obj, dict) and obj.get("type") == "sample":
            rows.append(obj)
    return rows


def series_table(
    rows: Iterable[dict[str, Any]]
) -> dict[str, list[tuple[float, float]]]:
    """``{series key: [(t, value), ...]}`` with counters accumulated.

    Counter series integrate their deltas into running totals, gauges keep
    their readings, histograms plot the mean of each sample's delta (sum
    over count, skipping empty deltas).
    """
    out: dict[str, list[tuple[float, float]]] = {}
    totals: dict[str, float] = {}
    for row in rows:
        t = float(row.get("t", 0.0))
        for key, entry in row.get("series", {}).items():
            kind = entry.get("k")
            if kind == "counter":
                totals[key] = totals.get(key, 0.0) + float(entry["v"])
                out.setdefault(key, []).append((t, totals[key]))
            elif kind == "gauge":
                out.setdefault(key, []).append((t, float(entry["v"])))
            elif kind == "histogram":
                count = int(entry.get("count", 0))
                if count:
                    out.setdefault(key, []).append(
                        (t, float(entry["sum"]) / count)
                    )
    return out

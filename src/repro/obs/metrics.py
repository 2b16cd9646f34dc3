"""Process-local metrics: labelled counters, gauges and histograms.

A :class:`MetricsRegistry` holds named instruments, each optionally split by
a label set (``registry.counter("decor_messages_total", kind="spillover")``).
The naming follows the Prometheus conventions the repo's related work uses
for message/energy accounting — monotonic totals end in ``_total``, and a
label combination identifies one time series — but everything stays
in-process and exports to a single JSON document.

Three instrument types:

* :class:`MCounter` — monotonically increasing (message counts, placements);
* :class:`Gauge` — a settable value (current deficiency, open spans);
* :class:`Histogram` — count/sum/min/max plus power-of-two buckets, enough
  to see the shape of e.g. per-round greedy benefit without storing samples.

Registering the same name with two different instrument types raises
:class:`~repro.errors.ObservabilityError` — a silent counter/gauge mixup
would corrupt every downstream report.

Label cardinality is bounded: each metric name may hold at most
``max_label_sets`` distinct label combinations (default
:data:`DEFAULT_MAX_LABEL_SETS`).  Once a name is full, lookups with *new*
label sets return a shared no-op instrument and increment the
``obs_labels_dropped_total{metric=...}`` overflow counter instead of
growing the registry — a long-lived process (the planned restoration
daemon) cannot be grown without bound by unbounded label values.
Existing series keep working at the cap.
"""

from __future__ import annotations

import json
import math
import os
from bisect import bisect_left
from typing import TypeVar, Union, cast

from repro.errors import ObservabilityError

__all__ = [
    "DEFAULT_MAX_LABEL_SETS",
    "LABELS_DROPPED_METRIC",
    "MCounter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Upper edges of the histogram's power-of-two buckets; the last bucket is
#: open-ended.  2**-4 .. 2**20 covers microsecond timings through node counts.
_BUCKET_EDGES = tuple(2.0 ** e for e in range(-4, 21))

#: Per-metric cap on distinct label combinations (see module docstring).
DEFAULT_MAX_LABEL_SETS = 512

#: Overflow counter incremented when a new label set is dropped at the cap.
LABELS_DROPPED_METRIC = "obs_labels_dropped_total"


class MCounter:
    """A monotonically increasing counter.

    >>> c = MCounter()
    >>> c.inc(); c.inc(4)
    >>> c.value
    5
    """

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value: int | float = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ObservabilityError(f"counter increment must be >= 0, got {amount}")
        self.value += amount

    def as_dict(self) -> dict:
        return {"value": self.value}


class Gauge:
    """A value that can go up and down.

    >>> g = Gauge()
    >>> g.set(7.5); g.add(-2.5)
    >>> g.value
    5.0
    """

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta

    def as_dict(self) -> dict:
        return {"value": self.value}


class Histogram:
    """Count/sum/min/max plus power-of-two buckets.

    >>> h = Histogram()
    >>> for v in (0.5, 1.0, 3.0):
    ...     h.observe(v)
    >>> (h.count, h.sum, h.min, h.max)
    (3, 4.5, 0.5, 3.0)
    >>> h.mean
    1.5
    """

    __slots__ = ("count", "sum", "min", "max", "buckets")
    kind = "histogram"

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets = [0] * (len(_BUCKET_EDGES) + 1)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        # the first bucket whose upper edge holds the value; NaN overflows
        self.buckets[-1 if math.isnan(value) else bisect_left(_BUCKET_EDGES, value)] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper-edge estimate of the ``q`` quantile from the buckets.

        Returns the upper edge of the bucket containing the ``q``-th
        observation (the usual bucketed-histogram estimate, biased high by
        at most one power of two).  ``0.0`` when empty; ``q == 0`` reports
        the observed ``min`` (the 0th observation *is* the minimum — the
        bucket edge would overshoot, and on a single-bucket histogram it
        would collapse every quantile onto the max); the top bucket is
        open-ended and reports the observed ``max``.

        >>> h = Histogram()
        >>> for v in (0.5, 1.0, 3.0, 100.0):
        ...     h.observe(v)
        >>> h.quantile(0.5)
        1.0
        >>> h.quantile(1.0)
        100.0
        >>> h.quantile(0.0)
        0.5
        """
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        if q == 0.0:
            return self.min
        rank = q * self.count
        seen = 0
        for i, n in enumerate(self.buckets):
            seen += n
            if seen >= rank and n:
                if i == len(_BUCKET_EDGES):
                    return self.max
                return min(_BUCKET_EDGES[i], self.max)
        return self.max

    def state(self) -> dict:
        """Raw mergeable state (for cross-process aggregation)."""
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "buckets": list(self.buckets),
        }

    def combine(self, state: dict) -> None:
        """Fold another histogram's :meth:`state` into this one."""
        self.count += int(state["count"])
        self.sum += float(state["sum"])
        self.min = min(self.min, float(state["min"]))
        self.max = max(self.max, float(state["max"]))
        buckets = state["buckets"]
        if len(buckets) != len(self.buckets):
            raise ObservabilityError(
                "histogram bucket layouts differ; cannot combine"
            )
        for i, n in enumerate(buckets):
            self.buckets[i] += int(n)

    def as_dict(self) -> dict:
        out = {"count": self.count, "sum": self.sum, "mean": self.mean}
        if self.count:
            out["min"] = self.min
            out["max"] = self.max
        # only non-empty buckets, keyed by upper edge, to keep exports small
        out["buckets"] = {
            ("+inf" if i == len(_BUCKET_EDGES) else f"{_BUCKET_EDGES[i]:g}"): n
            for i, n in enumerate(self.buckets)
            if n
        }
        return out


class _DroppedCounter(MCounter):
    """Shared no-op counter handed out past the label-cardinality cap."""

    __slots__ = ()

    def inc(self, amount: int | float = 1) -> None:
        pass


class _DroppedGauge(Gauge):
    """Shared no-op gauge handed out past the label-cardinality cap."""

    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass


class _DroppedHistogram(Histogram):
    """Shared no-op histogram handed out past the label-cardinality cap."""

    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_DROPPED: dict[str, Union[MCounter, Gauge, Histogram]] = {
    "counter": _DroppedCounter(),
    "gauge": _DroppedGauge(),
    "histogram": _DroppedHistogram(),
}

#: Any concrete instrument; :meth:`MetricsRegistry._get` is generic over it.
_Instrument = Union[MCounter, Gauge, Histogram]
_I = TypeVar("_I", MCounter, Gauge, Histogram)


class MetricsRegistry:
    """Named, labelled instruments with JSON export.

    Instruments are created on first use and keyed by ``(name, labels)``, so
    ``counter("x", kind="a")`` and ``counter("x", kind="b")`` are two series
    of the same metric.

    >>> reg = MetricsRegistry()
    >>> reg.counter("decor_messages_total", kind="spillover").inc(3)
    >>> reg.counter("decor_messages_total", kind="border").inc()
    >>> reg.value("decor_messages_total", kind="spillover")
    3
    >>> sorted(reg.as_dict()["decor_messages_total"])
    ['kind=border', 'kind=spillover']
    >>> reg.gauge("decor_messages_total")   # doctest: +IGNORE_EXCEPTION_DETAIL
    Traceback (most recent call last):
    repro.errors.ObservabilityError: metric 'decor_messages_total' ...

    Past the per-metric cap, new label sets are dropped, not stored:

    >>> reg = MetricsRegistry(max_label_sets=2)
    >>> for node in range(4):
    ...     reg.counter("beacons_total", node=node).inc()
    >>> len(reg)            # 2 kept series + the overflow counter
    3
    >>> reg.value("obs_labels_dropped_total", metric="beacons_total")
    2
    """

    def __init__(self, *, max_label_sets: int = DEFAULT_MAX_LABEL_SETS) -> None:
        if max_label_sets < 1:
            raise ObservabilityError(
                f"max_label_sets must be >= 1, got {max_label_sets}"
            )
        self.max_label_sets = max_label_sets
        self._instruments: dict[tuple, _Instrument] = {}
        self._types: dict[str, str] = {}
        self._series_count: dict[str, int] = {}
        #: Keys touched (created or looked up) since the last
        #: :meth:`clear_touched`; the sampler's delta source.
        self._touched: set[tuple] = set()
        #: Total instrument operations (lookups); the overhead benchmark uses
        #: this to bound enabled-mode cost per touchpoint.
        self.ops = 0

    # ------------------------------------------------------------------
    def _get(self, factory: type[_I], name: str, labels: dict) -> _I:
        self.ops += 1
        want = factory.kind
        have = self._types.get(name)
        if have is not None and have != want:
            raise ObservabilityError(
                f"metric {name!r} already registered as a {have}, not a {want}"
            )
        key = (name, tuple(sorted(labels.items())))
        inst = self._instruments.get(key)
        if inst is None:
            if self._series_count.get(name, 0) >= self.max_label_sets:
                self._note_dropped(name)
                return cast("_I", _DROPPED[want])
            inst = factory()
            self._instruments[key] = inst
            self._types[name] = want
            self._series_count[name] = self._series_count.get(name, 0) + 1
        self._touched.add(key)
        return cast("_I", inst)

    def _note_dropped(self, name: str) -> None:
        """Count one dropped label set without re-entering :meth:`_get`."""
        key = (LABELS_DROPPED_METRIC, (("metric", name),))
        inst = self._instruments.get(key)
        if inst is None:
            inst = MCounter()
            self._instruments[key] = inst
            self._types[LABELS_DROPPED_METRIC] = "counter"
            self._series_count[LABELS_DROPPED_METRIC] = (
                self._series_count.get(LABELS_DROPPED_METRIC, 0) + 1
            )
        cast(MCounter, inst).inc()
        self._touched.add(key)

    def counter(self, name: str, **labels: object) -> MCounter:
        return self._get(MCounter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: object) -> Histogram:
        return self._get(Histogram, name, labels)

    # ------------------------------------------------------------------
    def value(self, name: str, **labels: object) -> int | float:
        """The current value of a counter/gauge series (0 if never touched)."""
        key = (name, tuple(sorted(labels.items())))
        inst = self._instruments.get(key)
        if isinstance(inst, (MCounter, Gauge)):
            return inst.value
        return 0

    def __len__(self) -> int:
        return len(self._instruments)

    # ------------------------------------------------------------------
    # touched-key tracking (the sampler's delta source)
    # ------------------------------------------------------------------
    def touched(self) -> list[tuple[str, tuple, _Instrument]]:
        """Series touched since the last :meth:`clear_touched`, key-sorted.

        Every :meth:`counter`/:meth:`gauge`/:meth:`histogram` lookup marks
        its series touched; the sampler reads this to emit only the series
        that moved since the previous sample and then clears the set.
        """
        out: list[tuple[str, tuple, _Instrument]] = []
        for key in sorted(self._touched):
            inst = self._instruments.get(key)
            if inst is not None:
                out.append((key[0], key[1], inst))
        return out

    def clear_touched(self) -> None:
        self._touched.clear()

    # ------------------------------------------------------------------
    # cross-process aggregation
    # ------------------------------------------------------------------
    def dump_state(self) -> list[tuple[str, tuple, str, dict]]:
        """Picklable snapshot of every series, in stable key order.

        The inverse of :meth:`absorb`: a worker process dumps its registry,
        ships the payload back, and the parent folds it in.  Counters carry
        their totals, gauges their current value, histograms their raw
        bucket state.

        >>> reg = MetricsRegistry()
        >>> reg.counter("x_total", kind="a").inc(3)
        >>> reg.dump_state()
        [('x_total', (('kind', 'a'),), 'counter', {'value': 3})]
        """
        out: list[tuple[str, tuple, str, dict]] = []
        for (name, labels), inst in sorted(
            self._instruments.items(), key=lambda kv: kv[0]
        ):
            payload = inst.state() if isinstance(inst, Histogram) else inst.as_dict()
            out.append((name, labels, inst.kind, payload))
        return out

    def absorb(self, state: list[tuple[str, tuple, str, dict]]) -> None:
        """Fold a :meth:`dump_state` payload into this registry.

        Counter values add and histogram states merge bucketwise.  A gauge
        takes the payload's reading: absorbed in submission order, the last
        worker's reading wins, as the last reading does in a serial run.
        Absorbing the same payload twice double-counts — callers own the
        once-per-worker discipline.

        >>> a, b = MetricsRegistry(), MetricsRegistry()
        >>> a.counter("x_total").inc(2); b.counter("x_total").inc(5)
        >>> a.gauge("coverage").set(0.5); b.gauge("coverage").set(1.0)
        >>> a.absorb(b.dump_state())
        >>> (a.value("x_total"), a.value("coverage"))
        (7, 1.0)
        """
        for name, labels, kind, payload in state:
            labels_dict = dict(labels)
            if kind == "counter":
                self.counter(name, **labels_dict).inc(payload["value"])
            elif kind == "gauge":
                self.gauge(name, **labels_dict).set(payload["value"])
            elif kind == "histogram":
                self.histogram(name, **labels_dict).combine(payload)
            else:  # pragma: no cover - payload corruption
                raise ObservabilityError(f"unknown instrument kind {kind!r}")

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """``{name: {"label=v,...": payload}}`` with stable ordering."""
        out: dict[str, dict] = {}
        for (name, labels), inst in sorted(
            self._instruments.items(), key=lambda kv: kv[0]
        ):
            series = ",".join(f"{k}={v}" for k, v in labels)
            out.setdefault(name, {})[series] = {
                "type": inst.kind,
                **inst.as_dict(),
            }
        return out

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def write_json(self, path: str | os.PathLike) -> int:
        """Write the metrics dump to ``path``; returns the series count."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")
        return len(self._instruments)

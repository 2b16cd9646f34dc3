"""The process-wide observability runtime and its off switch.

Instrumented code talks to one module-level :data:`OBS` singleton instead of
threading tracer/registry/recorder handles through every signature.  The
contract:

* **disabled (the default)** — every call site pays a single attribute
  check.  ``OBS.span(...)`` and ``OBS.run(...)`` hand back a shared no-op
  context manager, ``OBS.counter(...)`` a shared no-op instrument; hot
  loops guard their per-item work with ``if OBS.enabled:`` so nothing is
  even formatted.  Instrumentation must never change results — it only
  observes.
* **enabled** — via ``OBS.enable()`` (the CLI's recording flags do this)
  or by setting ``REPRO_OBS=1`` in the environment before import — spans,
  events and metrics record into the runtime's
  :class:`~repro.obs.trace.Tracer` and
  :class:`~repro.obs.metrics.MetricsRegistry`, and every ``OBS.sample``
  hook records a row into its always-attached
  :class:`~repro.obs.sampler.MetricsSampler`.  The fourth pillar,
  ``OBS.flight``, is a live :class:`~repro.obs.flightrec.FlightRecorder`
  only in a recording started with ``enable(fresh=True, flight=True)``;
  otherwise it is the shared :data:`NULL_FLIGHT`, so only runs that ask
  for a flight log keep its unbounded record list.

The singleton is process-local state in the same sense as NumPy's global
RNG: fine for a CLI run or a script, and tests that enable it must disable
it again (see ``tests/test_obs.py`` for the fixture pattern).
"""

from __future__ import annotations

import os
from types import TracebackType

from typing import IO, Any, NoReturn

from repro.errors import ObservabilityError
from repro.obs.flightrec import FlightRecorder, _Run
from repro.obs.metrics import Gauge, Histogram, MCounter, MetricsRegistry
from repro.obs.sampler import MetricsSampler
from repro.obs.trace import Span, Tracer

__all__ = ["ObsRuntime", "OBS", "NULL_SPAN", "NULL_FLIGHT"]


class _NullSpan:
    """Shared no-op stand-in for :class:`~repro.obs.trace.Span` when disabled."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        return False

    def set(self, **attrs: object) -> _NullSpan:
        return self


class _NullInstrument:
    """Shared no-op counter/gauge/histogram when disabled."""

    __slots__ = ()
    value = 0

    def inc(self, amount: int | float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


class _NullFlight:
    """Shared no-op flight pillar of a recording that keeps no flight log.

    Emits and merges do nothing; a header or an export is an error, since
    only code that asked for a flight log writes one.
    """

    __slots__ = ()

    def _nothing(self, *args: object, **kwargs: object) -> None:
        return None

    def _refuse(self, *args: object, **kwargs: object) -> NoReturn:
        raise ObservabilityError("this recording keeps no flight log")

    emit = emit_send = emit_deliver = set_cause = clear_cause = _nothing
    set_header = write_jsonl = _refuse

    def run(self, protocol: str, **meta: object) -> _NullSpan:
        return NULL_SPAN

    def records(self) -> list[dict[str, Any]]:
        return []

    def absorb(self, records: object) -> int:
        return 0


#: The no-op span every ``OBS.span``/``OBS.run`` call returns while disabled.
NULL_SPAN = _NullSpan()
_NULL_INSTRUMENT = _NullInstrument()
#: ``OBS.flight`` whenever the current recording keeps no flight log.
NULL_FLIGHT = _NullFlight()


class ObsRuntime:
    """Switchable facade over a tracer, a metrics registry, a sampler and
    a flight recorder.

    >>> obs = ObsRuntime()
    >>> obs.enabled
    False
    >>> obs.span("x") is NULL_SPAN          # disabled: shared no-ops
    True
    >>> obs.enable()
    >>> with obs.span("figure", figure="fig08"):
    ...     obs.event("placement", point=3)
    ...     obs.counter("decor_placements_total", method="centralized").inc()
    >>> (obs.tracer.n_spans, obs.tracer.n_events)
    (1, 1)
    >>> obs.metrics.value("decor_placements_total", method="centralized")
    1
    >>> obs.disable()                       # records survive for export
    >>> (obs.enabled, obs.tracer.n_spans)
    (False, 1)
    >>> obs.flight is NULL_FLIGHT           # no flight log was asked for
    True
    >>> obs.enable(fresh=True, flight=True)
    >>> with obs.run("demo", k=1):
    ...     _ = obs.flight.emit("placement", 0, t=1.0, point=3)
    >>> [r["type"] for r in obs.flight.records()]
    ['begin', 'event', 'end']
    """

    def __init__(self) -> None:
        self.enabled = False
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        #: The time-series sampler over :attr:`metrics`; always attached.
        self.sampler = MetricsSampler(self.metrics)
        #: The flight log: live only in a recording that asked for one.
        self.flight: FlightRecorder | _NullFlight = NULL_FLIGHT

    # ------------------------------------------------------------------
    def enable(self, *, fresh: bool = False, flight: bool = False,
               sample_stream: IO[str] | None = None) -> None:
        """Turn recording on.

        ``fresh=True`` (what the CLI uses per invocation) replaces the
        tracer, registry, sampler and flight pillar so the export covers
        exactly this run; the default keeps whatever has accumulated.
        ``flight=True`` (only with ``fresh``) makes the fresh flight pillar
        a live :class:`~repro.obs.flightrec.FlightRecorder`.
        ``sample_stream`` attaches a new
        :class:`~repro.obs.sampler.MetricsSampler` that also mirrors every
        row to an open text stream (the JSONL sink) as it is recorded.
        """
        if flight and not fresh:
            raise ObservabilityError("a flight log starts with enable(fresh=True)")
        if fresh:
            self.tracer = Tracer()
            self.metrics = MetricsRegistry()
            self.flight = FlightRecorder() if flight else NULL_FLIGHT
        if fresh or sample_stream is not None:
            self.sampler = MetricsSampler(self.metrics, stream=sample_stream)
        self.enabled = True

    def disable(self) -> None:
        """Turn recording off; already-recorded data stays exportable."""
        self.enabled = False

    def recording(self) -> bool | None:
        """``None`` while disabled, else whether this recording keeps a
        flight log: the ``flight=`` that mirrors it in a worker process."""
        if not self.enabled:
            return None
        return self.flight is not NULL_FLIGHT

    def reset(self) -> None:
        """Disable and drop all recorded data (test teardown)."""
        self.enabled = False
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self.sampler = MetricsSampler(self.metrics)
        self.flight = NULL_FLIGHT

    # ------------------------------------------------------------------
    # delegating facade — each call is one attribute check when disabled
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: object) -> Span | _NullSpan:
        if not self.enabled:
            return NULL_SPAN
        return self.tracer.span(name, **attrs)

    def run(self, protocol: str, **meta: object) -> _Run | _NullSpan:
        """Open a flight run block (a shared no-op unless recording)."""
        if not self.enabled:
            return NULL_SPAN
        return self.flight.run(protocol, **meta)

    def event(self, name: str, **attrs: object) -> None:
        if not self.enabled:
            return
        self.tracer.event(name, **attrs)

    def counter(self, name: str, **labels: object) -> MCounter | _NullInstrument:
        if not self.enabled:
            return _NULL_INSTRUMENT
        return self.metrics.counter(name, **labels)

    def gauge(self, name: str, **labels: object) -> Gauge | _NullInstrument:
        if not self.enabled:
            return _NULL_INSTRUMENT
        return self.metrics.gauge(name, **labels)

    def histogram(self, name: str, **labels: object) -> Histogram | _NullInstrument:
        if not self.enabled:
            return _NULL_INSTRUMENT
        return self.metrics.histogram(name, **labels)

    def sample(self, tag: str, **ctx: object) -> dict[str, Any] | None:
        """Record one time-series row (no-op while disabled)."""
        if not self.enabled:
            return None
        return self.sampler.sample(tag, **ctx)


#: The process-wide runtime all instrumented repro code records into.
OBS = ObsRuntime()

if os.environ.get("REPRO_OBS", "") not in ("", "0"):  # pragma: no cover
    OBS.enable()

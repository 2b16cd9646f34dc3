"""Bridges folding pre-existing ad-hoc counters into the metrics registry.

PR 1 gave :class:`~repro.field.model.FieldModel` build/hit counters and the
sim radio its :class:`~repro.sim.radio.RadioStats`; both predate this layer
and keep their own state.  Rather than rewrite them, these bridges copy
their totals into the shared :class:`~repro.obs.metrics.MetricsRegistry`
as counter increments, so one metrics dump covers all telemetry.

Field stats are bridged as *deltas* against a
:meth:`~repro.field.model.FieldModelStats.snapshot` taken before the work
of interest — bridging the same model twice must not double-count, and a
model's counters keep accumulating across runs.  Radio stats are per-run
objects, so they bridge whole.

This module is also the *only* sanctioned seam between
:mod:`repro.parallel` and the global :data:`~repro.obs.runtime.OBS`
singleton: a worker process wraps its work in :class:`capture_worker_obs`
and ships the resulting payload back; the parent folds it in with
:func:`merge_worker_obs`.  Keeping the OBS mutation here (where obs owns
its own state) is what lets lint rule OBS006 forbid switching the
runtime anywhere in the library outside :mod:`repro.obs` and the CLI.
"""

from __future__ import annotations

from types import TracebackType
from typing import Any

from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import OBS
from repro.obs.sampler import EXCLUDED_PREFIXES

__all__ = [
    "bridge_field_stats",
    "bridge_radio_stats",
    "capture_worker_obs",
    "merge_worker_obs",
]

#: Metric names the bridges write; also referenced by docs and tests.
FIELD_BUILDS_METRIC = "field_model_builds_total"
FIELD_HITS_METRIC = "field_model_hits_total"
RADIO_SENT_METRIC = "radio_messages_sent_total"
RADIO_RECEIVED_METRIC = "radio_messages_received_total"
RADIO_DROPPED_METRIC = "radio_messages_dropped_total"


def bridge_field_stats(
    stats: Any, *, since: Any = None, metrics: MetricsRegistry | None = None
) -> None:
    """Fold FieldModel build/hit counters into the registry.

    Parameters
    ----------
    stats:
        A :class:`~repro.field.model.FieldModelStats` (or a
        :class:`~repro.field.model.FieldModel`, whose ``.stats`` is used).
    since:
        An earlier ``stats.snapshot()``; only the counts accrued since then
        are bridged.  ``None`` bridges the full totals — correct only for a
        model created inside the bridged stretch of work.
    metrics:
        Registry to write into; defaults to the global runtime's.
    """
    stats = getattr(stats, "stats", stats)
    if since is not None:
        stats = stats.diff(since)
    registry = OBS.metrics if metrics is None else metrics
    for kind, n in sorted(stats.builds.items()):
        if n:
            registry.counter(FIELD_BUILDS_METRIC, kind=str(kind)).inc(int(n))
    for kind, n in sorted(stats.hits.items()):
        if n:
            registry.counter(FIELD_HITS_METRIC, kind=str(kind)).inc(int(n))


def bridge_radio_stats(
    stats: Any, *, protocol: str = "", metrics: MetricsRegistry | None = None
) -> None:
    """Fold one radio run's sent/received/dropped totals into the registry.

    ``protocol`` labels the series (``"grid"``, ``"voronoi"``, ...); call
    once per finished protocol run — the whole totals are added each time.
    """
    stats = getattr(stats, "stats", stats)
    registry = OBS.metrics if metrics is None else metrics
    sent = stats.total_sent()
    received = stats.total_received()
    if sent:
        registry.counter(RADIO_SENT_METRIC, protocol=protocol).inc(sent)
    if received:
        registry.counter(RADIO_RECEIVED_METRIC, protocol=protocol).inc(received)
    dropped = stats.total_dropped()
    if dropped:
        registry.counter(RADIO_DROPPED_METRIC, protocol=protocol).inc(dropped)


class capture_worker_obs:
    """Context manager recording OBS activity in a worker for shipping back.

    ``recording`` is the parent's :meth:`~repro.obs.runtime.ObsRuntime.recording`:
    on entry the worker's global runtime is switched on *fresh*, with a
    flight log only if ``recording`` is true (the parent keeps one), so
    the capture covers exactly the wrapped work; on exit recording stops and
    :meth:`payload` holds one picklable snapshot of all four pillars: the
    metrics state, the trace records with the tracer's ``dropped`` count
    and per-name span totals, the sampler rows and the flight run blocks.
    The metrics leave out the sampler's
    :data:`~repro.obs.sampler.EXCLUDED_PREFIXES` (``field_model_*``): they
    count the worker's own field-cache builds and hits, so their values
    would depend on which worker ran which chunk.  When ``recording`` is
    ``None`` (the parent is not recording) the manager is inert and the
    payload is ``None``.

    >>> with capture_worker_obs(False) as cap:
    ...     OBS.counter("demo_total").inc(2)
    >>> OBS.enabled
    False
    >>> cap.payload()["metrics"]
    [('demo_total', (), 'counter', {'value': 2})]
    >>> with capture_worker_obs(None) as cap:
    ...     pass
    >>> cap.payload() is None
    True
    """

    __slots__ = ("_recording", "_payload")

    def __init__(self, recording: bool | None) -> None:
        self._recording = recording
        self._payload: dict[str, Any] | None = None

    def __enter__(self) -> "capture_worker_obs":
        if self._recording is not None:
            OBS.enable(fresh=True, flight=self._recording)
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        if self._recording is not None:
            self._payload = {
                "metrics": [
                    series for series in OBS.metrics.dump_state()
                    if not series[0].startswith(EXCLUDED_PREFIXES)
                ],
                "trace": OBS.tracer.records(),
                "dropped": OBS.tracer.dropped,
                "span_stats": OBS.tracer.span_stats,
                "samples": OBS.sampler.rows(),
                "records": OBS.flight.records(),
            }
            OBS.reset()
        return False

    def payload(self) -> dict[str, Any] | None:
        """The captured snapshot (``None`` if capture was disabled)."""
        return self._payload


def merge_worker_obs(payload: dict[str, Any] | None) -> None:
    """Fold a worker's :class:`capture_worker_obs` payload into :data:`OBS`.

    Metrics add into the registry; trace records graft under the currently
    open span and the worker's span totals add to the tracer's (see
    :meth:`~repro.obs.trace.Tracer.absorb`); flight records append to
    ``OBS.flight`` as renumbered run blocks (see
    :meth:`~repro.obs.flightrec.FlightRecorder.absorb`).  Sample rows
    are renumbered into the sampler's timeline
    (:meth:`~repro.obs.sampler.MetricsSampler.absorb`), which then
    re-baselines itself against the registry so the absorbed metric deltas
    — already reported by the worker's own rows — are not sampled again by
    the parent.  ``None`` payloads (capture disabled) are ignored.
    """
    if payload is None:
        return
    OBS.metrics.absorb(payload["metrics"])
    OBS.tracer.absorb(
        payload["trace"], dropped=payload["dropped"],
        span_stats=payload["span_stats"],
    )
    OBS.sampler.absorb(payload["samples"])
    OBS.sampler.resync()
    OBS.flight.absorb(payload["records"])

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
its own state) is what lets the PAR001 flow check (and its
interprocedural closure FLOW002 in :mod:`repro.checks.flow`) forbid it
everywhere in ``repro.parallel`` itself.
"""

from __future__ import annotations

from types import TracebackType
from typing import Any

from repro.obs.flightrec import FREC, FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import OBS
from repro.obs.trace import Tracer

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

    On entry (when ``enabled``) the global runtime is switched on with a
    *fresh* tracer/registry/sampler, so the capture covers exactly the
    wrapped work;
    on exit recording stops and :meth:`payload` holds a picklable snapshot.
    When ``enabled`` is false the manager is inert and the payload is
    ``None`` — workers inherit the parent's off switch.

    ``flightrec`` independently captures the flight recorder the same way:
    the worker's run blocks ship back under the payload's ``"records"`` key
    and :func:`merge_worker_obs` folds them into the parent's stream via
    :meth:`~repro.obs.flightrec.FlightRecorder.absorb`.

    The fresh runtime's sampler rows ship back under ``"samples"``; the
    parent's sampler renumbers them into its own timeline on merge.

    >>> with capture_worker_obs(True) as cap:
    ...     OBS.counter("demo_total").inc(2)
    >>> OBS.enabled
    False
    >>> cap.payload()["metrics"]
    [('demo_total', (), 'counter', {'value': 2})]
    >>> with capture_worker_obs(False) as cap:
    ...     pass
    >>> cap.payload() is None
    True
    """

    __slots__ = ("_enabled", "_flightrec", "_payload")

    def __init__(self, enabled: bool, flightrec: bool = False) -> None:
        self._enabled = bool(enabled)
        self._flightrec = bool(flightrec)
        self._payload: dict[str, Any] | None = None

    def __enter__(self) -> "capture_worker_obs":
        if self._enabled:
            OBS.enable(fresh=True)
        if self._flightrec:
            FREC.enable(fresh=True)
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        if self._enabled or self._flightrec:
            self._payload = {}
        if self._enabled:
            self._payload.update(
                metrics=OBS.metrics.dump_state(),
                trace=OBS.tracer.records(),
                dropped=OBS.tracer.dropped,
                samples=OBS.sampler.rows(),
            )
            OBS.disable()
        if self._flightrec:
            self._payload["records"] = FREC.records()
            FREC.reset()
        return False

    def payload(self) -> dict[str, Any] | None:
        """The captured snapshot (``None`` if capture was disabled)."""
        return self._payload


def merge_worker_obs(
    payload: dict[str, Any] | None,
    *,
    metrics: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    flightrec: FlightRecorder | None = None,
) -> None:
    """Fold a worker's :class:`capture_worker_obs` payload into the parent.

    Metrics add into the registry; trace records graft under the currently
    open span (see :meth:`~repro.obs.trace.Tracer.absorb`); flight records
    append as renumbered run blocks (see
    :meth:`~repro.obs.flightrec.FlightRecorder.absorb`).  Sample rows are
    renumbered into the parent sampler's timeline
    (:meth:`~repro.obs.sampler.MetricsSampler.absorb`), which then
    re-baselines itself against the registry so the absorbed metric deltas
    — already reported by the worker's own rows — are not sampled again by
    the parent.  ``None`` payloads (capture disabled, or a worker that
    recorded nothing) are ignored.  Defaults to the global runtime's
    registry/tracer/recorder/sampler.
    """
    if payload is None:
        return
    if "metrics" in payload:
        registry = OBS.metrics if metrics is None else metrics
        target = OBS.tracer if tracer is None else tracer
        registry.absorb(payload["metrics"])
        target.absorb(payload["trace"], dropped=int(payload.get("dropped", 0)))
        if metrics is None:
            OBS.sampler.absorb(payload.get("samples", []))
            OBS.sampler.resync()
    if "records" in payload:
        (FREC if flightrec is None else flightrec).absorb(payload["records"])

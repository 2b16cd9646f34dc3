"""Zero-dependency observability: one recording runtime, four pillars.

Behind one opt-in switch:

* :mod:`repro.obs.trace` — nested spans + events into a ring buffer with
  JSON-lines export; spans are the one wall clock, and the tracer keeps
  per-name span totals that outlive its ring;
* :mod:`repro.obs.metrics` — labelled counters/gauges/histograms exported
  as one JSON document; the one place that holds a run's counters;
* :mod:`repro.obs.sampler` — a bounded ring of registry deltas in logical
  time, always attached while recording, with a JSONL sink (the CLI's
  ``--sample``); :mod:`repro.obs.health` distils ``health_*`` gauges from
  live coverage/energy/protocol state for it;
* :mod:`repro.obs.flightrec` — the flight log: causal per-node protocol
  event logs that :mod:`repro.obs.replay` can deterministically re-execute
  and verify.  Only a recording that asks for it keeps one (the CLI's
  ``--flight-record``, ``decor replay``,
  :func:`~repro.obs.replay.record_protocol_run`).

:mod:`repro.obs.ledger` is not a runtime: the CLI's ``--ledger`` builds
one history row from :data:`OBS` when a command ends and appends it to a
:class:`~repro.obs.ledger.LedgerStore` (``decor runs`` queries it).

Everything instrumented records into the module-level :data:`OBS` runtime,
which is **off by default**: disabled call sites pay one attribute check.
Turn it on with ``REPRO_OBS=1``, the CLI's ``--trace``/``--metrics``/
``--sample``/``--flight-record``/``--ledger`` flags, or ``OBS.enable()``.
See ``docs/observability.md`` for the full guide.

>>> from repro.obs import OBS
>>> OBS.enabled                             # off unless opted in
False
"""

from repro.obs.bridge import (
    bridge_field_stats,
    bridge_radio_stats,
    capture_worker_obs,
    merge_worker_obs,
)
from repro.obs.flightrec import FlightRecorder
from repro.obs.health import (
    record_coverage_health,
    record_energy_health,
    record_protocol_health,
)
from repro.obs.metrics import Gauge, Histogram, MCounter, MetricsRegistry
from repro.obs.runtime import NULL_FLIGHT, NULL_SPAN, OBS, ObsRuntime
from repro.obs.sampler import MetricsSampler
from repro.obs.trace import Span, SpanStats, Tracer

__all__ = [
    "OBS",
    "ObsRuntime",
    "NULL_SPAN",
    "NULL_FLIGHT",
    "FlightRecorder",
    "Tracer",
    "Span",
    "SpanStats",
    "MetricsRegistry",
    "MCounter",
    "Gauge",
    "Histogram",
    "MetricsSampler",
    "record_coverage_health",
    "record_energy_health",
    "record_protocol_health",
    "bridge_field_stats",
    "bridge_radio_stats",
    "capture_worker_obs",
    "merge_worker_obs",
]

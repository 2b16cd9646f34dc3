"""Observability overhead microbenchmark: a fig08-style sweep with the
``repro.obs`` runtime off vs on, plus the disabled-mode overhead bound CI
enforces.

The layer's contract is that with ``REPRO_OBS`` unset the instrumentation
costs one attribute check (or one explicit ``OBS.enabled`` test) per
touchpoint.  Directly differencing two sweep timings is noise-dominated —
the guards cost nanoseconds against a multi-second sweep — so
``test_disabled_overhead_within_bound`` bounds the overhead analytically:

    overhead <= touchpoints x per_guard_cost / sweep_time < 3%

where ``touchpoints`` is counted from an instrumented run (every trace
record and metric op an enabled sweep produces corresponds to at most a
handful of disabled-mode guard evaluations) and ``per_guard_cost`` is
microbenchmarked on this machine, pessimistically, as a full disabled
``OBS.span()`` context entry/exit.

The flight recorder (``repro.obs.flightrec``) makes the same promise
behind the same guard discipline (OBS003), so
``test_flightrec_disabled_overhead_within_bound`` applies the identical
analytic bound to its touchpoints: one flight record emitted by an
enabled sweep corresponds to one disabled-mode ``FREC.enabled`` check.
"""

from __future__ import annotations

import time

from repro.experiments.runner import DeploymentCache
from repro.experiments.setup import SERIES
from repro.obs import FREC, OBS

# every guard site (an ``if OBS.enabled:`` block or a span context)
# produces at least one trace record or metric op when enabled, so the
# enabled-run touchpoint count upper-bounds the number of disabled-mode
# guard evaluations
GUARDS_PER_TOUCHPOINT = 1
MAX_DISABLED_OVERHEAD = 0.03


def _best_of(fn, rounds):
    """Minimum wall-clock of ``rounds`` calls to ``fn()``."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _sweep(setup):
    """fig08-style pass: every series at every k, one seed, fresh cache."""
    cache = DeploymentCache(setup)
    total = 0
    for series in SERIES:
        for k in setup.k_values:
            total += cache.get(series, k, 0).total_alive
    return total


def test_sweep_obs_off(benchmark, setup):
    """Baseline: the sweep with the runtime pristine-disabled."""
    OBS.reset()
    result = benchmark.pedantic(lambda: _sweep(setup), rounds=3, iterations=1)
    assert result > 0
    assert len(OBS.tracer) == 0 and OBS.metrics.as_dict() == {}
    benchmark.extra_info["obs"] = "off"


def test_sweep_obs_on(benchmark, setup):
    """The same sweep fully instrumented; records the trace/metric volume."""

    def run():
        OBS.enable(fresh=True)
        try:
            return _sweep(setup)
        finally:
            OBS.disable()

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result > 0
    benchmark.extra_info["obs"] = "on"
    benchmark.extra_info["trace_records"] = len(OBS.tracer) + OBS.tracer.dropped
    benchmark.extra_info["metric_ops"] = OBS.metrics.ops
    benchmark.extra_info["metric_series"] = sum(
        len(v) for v in OBS.metrics.as_dict().values()
    )
    OBS.reset()


def test_disabled_overhead_within_bound(benchmark, setup):
    """CI gate: disabled-mode instrumentation costs < 3% of a smoke sweep."""
    # 1. count the touchpoints an instrumented sweep produces
    OBS.enable(fresh=True)
    try:
        _sweep(setup)
    finally:
        OBS.disable()
    touchpoints = len(OBS.tracer) + OBS.tracer.dropped + OBS.metrics.ops
    OBS.reset()

    # 2. microbenchmark the disabled guard (pessimistic: full null span)
    def guard_block(n=1000):
        for _ in range(n):
            with OBS.span("x"):
                pass
            if OBS.enabled:  # pragma: no cover - disabled here by design
                OBS.counter("x").inc()
        return n

    assert not OBS.enabled
    per_guard = _best_of(guard_block, 5) / 1000.0

    # 3. time the disabled sweep itself (best of 3)
    sweep_time = _best_of(lambda: _sweep(setup), 3)

    bound = touchpoints * GUARDS_PER_TOUCHPOINT * per_guard / sweep_time
    benchmark.extra_info["touchpoints"] = touchpoints
    benchmark.extra_info["per_guard_seconds"] = per_guard
    benchmark.extra_info["sweep_seconds"] = sweep_time
    benchmark.extra_info["disabled_overhead_bound"] = bound
    benchmark.pedantic(lambda: guard_block(100), rounds=3, iterations=1)
    assert bound < MAX_DISABLED_OVERHEAD, (
        f"disabled-mode obs overhead bound {bound:.2%} exceeds "
        f"{MAX_DISABLED_OVERHEAD:.0%} ({touchpoints} touchpoints, "
        f"{per_guard * 1e9:.0f} ns/guard, sweep {sweep_time:.2f}s)"
    )


def test_flightrec_disabled_overhead_within_bound(benchmark, setup):
    """CI gate: the disabled flight recorder costs < 3% of a smoke sweep."""
    # 1. count the flight records an instrumented sweep produces; each
    # corresponds to one (guarded) emit site evaluated in disabled mode
    FREC.enable(fresh=True)
    try:
        _sweep(setup)
        touchpoints = len(FREC.records())
    finally:
        FREC.disable()
        FREC.reset()
    assert touchpoints > 0

    # 2. microbenchmark the disabled guard (pessimistic: a full null-run
    # context entry/exit plus the ``if FREC.enabled:`` check per site)
    def guard_block(n=1000):
        for _ in range(n):
            with FREC.run("x"):
                pass
            if FREC.enabled:  # pragma: no cover - disabled here by design
                FREC.emit("drop", 0, t=0.0)
        return n

    assert not FREC.enabled
    per_guard = _best_of(guard_block, 5) / 1000.0

    # 3. time the disabled sweep itself (best of 3)
    sweep_time = _best_of(lambda: _sweep(setup), 3)

    bound = touchpoints * GUARDS_PER_TOUCHPOINT * per_guard / sweep_time
    benchmark.extra_info["flight_records"] = touchpoints
    benchmark.extra_info["per_guard_seconds"] = per_guard
    benchmark.extra_info["sweep_seconds"] = sweep_time
    benchmark.extra_info["disabled_overhead_bound"] = bound
    benchmark.pedantic(lambda: guard_block(100), rounds=3, iterations=1)
    assert bound < MAX_DISABLED_OVERHEAD, (
        f"disabled-mode flight-recorder overhead bound {bound:.2%} exceeds "
        f"{MAX_DISABLED_OVERHEAD:.0%} ({touchpoints} flight records, "
        f"{per_guard * 1e9:.0f} ns/guard, sweep {sweep_time:.2f}s)"
    )


def test_sampler_disabled_overhead_within_bound(benchmark, setup):
    """CI gate: the disabled sampler path costs < 3% of a smoke sweep.

    The telemetry touchpoints (``OBS.sample`` hooks plus the guarded
    ``record_*_health`` helpers) make the same promise as OBS001/OBS003
    sites (OBS004): disabled, each costs one ``OBS.enabled`` check plus —
    for the ``OBS.sample`` facade itself — one no-op method call.  The
    bound is analytic for the same reason as the tests above.
    """
    # 1. count the sample rows + health recordings an enabled sweep emits;
    # each corresponds to one guarded telemetry site evaluated per cell
    OBS.enable(fresh=True)
    try:
        _sweep(setup)
        touchpoints = OBS.sampler.seq + OBS.metrics.ops
    finally:
        OBS.disable()
    OBS.reset()
    assert touchpoints > 0

    # 2. microbenchmark the disabled path (pessimistic: the full facade
    # call, not just the guard the call sites actually use)
    def guard_block(n=1000):
        for _ in range(n):
            OBS.sample("x", step=0)
            if OBS.enabled:  # pragma: no cover - disabled here by design
                OBS.gauge("x").set(1.0)
        return n

    assert not OBS.enabled
    per_guard = _best_of(guard_block, 5) / 1000.0

    # 3. time the disabled sweep itself (best of 3)
    sweep_time = _best_of(lambda: _sweep(setup), 3)

    bound = touchpoints * GUARDS_PER_TOUCHPOINT * per_guard / sweep_time
    benchmark.extra_info["telemetry_touchpoints"] = touchpoints
    benchmark.extra_info["per_guard_seconds"] = per_guard
    benchmark.extra_info["sweep_seconds"] = sweep_time
    benchmark.extra_info["disabled_overhead_bound"] = bound
    benchmark.pedantic(lambda: guard_block(100), rounds=3, iterations=1)
    assert bound < MAX_DISABLED_OVERHEAD, (
        f"disabled-mode sampler overhead bound {bound:.2%} exceeds "
        f"{MAX_DISABLED_OVERHEAD:.0%} ({touchpoints} telemetry touchpoints, "
        f"{per_guard * 1e9:.0f} ns/guard, sweep {sweep_time:.2f}s)"
    )

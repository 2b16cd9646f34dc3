"""Observability overhead microbenchmark: a fig08-style sweep with the
``repro.obs`` runtime off vs on, plus the disabled-mode overhead bound CI
enforces.

The layer's contract is that with ``REPRO_OBS`` unset the instrumentation
costs one attribute check (or one explicit ``OBS.enabled`` test) per
touchpoint.  Directly differencing two sweep timings is noise-dominated —
the guards cost nanoseconds against a multi-second sweep — so
``test_disabled_overhead_within_bound`` bounds the overhead analytically:

    overhead <= (calls x per_call + checks x per_check) / sweep_time < 3%

where ``calls`` (disabled ``OBS.span``/``run``/``counter``/``sample``/...
facade calls) and ``checks`` (every other read of ``OBS.enabled``, i.e.
each ``if OBS.enabled:`` test) are counted in a disabled sweep, and the
two costs are microbenchmarked on the host running the test,
pessimistically: a call as a full null ``OBS.span()`` context entry/exit
plus one more check, a check with its loop overhead.

The flight recorder is ``OBS``'s flight pillar: its touchpoints sit under
the same ``if OBS.enabled:`` guards (OBS001) and its run blocks open
through the ``OBS.run`` facade, so the counts above already include them.
"""

from __future__ import annotations

import time

import pytest

from repro.experiments.runner import DeploymentCache
from repro.experiments.setup import SERIES
from repro.obs import OBS
from repro.obs.runtime import ObsRuntime

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


def _disabled_guards(fn):
    """Run ``fn()`` with ``OBS`` disabled; return ``(calls, checks)``, its
    facade calls and its other reads of ``OBS.enabled``."""
    reads = calls = 0

    def read(runtime):
        nonlocal reads
        reads += 1
        return runtime.__dict__["enabled"]

    def write(runtime, value):
        runtime.__dict__["enabled"] = value

    def counted(method):
        def call(runtime, *args, **kwargs):
            nonlocal calls
            calls += 1
            return method(runtime, *args, **kwargs)

        return call

    assert not OBS.enabled
    with pytest.MonkeyPatch.context() as mp:
        # a data descriptor on the class shadows the instance attribute
        mp.setattr(ObsRuntime, "enabled", property(read, write), raising=False)
        for name in ("span", "run", "event", "counter", "gauge", "histogram", "sample"):
            mp.setattr(ObsRuntime, name, counted(getattr(ObsRuntime, name)))
        fn()
    # every facade call reads the switch once itself
    return calls, reads - calls


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


def _check_block(n=1000):
    """``n`` disabled ``if OBS.enabled:`` checks (with their loop)."""
    for _ in range(n):
        if OBS.enabled:  # pragma: no cover - disabled here by design
            OBS.counter("x").inc()
    return n


def _disabled_bound(setup, call_block):
    """The analytic disabled-mode overhead of a smoke sweep, and its
    inputs: the sweep's facade calls priced as one iteration of
    ``call_block`` each, its other checks as one of :func:`_check_block`."""
    # 1. count the facade calls and guard checks a disabled sweep makes
    OBS.reset()
    calls, checks = _disabled_guards(lambda: _sweep(setup))
    assert calls > 0 and checks > 0

    # 2. microbenchmark both shapes on the host running the test
    assert not OBS.enabled
    per_call = _best_of(call_block, 5) / 1000.0
    per_check = _best_of(_check_block, 5) / 1000.0

    # 3. time the disabled sweep itself (best of 3)
    sweep_time = _best_of(lambda: _sweep(setup), 3)

    bound = (calls * per_call + checks * per_check) / sweep_time
    return bound, {
        "facade_calls": calls,
        "guard_checks": checks,
        "per_call_seconds": per_call,
        "per_check_seconds": per_check,
        "sweep_seconds": sweep_time,
        "disabled_overhead_bound": bound,
    }


def _describe(info):
    return (
        f"{info['facade_calls']} facade calls at "
        f"{info['per_call_seconds'] * 1e9:.0f} ns, {info['guard_checks']} "
        f"checks at {info['per_check_seconds'] * 1e9:.0f} ns, "
        f"sweep {info['sweep_seconds']:.2f}s"
    )


def test_disabled_overhead_within_bound(benchmark, setup):
    """CI gate: disabled-mode instrumentation costs < 3% of a smoke sweep."""

    # pessimistic price of a facade call: a full null span plus one check
    def guard_block(n=1000):
        for _ in range(n):
            with OBS.span("x"):
                pass
            if OBS.enabled:  # pragma: no cover - disabled here by design
                OBS.counter("x").inc()
        return n

    bound, info = _disabled_bound(setup, guard_block)
    benchmark.extra_info.update(info)
    benchmark.pedantic(lambda: guard_block(100), rounds=3, iterations=1)
    assert bound < MAX_DISABLED_OVERHEAD, (
        f"disabled-mode obs overhead bound {bound:.2%} exceeds "
        f"{MAX_DISABLED_OVERHEAD:.0%} ({_describe(info)})"
    )


def test_sampler_disabled_overhead_within_bound(benchmark, setup):
    """CI gate: the disabled sampler path costs < 3% of a smoke sweep.

    The telemetry touchpoints (``OBS.sample`` hooks plus the guarded
    ``record_*_health`` helpers) make the same promise as every other
    OBS001 touchpoint: disabled, each costs one ``OBS.enabled`` check plus
    — for the ``OBS.sample`` facade itself — one no-op method call.  They
    are among the facade calls and checks the gate above counts; this
    gate prices every facade call as the sample facade instead.
    """

    # pessimistic price of a facade call: the full sample facade call
    # plus one check, not just the guard the call sites actually use
    def guard_block(n=1000):
        for _ in range(n):
            OBS.sample("x", step=0)
            if OBS.enabled:  # pragma: no cover - disabled here by design
                OBS.gauge("x").set(1.0)
        return n

    bound, info = _disabled_bound(setup, guard_block)
    benchmark.extra_info.update(info)
    benchmark.pedantic(lambda: guard_block(100), rounds=3, iterations=1)
    assert bound < MAX_DISABLED_OVERHEAD, (
        f"disabled-mode sampler overhead bound {bound:.2%} exceeds "
        f"{MAX_DISABLED_OVERHEAD:.0%} ({_describe(info)})"
    )

"""PR9 acceptance numbers: the persistent shared-memory worker pool.

Writes ``benchmarks/results/BENCH_PR9.json`` with the two measurements
the shared-memory worker pool is gated on:

* ``parallel`` — fig08 sweep serial vs a persistent 4-worker pool
  (median-of-N, per-stage breakdown from ``test_bench_pr4``), the >= 2x
  speedup asserted where ``os.cpu_count() >= 4`` or
  ``REPRO_REQUIRE_SPEEDUP=1`` (the ``parallel-speedup`` CI job) — never
  silently skipped there;
* ``payload`` — bytes shipped per cell, pickling counterfactual vs
  shared-memory manifests; deterministic, gated >= 10x on every host.
"""

from __future__ import annotations

import json
import os
import pathlib

from bench_ledger import append_bench_row
from test_bench_pr4 import (
    payload_bytes,  # noqa: F401  (re-exported shape documented above)
    speedup_gate_active,
    staged_fig08_measurements,
)

RESULTS_PATH = pathlib.Path(__file__).parent / "results" / "BENCH_PR9.json"


def test_bench_pr9_acceptance(setup):
    cpu_count = os.cpu_count() or 1
    staged = staged_fig08_measurements(setup, workers=4, rounds=3)
    speedup_asserted = speedup_gate_active()

    payload = {
        "scale": os.environ.get("REPRO_SCALE") or "smoke",
        "cpu_count": cpu_count,
        "parallel": {
            "figure": staged["figure"],
            "workers": staged["workers"],
            "rounds": staged["rounds"],
            "cells": staged["cells"],
            "median_seconds": staged["median_seconds"],
            "speedup": staged["speedup"],
            "byte_identical": staged["byte_identical"],
            "speedup_asserted": speedup_asserted,
            "gate": (
                ">= 2x wall-clock with 4 workers, asserted on >= 4 cores "
                "or REPRO_REQUIRE_SPEEDUP=1"
            ),
        },
        "payload": {
            **staged["payload_bytes"],
            "gate": ">= 10x fewer bytes per cell than pickling (all hosts)",
        },
    }
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    append_bench_row(
        "bench-pr9", payload, artifacts={"results": str(RESULTS_PATH)}
    )

    assert staged["byte_identical"], "pooled fig08 JSON differs from serial"
    assert staged["payload_bytes"]["reduction_factor"] >= 10.0, (
        staged["payload_bytes"]
    )
    if speedup_asserted:
        assert staged["speedup"] >= 2.0, payload["parallel"]

"""PR7 acceptance numbers, persisted machine-readably.

Writes ``benchmarks/results/BENCH_PR7.json`` with the measurements the
live-telemetry pipeline is gated on:

* ``sampling`` — wall-clock medians of the fig08 sweep with the sampler
  off vs on (logical clock, one row per cell), plus the row/series volume
  an instrumented sweep produces.  Sampling must stay cheap: the enabled
  run is asserted under 2x the disabled one (generous — the observed
  overhead is a few percent; the <3% *disabled*-path bound lives in
  ``test_bench_obs_overhead.py``).
* ``figure_identity`` — the figure JSON is asserted byte-identical
  between the sampler-off and sampler-on runs: telemetry only observes.
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
from time import perf_counter

from repro.experiments import DeploymentCache, figure_to_json
from repro.experiments.figures import run_figure
from repro.obs import OBS

from bench_ledger import append_bench_row

RESULTS_PATH = pathlib.Path(__file__).parent / "results" / "BENCH_PR7.json"
ROUNDS = 3


def _timed_fig08(setup, *, sample: bool) -> tuple[str, float, int]:
    if sample:
        OBS.enable(fresh=True)
    start = perf_counter()
    result = run_figure(setup, 8, DeploymentCache(setup))
    elapsed = perf_counter() - start
    rows = 0
    if sample:
        OBS.disable()
        rows = OBS.sampler.seq
        OBS.reset()
    return figure_to_json(result), elapsed, rows


def test_bench_pr7_acceptance(setup):
    OBS.reset()
    off_json = on_json = ""
    off_times: list[float] = []
    on_times: list[float] = []
    rows = 0
    for _ in range(ROUNDS):
        off_json, elapsed, _ = _timed_fig08(setup, sample=False)
        off_times.append(elapsed)
        on_json, elapsed, rows = _timed_fig08(setup, sample=True)
        on_times.append(elapsed)

    off_median = statistics.median(off_times)
    on_median = statistics.median(on_times)
    ratio = on_median / off_median if off_median > 0 else float("inf")
    byte_identical = off_json == on_json

    payload = {
        "scale": os.environ.get("REPRO_SCALE") or "smoke",
        "sampling": {
            "figure": "fig08",
            "sampler_off_seconds_median": off_median,
            "sampler_on_seconds_median": on_median,
            "enabled_over_disabled_ratio": ratio,
            "sample_rows": rows,
            "gate": "enabled sweep < 2x disabled wall-clock",
        },
        "figure_identity": {
            "byte_identical": byte_identical,
            "gate": "figure JSON byte-identical with sampling on",
        },
    }
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    append_bench_row(
        "bench-pr7", payload, artifacts={"results": str(RESULTS_PATH)}
    )

    assert byte_identical, "fig08 JSON differs with sampling enabled"
    assert rows > 0, "instrumented sweep produced no sample rows"
    assert ratio < 2.0, payload["sampling"]

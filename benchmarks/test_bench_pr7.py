"""PR7 acceptance numbers, persisted machine-readably.

Gates the live-telemetry pipeline on the fig08 sweep with the sampler
off vs on (logical clock, one row per cell):

* ``sampling`` — the rows and series an instrumented sweep produces,
  pinned exactly at smoke scale.  Sampling must stay cheap: the median
  enabled run is asserted under 2x the disabled one (generous — the
  observed overhead is a few percent; the <3% *disabled*-path bound
  lives in ``test_bench_obs_overhead.py``).
* ``figure_identity`` — the figure JSON is asserted byte-identical
  between the sampler-off and sampler-on runs: telemetry only observes.

``benchmarks/results/BENCH_PR7.json`` records only what depends on the
scale, so a run leaves the tracked file unchanged; the walls vary by
host and appear only in a failure message.
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

RESULTS_PATH = pathlib.Path(__file__).parent / "results" / "BENCH_PR7.json"
ROUNDS = 3
#: The smoke sweep's sample volume: rows (``OBS.sampler.seq``) and
#: distinct series, both deterministic.
SMOKE_SAMPLE_ROWS = 36
SMOKE_SAMPLE_SERIES = 13


def _timed_fig08(setup, *, sample: bool) -> tuple[str, float, int, int]:
    if sample:
        OBS.enable(fresh=True)
    start = perf_counter()
    result = run_figure(setup, 8, DeploymentCache(setup))
    elapsed = perf_counter() - start
    rows = series = 0
    if sample:
        OBS.disable()
        rows = OBS.sampler.seq
        series = len({key for row in OBS.sampler.rows() for key in row["series"]})
        OBS.reset()
    return figure_to_json(result), elapsed, rows, series


def test_bench_pr7_acceptance(setup):
    OBS.reset()
    off_json = on_json = ""
    off_times: list[float] = []
    on_times: list[float] = []
    rows = series = 0
    for _ in range(ROUNDS):
        off_json, elapsed, _, _ = _timed_fig08(setup, sample=False)
        off_times.append(elapsed)
        on_json, elapsed, rows, series = _timed_fig08(setup, sample=True)
        on_times.append(elapsed)

    off_median = statistics.median(off_times)
    on_median = statistics.median(on_times)
    ratio = on_median / off_median if off_median > 0 else float("inf")
    byte_identical = off_json == on_json
    scale = os.environ.get("REPRO_SCALE") or "smoke"

    payload = {
        "scale": scale,
        "sampling": {
            "figure": "fig08",
            "sample_rows": rows,
            "sample_series": series,
            "gate": "enabled sweep < 2x disabled wall-clock; smoke: 36 rows, 13 series",
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

    assert byte_identical, "fig08 JSON differs with sampling enabled"
    if scale == "smoke":
        assert (rows, series) == (SMOKE_SAMPLE_ROWS, SMOKE_SAMPLE_SERIES)
    else:
        assert rows > 0, "instrumented sweep produced no sample rows"
    assert ratio < 2.0, (
        f"sampled sweep took {on_median:.3f} s against {off_median:.3f} s "
        f"unsampled ({ratio:.2f}x, medians of {ROUNDS})"
    )

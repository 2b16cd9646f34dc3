"""Acceptance gate for warm-start restoration.

The claim (docs/performance.md): across a sequence of small-disc area
failures, a :class:`~repro.core.restoration.RestorationSession` undoes
only the failed sensors' coverage rows (``remove_rows``), so its benefit
work per epoch is bounded by the damage footprint, while the cold
reference, one-shot :func:`~repro.core.restoration.restore` calls chained
over the same scenario, re-accounts every surviving sensor into a fresh
engine each epoch.

The gate counts benefit entries updated incrementally (the engine's
``benefit_delta_updates_total`` OBS counter, deterministic — no timing
flakiness) on the paper's fig08 field scale (100x100, 2000 Halton
points), deliberately independent of ``REPRO_SCALE``: at smoke scale the
field is small enough that the damage footprint is not far from the whole
field and the asymptotic gap cannot show.  Epoch 0 is excluded from both
sides: the warm session accounts the deployed network once there (its
warm-up, amortised over the sequence), after which steady-state epochs
must make **>= 5x** fewer delta updates than cold.

The scenario and its delta counts are written to
``results/<scale>/warm_restore.json``; every byte of it is deterministic,
so a run leaves the tracked file unchanged.  Wall time is not recorded
here: one sample per mode cannot be compared across recordings, and the
end-to-end ``restore-epochs`` workload (``benchmarks/e2e``) times warm
restoration instead.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.restoration import RestorationSession, restore
from repro.experiments import ExperimentSetup
from repro.experiments.runner import DeploymentCache
from repro.experiments.setup import series_by_name
from repro.network.failures import area_failure
from repro.obs import OBS

from conftest import RESULTS_DIR

#: Epochs run; the counts exclude epoch 0, the session's warm-up.
N_EPOCHS = 6
#: The "small disc": one sensing radius — a localized failure, the regime
#: warm restoration is built for.
DISC_RADII = 1.0
#: The acceptance threshold: warm makes >= 5x fewer delta updates than cold.
MIN_RATIO = 5.0
#: The exact steady-state delta updates of the scenario (deterministic):
#: work may move only with a change that says why.
WARM_UPDATES = 1_380
COLD_UPDATES = 96_132


def _failure(setup, deployment, epoch: int):
    """The scenario's small-disc area failure of one epoch."""
    center = setup.region.sample(1, np.random.default_rng(90_000 + epoch))[0]
    return area_failure(deployment, center, DISC_RADII * setup.rs)


def _session_epochs(setup, field, spec, k, deployment):
    """Warm: one session repairs every epoch; yields each repaired network."""
    session = RestorationSession(field, spec, deployment, k, "centralized")
    for epoch in range(N_EPOCHS):
        session.restore(_failure(setup, session.deployment, epoch))
        yield session.deployment


def _chained_epochs(setup, field, spec, k, deployment):
    """Cold: a one-shot ``restore`` per epoch, each from the previous
    repair; yields each repaired network."""
    network = deployment
    for epoch in range(N_EPOCHS):
        event = _failure(setup, deployment, epoch)
        network = restore(field, spec, network, event, k, "centralized").repair
        deployment = network.deployment
        yield deployment


def _steady_updates(epochs) -> int:
    """Benefit delta updates over the epochs after epoch 0."""
    OBS.enable(fresh=True)
    try:
        next(epochs)
        warmup = OBS.metrics.value("benefit_delta_updates_total")
        for _ in epochs:
            pass
    finally:
        OBS.disable()
    total = OBS.metrics.value("benefit_delta_updates_total")
    OBS.reset()
    return int(total - warmup)


@pytest.fixture(scope="module")
def fig08_scale_run():
    """One centralized k=2 deployment at the paper's fig08 field scale."""
    setup = ExperimentSetup.paper().with_seeds(1)
    cache = DeploymentCache(setup)
    series = series_by_name("centralized")
    result = cache.get(series, 2, 0)
    return setup, result, cache.field(0), setup.spec_for(series), 2


def test_warm_restore_delta_update_reduction(fig08_scale_run):
    """Tentpole acceptance gate: >= 5x fewer benefit delta updates warm
    vs cold across steady-state small-disc failure epochs."""
    setup, result, field, spec, k = fig08_scale_run
    warm_updates = _steady_updates(
        _session_epochs(setup, field, spec, k, result.deployment)
    )
    cold_updates = _steady_updates(
        _chained_epochs(setup, field, spec, k, result.deployment)
    )
    assert warm_updates > 0 and cold_updates > 0
    ratio = cold_updates / warm_updates
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "warm_restore.json").write_text(
        json.dumps(
            {
                "scenario": {
                    "field": "fig08-paper-scale",
                    "n_points": setup.n_points,
                    "method": "centralized",
                    "k": k,
                    "epochs": N_EPOCHS,
                    "disc_radius": DISC_RADII * setup.rs,
                    "steady_state": "epochs 1..N (epoch 0 = warm-up)",
                },
                "delta_updates": {
                    "warm": warm_updates,
                    "cold": cold_updates,
                    "ratio": round(ratio, 2),
                },
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    assert ratio >= MIN_RATIO, (
        f"warm restoration made {warm_updates} delta updates vs cold "
        f"{cold_updates} ({ratio:.1f}x) — below the {MIN_RATIO}x gate"
    )
    assert (warm_updates, cold_updates) == (WARM_UPDATES, COLD_UPDATES)


def test_warm_restore_bit_identical_here_too(fig08_scale_run):
    """The perf scenario's session repairs exactly as chained one-shot
    restores do, epoch by epoch."""
    setup, result, field, spec, k = fig08_scale_run
    warm = _session_epochs(setup, field, spec, k, result.deployment)
    cold = _chained_epochs(setup, field, spec, k, result.deployment)
    for epoch, (w, c) in enumerate(zip(warm, cold, strict=True)):
        assert np.array_equal(w.alive_positions(), c.alive_positions()), epoch

"""Multi-epoch failure-sequence sweeps (the warm-restoration experiment).

The paper's restoration evaluation (Figure 14) injects *one* disaster and
repairs once.  Real networks fail repeatedly, and that is where the
warm-start machinery of :class:`~repro.core.restoration.RestorationSession`
earns its keep: across a sequence of failure epochs the warm engine
re-examines only each epoch's damaged region instead of rebuilding all
placement state from the whole field.

:func:`run_epoch_sweep` drives one ``(series, k, seed)`` deployment through
``epochs`` failure/repair cycles under a deterministic failure schedule
(:data:`FAILURE_SCHEDULE` cycles the three injector kinds of
:mod:`repro.network.failures`), and :func:`epoch_series` seed-averages the
per-epoch repair cost into a :class:`~repro.experiments.figures.FigureResult`
— so the epoch sweep persists, renders and replays through exactly the same
JSON/CSV/table plumbing as the paper figures.

Warm and cold sweeps are bit-identical by construction: each epoch's
failure event is drawn from a fresh per-``(seed, epoch)`` RNG over the
session's current deployment, and the session's repairs are themselves
bit-identical (see :mod:`repro.core.restoration`), so the two modes see
the same failures, place the same nodes and serialise to the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.restoration import RestorationSession
from repro.errors import ExperimentError
from repro.experiments.figures import FigureResult
from repro.experiments.runner import DeploymentCache
from repro.experiments.setup import SERIES, ExperimentSetup, Series, series_by_name
from repro.geometry.region import Rect
from repro.network.deployment import Deployment
from repro.network.failures import (
    FailureEvent,
    area_failure,
    correlated_cluster_failures,
    random_failures,
)
from repro.obs import OBS

__all__ = [
    "FAILURE_SCHEDULE",
    "EpochRecord",
    "EpochSweepResult",
    "epoch_failure",
    "run_epoch_sweep",
    "epoch_series",
]

#: Failure kind injected at epoch ``e`` (cycled): a disaster disc, then
#: independent random failures, then a correlated cluster.
FAILURE_SCHEDULE: tuple[str, ...] = ("area", "random", "correlated")

#: Fraction of the alive population killed by a ``"random"`` epoch.
_RANDOM_FRACTION = 0.15


def epoch_failure(
    deployment: Deployment,
    region: Rect,
    epoch: int,
    seed: int = 0,
    *,
    radius: float,
) -> FailureEvent:
    """The deterministic failure event of one epoch.

    Epoch ``e`` uses injector ``FAILURE_SCHEDULE[e % 3]``; all stochastic
    choices (disc centre, victim sampling, cluster seed) come from a fresh
    RNG keyed by ``(seed, epoch)`` only, so the event depends on nothing
    but the current deployment — warm and cold sessions, whose deployments
    are bit-identical, therefore see identical failure sequences.

    ``radius`` sizes the disaster disc (and, halved, the correlation
    radius of the cluster model).
    """
    if epoch < 0:
        raise ExperimentError(f"epoch must be >= 0, got {epoch}")
    kind = FAILURE_SCHEDULE[epoch % len(FAILURE_SCHEDULE)]
    rng = np.random.default_rng(90_000 + 1009 * seed + epoch)
    if kind == "area":
        center = region.sample(1, rng)[0]
        return area_failure(deployment, center, radius)
    if kind == "random":
        return random_failures(deployment, rng, fraction=_RANDOM_FRACTION)
    return correlated_cluster_failures(
        deployment, rng, n_seeds=1, correlation_radius=radius / 2.0
    )


@dataclass(frozen=True)
class EpochRecord:
    """Outcome of one failure/repair epoch within a sweep."""

    epoch: int
    kind: str
    n_failed: int
    extra_nodes: int
    covered_after_failure: float
    covered_after_repair: float
    total_alive: int
    complete: bool

    def as_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "kind": self.kind,
            "n_failed": self.n_failed,
            "extra_nodes": self.extra_nodes,
            "covered_after_failure": self.covered_after_failure,
            "covered_after_repair": self.covered_after_repair,
            "total_alive": self.total_alive,
            "complete": self.complete,
        }


@dataclass(frozen=True)
class EpochSweepResult:
    """One ``(series, k, seed)`` deployment driven through a failure sequence."""

    series: str
    method: str
    k: int
    seed: int
    warm: bool
    records: tuple[EpochRecord, ...]

    @property
    def n_epochs(self) -> int:
        return len(self.records)

    def extra_nodes(self) -> np.ndarray:
        """Per-epoch repair cost (Figure 14's quantity, per epoch)."""
        return np.asarray([r.extra_nodes for r in self.records], dtype=float)

    def as_dict(self) -> dict:
        """JSON-ready payload; identical bytes for warm and cold sweeps
        apart from the ``warm`` flag itself (tests strip it to assert
        bit-identity of everything measured)."""
        return {
            "series": self.series,
            "method": self.method,
            "k": self.k,
            "seed": self.seed,
            "warm": self.warm,
            "records": [r.as_dict() for r in self.records],
        }


def run_epoch_sweep(
    setup: ExperimentSetup,
    series: Series | str,
    k: int,
    seed: int,
    *,
    epochs: int = 3,
    warm: bool | None = None,
    cache: DeploymentCache | None = None,
) -> EpochSweepResult:
    """Deploy one series and survive ``epochs`` failure/repair cycles.

    The initial deployment comes from the shared
    :class:`~repro.experiments.runner.DeploymentCache` (same cell the
    figures use), then a :class:`~repro.core.restoration.RestorationSession`
    repairs the scheduled failures of :func:`epoch_failure` one epoch at a
    time.  ``warm=None`` defers to ``REPRO_RESTORE``.
    """
    if epochs < 1:
        raise ExperimentError(f"need at least one epoch, got {epochs}")
    if isinstance(series, str):
        series = series_by_name(series)
    cache = cache if cache is not None else DeploymentCache(setup)
    result = cache.get(series, k, seed)
    session = RestorationSession(
        cache.field(seed),
        setup.spec_for(series),
        result,
        k,
        series.method,
        warm=warm,
        region=setup.region,
        rng=np.random.default_rng(60_000 + seed),
        cell_size=setup.cell_size_for(series),
    )
    records: list[EpochRecord] = []
    with OBS.span("epoch-sweep", series=series.name, k=k, seed=seed,
                  epochs=epochs):
        for epoch in range(epochs):
            event = epoch_failure(
                session.deployment, setup.region, epoch, seed,
                radius=setup.disaster_radius,
            )
            report = session.restore(event)
            records.append(
                EpochRecord(
                    epoch=epoch,
                    kind=event.kind,
                    n_failed=event.n_failed,
                    extra_nodes=report.extra_nodes,
                    covered_after_failure=report.covered_after_failure,
                    covered_after_repair=report.covered_after_repair,
                    total_alive=session.deployment.n_alive,
                    complete=report.complete,
                )
            )
    return EpochSweepResult(
        series=series.name,
        method=series.method,
        k=k,
        seed=seed,
        warm=session.warm,
        records=tuple(records),
    )


def epoch_series(
    setup: ExperimentSetup,
    k: int,
    *,
    epochs: int = 3,
    warm: bool | None = None,
    cache: DeploymentCache | None = None,
    series_names: tuple[str, ...] | None = None,
) -> FigureResult:
    """Seed-averaged repair cost per failure epoch, per method series.

    The multi-epoch companion to Figure 14: x is the epoch index, y the
    mean number of extra nodes each epoch's repair needed.  Returned as a
    :class:`~repro.experiments.figures.FigureResult` so the standard
    table/JSON/CSV plumbing applies; the payload is bit-identical between
    warm and cold runs (``warm`` is deliberately kept out of the result).
    """
    cache = cache if cache is not None else DeploymentCache(setup)
    names = (
        tuple(series_names)
        if series_names is not None
        else tuple(s.name for s in SERIES)
    )
    xs = np.arange(epochs, dtype=float)
    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for name in names:
        per_seed = [
            run_epoch_sweep(
                setup, name, k, seed, epochs=epochs, warm=warm, cache=cache
            ).extra_nodes()
            for seed in range(setup.n_seeds)
        ]
        out[name] = (xs.copy(), np.mean(np.vstack(per_seed), axis=0))
    return FigureResult(
        "epochs",
        f"Repair cost per failure epoch, k = {k}",
        "failure epoch",
        "extra nodes needed",
        out,
        meta={
            "k": k,
            "epochs": epochs,
            "schedule": list(FAILURE_SCHEDULE),
            "disaster_radius": setup.disaster_radius,
        },
    )

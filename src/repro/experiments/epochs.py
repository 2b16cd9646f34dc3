"""The deterministic failure schedule of multi-epoch restoration.

The paper's restoration evaluation (Figure 14) injects *one* disaster and
repairs once.  Real networks fail repeatedly: ``decor restore --epochs N``
drives one deployment through ``N`` failure/repair cycles of a
:class:`~repro.core.restoration.RestorationSession`, and
:func:`epoch_failure` draws each epoch's failure
(:data:`FAILURE_SCHEDULE` cycles the three injector kinds of
:mod:`repro.network.failures`).

Each epoch's failure event is drawn from a fresh per-``(seed, epoch)``
RNG over the current deployment, so a session and chained one-shot
:func:`~repro.core.restoration.restore` calls, whose deployments are
bit-identical, see the same failures.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ExperimentError
from repro.geometry.region import Rect
from repro.network.deployment import Deployment
from repro.network.failures import (
    FailureEvent,
    area_failure,
    correlated_cluster_failures,
    random_failures,
)

__all__ = ["FAILURE_SCHEDULE", "epoch_failure"]

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
    but the current deployment.

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

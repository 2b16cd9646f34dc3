"""Zoned (per-point) coverage requirements.

The paper derives a single global ``k`` from a single user reliability
target (§2.1).  Real monitoring missions are zoned: the ignition-prone
ravine needs 99.99% detection reliability, the gravel lot 90%.  Since
Eq. (1) only ever consumes the *deficiency* of each point, it generalises
verbatim to a per-point requirement vector ``k_p`` — this module exposes
that generalisation:

* :func:`requirement_map` — turn zone geometries + per-zone reliability
  targets into a per-point ``k_p`` vector (via the §2.1 algebra).
* :func:`variable_k_greedy` — the centralized greedy against a ``k_p``
  vector, terminating when every point meets *its own* requirement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core._common import placement_trace
from repro.core.benefit import BenefitEngine
from repro.core.result import PlacementTrace
from repro.errors import ConfigurationError, PlacementError
from repro.geometry.points import as_point, as_points, squared_distances_to
from repro.network.deployment import Deployment
from repro.network.reliability import required_k
from repro.network.spec import SensorSpec

__all__ = ["CoverageZone", "requirement_map", "variable_k_greedy", "VariableKResult"]


@dataclass(frozen=True)
class CoverageZone:
    """A disc-shaped zone with its own reliability target.

    Attributes
    ----------
    center, radius:
        Zone geometry (closed disc).
    target_reliability:
        Per-point detection reliability required inside the zone.
    """

    center: tuple[float, float]
    radius: float
    target_reliability: float

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ConfigurationError(f"zone radius must be positive, got {self.radius}")
        if not (0.0 <= self.target_reliability < 1.0):
            raise ConfigurationError(
                f"target reliability must be in [0, 1), got {self.target_reliability}"
            )


def requirement_map(
    field_points: np.ndarray,
    zones: list[CoverageZone],
    q: float,
    *,
    base_reliability: float = 0.0,
) -> np.ndarray:
    """Per-point coverage requirement ``k_p`` from zoned reliability targets.

    Each point takes the *highest* target among the zones containing it
    (``base_reliability`` elsewhere), translated through the §2.1 algebra
    ``k = min { k : 1 - q^k >= target }``.

    Parameters
    ----------
    field_points:
        ``(n, 2)`` field approximation.
    zones:
        Disc zones; overlaps resolve to the strictest target.
    q:
        Per-node failure probability.
    base_reliability:
        Target outside every zone (0 means "1-coverage suffices").

    Returns
    -------
    numpy.ndarray
        ``(n,)`` integer requirement vector, every entry >= 1.
    """
    pts = as_points(field_points)
    targets = np.full(pts.shape[0], float(base_reliability))
    for zone in zones:
        d2 = squared_distances_to(pts, as_point(np.asarray(zone.center)))
        inside = d2 <= zone.radius**2 + 1e-12
        np.maximum(targets, np.where(inside, zone.target_reliability, 0.0),
                   out=targets)
    # translate distinct targets once (required_k is pure)
    out = np.empty(pts.shape[0], dtype=np.int64)
    for t in np.unique(targets):
        out[targets == t] = required_k(float(t), q)
    return out


@dataclass
class VariableKResult:
    """Outcome of a zoned-coverage run.

    Attributes
    ----------
    requirement:
        The per-point ``k_p`` the run satisfied.
    deployment:
        The placed sensors (plus any initial ones).
    counts:
        Final per-point coverage counts (all ``>= requirement``).
    trace:
        Per-placement log.
    """

    requirement: np.ndarray
    deployment: Deployment
    counts: np.ndarray
    trace: PlacementTrace
    params: dict = field(default_factory=dict)

    @property
    def added_count(self) -> int:
        return len(self.trace)

    def satisfied(self) -> bool:
        return bool(np.all(self.counts >= self.requirement))

    def margin(self) -> np.ndarray:
        """Per-point slack ``counts - requirement`` (>= 0 on success)."""
        return self.counts - self.requirement


def variable_k_greedy(
    field_points: np.ndarray,
    spec: SensorSpec,
    requirement: np.ndarray,
    *,
    initial_positions: np.ndarray | None = None,
    max_nodes: int | None = None,
) -> VariableKResult:
    """Greedy placement against a per-point coverage requirement.

    Identical to the paper's Algorithm 1 with ``max(k_p - counts_p, 0)`` as
    the per-point weight; terminates when every point meets its own ``k_p``.

    Parameters
    ----------
    requirement:
        ``(n,)`` non-negative integers (0 = don't-care point), at least one
        positive.
    """
    pts = as_points(field_points)
    req = np.asarray(requirement, dtype=np.int64)
    engine = BenefitEngine(pts, spec.sensing_radius, req)
    if initial_positions is not None and len(as_points(initial_positions)):
        deployment = Deployment(initial_positions)
        for nid in deployment.alive_ids():
            engine.add_sensor_at_position(deployment.position_of(int(nid)))
    else:
        deployment = Deployment()

    chosen: list[int] = []
    benefits: list[float] = []
    kcovered: list[int] = []
    budget = (
        max_nodes if max_nodes is not None else int(req.sum()) + 1024
    )
    if budget < 1:
        raise PlacementError(f"max_nodes must be >= 1, got {max_nodes}")
    while not engine.is_fully_covered():
        if len(chosen) >= budget:
            raise PlacementError(
                f"variable-k greedy exceeded its budget of {budget} nodes"
            )
        idx = engine.argmax()
        benefit = float(engine.benefit[idx])
        if benefit <= 0.0:  # pragma: no cover - a deficient point self-scores
            raise PlacementError("no positive-benefit candidate remains")
        engine.place_at(idx)
        chosen.append(idx)
        benefits.append(benefit)
        kcovered.append(engine.n_kcovered)
    positions = pts[chosen]
    deployment.add_many(positions)
    return VariableKResult(
        requirement=req.copy(),
        deployment=deployment,
        counts=engine.counts.copy(),
        trace=placement_trace(positions, benefits, kcovered, engine.n_points),
        params={"max_requirement": int(req.max()), "min_requirement": int(req.min())},
    )

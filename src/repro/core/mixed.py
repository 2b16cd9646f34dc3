"""Mixed-fleet (heterogeneous) k-coverage placement.

The paper notes DECOR works unchanged with heterogeneous radii (§2); this
module takes the natural next step and lets the greedy *choose the sensor
type per placement*: given a catalog of :class:`~repro.network.heterogeneous.SensorType`
entries with different sensing radii and unit costs, each step places the
``(type, point)`` pair maximising **benefit per cost** — Eq. (1) divided by
the type's price — until the field is k-covered.  With a single-type
catalog of cost 1 this degenerates exactly to the paper's algorithm (the
tests assert placement-for-placement equality with
:func:`~repro.core.centralized.centralized_greedy`).

The engine generalises :class:`~repro.core.benefit.BenefitEngine` to one
benefit vector per type over a shared deficiency: placing any node changes
coverage once, and each type's benefit absorbs the change through its own
radius-``rs_t`` adjacency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core._common import placement_budget
from repro.core.result import PlacementTrace
from repro.errors import CoverageError, PlacementError
from repro.field import FieldModel, as_field_model
from repro.geometry.points import as_point
from repro.network.coverage import CoverageState
from repro.network.heterogeneous import MixedDeployment, SensorType
from repro.obs import OBS

__all__ = ["MixedBenefitEngine", "MixedDeploymentResult", "mixed_centralized_greedy"]


class MixedBenefitEngine:
    """Shared coverage counts with one incremental benefit vector per type.

    Parameters
    ----------
    field_points:
        ``(n, 2)`` field approximation; candidates for every type.
    types:
        The sensor catalog (distinct names).
    k:
        Coverage requirement.
    """

    def __init__(
        self,
        field_points: np.ndarray | FieldModel,
        types: tuple[SensorType, ...] | list[SensorType],
        k: int,
    ):
        if k < 1:
            raise CoverageError(f"k must be >= 1, got {k}")
        self._field = as_field_model(field_points)
        self._points = self._field.points
        self._types = tuple(types)
        if not self._types:
            raise CoverageError("need at least one sensor type")
        names = [t.name for t in self._types]
        if len(set(names)) != len(names):
            raise CoverageError(f"duplicate type names: {names}")
        self._k = int(k)
        n = self._points.shape[0]
        self._counts = np.zeros(n, dtype=np.int64)
        # one shared model supplies every per-type adjacency (memoised by
        # radius, so duplicate radii across the catalog cost one build)
        self._adj = {
            t.name: self._field.adjacency(t.sensing_radius)
            for t in self._types
        }
        d = self._deficiency().astype(np.float64)
        self._benefit = {name: adj @ d for name, adj in self._adj.items()}

    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        return self._k

    @property
    def n_points(self) -> int:
        return self._points.shape[0]

    @property
    def counts(self) -> np.ndarray:
        view = self._counts.view()
        view.flags.writeable = False
        return view

    def _deficiency(self) -> np.ndarray:
        return np.maximum(self._k - self._counts, 0)

    def is_fully_covered(self) -> bool:
        return bool(np.all(self._counts >= self._k))

    def covered_fraction(self) -> float:
        return float(np.count_nonzero(self._counts >= self._k)) / self.n_points

    def benefit(self, type_name: str) -> np.ndarray:
        try:
            vec = self._benefit[type_name]
        except KeyError:
            raise CoverageError(f"unknown sensor type {type_name!r}") from None
        view = vec.view()
        view.flags.writeable = False
        return view

    # ------------------------------------------------------------------
    def best_placement(self, costs: dict[str, float] | None = None) -> tuple[str, int, float]:
        """``(type_name, point_index, benefit)`` maximising benefit / cost.

        Ties break toward the earlier catalog type, then the lower point
        index (deterministic).
        """
        best: tuple[str, int, float] | None = None
        best_score = -np.inf
        for t in self._types:
            cost = (costs or {}).get(t.name, t.cost)
            vec = self._benefit[t.name]
            idx = int(np.argmax(vec))
            score = float(vec[idx]) / cost
            if score > best_score + 1e-12:
                best_score = score
                best = (t.name, idx, float(vec[idx]))
        assert best is not None
        return best

    def _apply(self, covered: np.ndarray, sign: int) -> None:
        if sign == +1:
            changed = covered[self._counts[covered] < self._k]
            self._counts[covered] += 1
        else:
            if np.any(self._counts[covered] <= 0):
                raise CoverageError("coverage count would become negative")
            self._counts[covered] -= 1
            changed = covered[self._counts[covered] < self._k]
        if changed.size == 0:
            return
        delta = -1.0 if sign == +1 else +1.0
        for name, adj in self._adj.items():
            rows = [
                adj.indices[adj.indptr[int(p)] : adj.indptr[int(p) + 1]]
                for p in changed
            ]
            np.add.at(self._benefit[name], np.concatenate(rows), delta)

    def place(self, type_name: str, point_index: int) -> np.ndarray:
        """Place a sensor of the named type at a field point."""
        if type_name not in self._adj:
            raise CoverageError(f"unknown sensor type {type_name!r}")
        if not (0 <= point_index < self.n_points):
            raise PlacementError(f"point index {point_index} out of range")
        adj = self._adj[type_name]
        covered = adj.indices[adj.indptr[point_index] : adj.indptr[point_index + 1]]
        self._apply(covered, +1)
        return covered.copy()

    def add_external(self, position: np.ndarray, sensing_radius: float) -> np.ndarray:
        """Account for an existing sensor of arbitrary position/radius."""
        if sensing_radius <= 0:
            raise CoverageError("sensing radius must be positive")
        covered = self._field.query_ball(as_point(position), sensing_radius)
        self._apply(covered, +1)
        return covered.copy()

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Cross-check every per-type benefit against a batch recompute."""
        d = self._deficiency().astype(np.float64)
        for name, adj in self._adj.items():
            if not np.allclose(self._benefit[name], adj @ d):
                raise CoverageError(f"benefit vector for {name!r} drifted")


@dataclass
class MixedDeploymentResult:
    """Outcome of a mixed-fleet placement run.

    Attributes
    ----------
    deployment:
        The typed deployment (positions + per-node types).
    coverage:
        Coverage state keyed by node ids (built with per-node radii).
    trace:
        Placement log; ``proposer`` holds the catalog index of the chosen
        type for each placement.
    placed_types:
        Type name per placement, aligned with the trace.
    total_cost:
        Catalog cost of the added fleet.
    """

    k: int
    deployment: MixedDeployment
    coverage: CoverageState
    trace: PlacementTrace
    placed_types: list[str]
    total_cost: float
    params: dict = field(default_factory=dict)

    @property
    def added_count(self) -> int:
        return len(self.placed_types)

    def count_by_type(self) -> dict[str, int]:
        out = {t.name: 0 for t in self.deployment.types}
        for name in self.placed_types:
            out[name] += 1
        return out


def mixed_centralized_greedy(
    field_points: np.ndarray,
    types: tuple[SensorType, ...] | list[SensorType],
    k: int,
    *,
    existing: list[tuple[np.ndarray, float]] | None = None,
    max_nodes: int | None = None,
) -> MixedDeploymentResult:
    """k-cover the field with a cost-aware heterogeneous greedy.

    Parameters
    ----------
    field_points:
        ``(n, 2)`` field approximation.
    types:
        Sensor catalog; each placement picks the type maximising
        benefit / cost.
    k:
        Coverage requirement.
    existing:
        Pre-existing sensors as ``(position, sensing_radius)`` pairs
        (failure survivors of arbitrary hardware); counted toward coverage.
    max_nodes:
        Safety budget on added nodes.

    Returns
    -------
    MixedDeploymentResult
    """
    field = as_field_model(field_points)
    pts = field.points
    budget = placement_budget(field.n_points, k, max_nodes)
    engine = MixedBenefitEngine(field, types, k)
    deployment = MixedDeployment(types)
    min_rs = min(t.sensing_radius for t in types)
    # the coverage state needs a radius; per-sensor radii are passed on add,
    # so the constructor radius is only the default (never used below)
    coverage = CoverageState(field, min_rs)

    # existing sensors register under negative keys so the added fleet keeps
    # the deployment's 0-based node ids
    for i, (pos, rs) in enumerate(existing or []):
        covered = engine.add_external(pos, rs)
        coverage.add_sensor_with_cover(-(i + 1), covered)

    trace = PlacementTrace()
    placed_types: list[str] = []
    type_index = {t.name: i for i, t in enumerate(types)}
    catalog = {t.name: t for t in types}
    total_cost = 0.0

    with OBS.span("placement", method="mixed", k=k) as span:
        while not engine.is_fully_covered():
            if len(placed_types) >= budget:
                raise PlacementError(
                    f"mixed greedy exceeded its budget of {budget} nodes"
                )
            name, idx, benefit = engine.best_placement()
            if benefit <= 0.0:
                raise PlacementError("no positive-benefit placement remains")
            covered = engine.place(name, idx)
            pos = pts[idx]
            nid = deployment.add(pos, name)
            coverage.add_sensor_with_cover(nid, covered)
            placed_types.append(name)
            total_cost += catalog[name].cost
            trace.record(
                pos, benefit, engine.covered_fraction(), proposer=type_index[name]
            )
            if OBS.enabled:
                OBS.event("placement", point=idx, benefit=benefit, type=name)
                OBS.counter("decor_placements_total", method="mixed").inc()
                OBS.histogram("greedy_round_benefit").observe(benefit)
        span.set(placed=len(placed_types), cost=total_cost)

    return MixedDeploymentResult(
        k=k,
        deployment=deployment,
        coverage=coverage,
        trace=trace,
        placed_types=placed_types,
        total_cost=total_cost,
        params={"catalog": {t.name: (t.rs, t.cost) for t in types}},
    )

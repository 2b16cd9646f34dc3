"""Centralized greedy baseline (paper §4, comparison method 1).

Uses the same benefit heuristic as DECOR but with a global view of the
field: every field point is a candidate at every step and the benefit sums
over *all* points within ``rs``.  The paper expects (and Figure 8 confirms)
this to give the most node-efficient placement of all methods — it is the
quality ceiling the distributed variants are measured against.
"""

from __future__ import annotations

import numpy as np

from repro.checks import greedy_checker
from repro.core._common import finalize, init_run, placement_budget, placement_trace
from repro.core.result import DeploymentResult
from repro.errors import PlacementError
from repro.network.spec import SensorSpec
from repro.obs import OBS

__all__ = ["centralized_greedy"]


def centralized_greedy(
    field_points: np.ndarray,
    spec: SensorSpec,
    k: int,
    *,
    initial_positions: np.ndarray | None = None,
    max_nodes: int | None = None,
    benefit_mode: str = "deficiency",
    engine=None,
    stop_at_budget: bool = False,
) -> DeploymentResult:
    """k-cover the field points with the global greedy of Algorithm 1.

    Parameters
    ----------
    field_points:
        ``(n, 2)`` low-discrepancy approximation of the area, or a shared
        :class:`~repro.field.FieldModel` over it.
    spec:
        Sensor radii; only ``rs`` matters for the centralized algorithm.
    k:
        Coverage requirement (>= 1).
    initial_positions:
        Pre-existing sensors (e.g. failure survivors); counted toward
        coverage, never moved.
    max_nodes:
        Safety budget on *added* nodes; defaults to a provably sufficient
        bound.
    benefit_mode:
        ``"deficiency"`` (paper Eq. 1) or ``"binary"`` (unweighted count of
        deficient points) — the benefit-function ablation.
    engine:
        Optional pre-warmed :class:`~repro.core.benefit.BenefitEngine`
        already accounting ``initial_positions`` (the warm-restoration
        seam); built fresh when omitted.
    stop_at_budget:
        Return the (partial) deployment when ``max_nodes`` is exhausted
        instead of raising — used by :func:`repro.core.restoration.restore`
        to report truncated repairs.

    Returns
    -------
    DeploymentResult
        With ``method == "centralized"`` and one trace entry per added node.
    """
    field, deployment, engine = init_run(
        field_points, spec, k, initial_positions,
        benefit_mode=benefit_mode, engine=engine,
    )
    pts = field.points
    chosen: list[int] = []
    benefits: list[float] = []
    kcovered: list[int] = []
    budget = placement_budget(engine.n_points, k, max_nodes)
    checker = greedy_checker(engine, method="centralized")
    with OBS.span("placement", method="centralized", k=k) as span:
        while not engine.is_fully_covered():
            if len(chosen) >= budget:
                if stop_at_budget:
                    break
                raise PlacementError(
                    f"centralized greedy exceeded its budget of {budget} nodes"
                )
            idx = engine.argmax()
            benefit = float(engine.benefit[idx])
            if benefit <= 0.0:
                # impossible: a deficient point is its own candidate with b >= 1
                raise PlacementError("no positive-benefit candidate remains")
            engine.place_at(idx)
            chosen.append(idx)
            benefits.append(benefit)
            kcovered.append(engine.n_kcovered)
            checker.after_step(len(chosen) - 1, idx, pts[idx])
        span.set(placed=len(chosen))
    positions = pts[chosen]
    return finalize(
        method="centralized",
        k=k,
        engine=engine,
        deployment=deployment,
        added_ids=deployment.add_many(positions),
        trace=placement_trace(positions, benefits, kcovered, engine.n_points),
        params={"benefit_mode": benefit_mode},
    )

"""Random placement baseline (paper §4, comparison method 2).

Drops nodes uniformly at random over the region until every field point is
k-covered.  The paper reports it needs about 4x the nodes of any informed
method and 10-20x the redundant nodes — the cautionary tale the benefit
heuristic is measured against.
"""

from __future__ import annotations

import numpy as np

from repro.core._common import finalize, init_run, placement_budget, placement_trace
from repro.core.result import DeploymentResult
from repro.errors import PlacementError
from repro.geometry.points import bounding_rect_of
from repro.geometry.region import Rect
from repro.network.spec import SensorSpec
from repro.obs import OBS

__all__ = ["random_placement"]


def random_placement(
    field_points: np.ndarray,
    spec: SensorSpec,
    k: int,
    rng: np.random.Generator,
    *,
    region: Rect | None = None,
    initial_positions: np.ndarray | None = None,
    max_nodes: int | None = None,
    batch_size: int = 16,
    engine=None,
    stop_at_budget: bool = False,
) -> DeploymentResult:
    """Place uniform-random nodes until the field points are k-covered.

    Parameters
    ----------
    region:
        Sampling region; defaults to the bounding box of the field points.
    batch_size:
        Nodes are drawn, and their sensing discs queried, in batches to
        amortise RNG and neighbour-index calls; coverage is still accounted
        node by node so the trace is exact and no overshoot beyond the final
        batch occurs (the run stops at the first node achieving full
        coverage).
    max_nodes:
        Safety budget; random placement on an unlucky seed needs many nodes,
        so the default is ``64 * k * lower_bound``-ish via
        :func:`placement_budget`.
    engine:
        Optional pre-warmed :class:`~repro.core.benefit.BenefitEngine`
        already accounting ``initial_positions`` (the warm-restoration
        seam); built fresh when omitted.
    stop_at_budget:
        Return the (partial) deployment when ``max_nodes`` is exhausted
        instead of raising — used by :func:`repro.core.restoration.restore`
        to report truncated repairs.

    Notes
    -----
    The expected node count follows the coupon-collector-like law for random
    disc k-coverage — with 2000 points, ``rs = 4`` and a 100x100 field this
    lands in the paper's reported 1500-4500 range depending on ``k``.
    """
    if batch_size < 1:
        raise PlacementError(f"batch_size must be >= 1, got {batch_size}")
    field, deployment, engine = init_run(
        field_points, spec, k, initial_positions, engine=engine
    )
    if region is None:
        region = bounding_rect_of(field.points)
    drops: list[np.ndarray] = []  # the used prefix of each batch
    kcovered: list[int] = []
    budget = placement_budget(engine.n_points, k, max_nodes)
    with OBS.span("placement", method="random", k=k) as span:
        while not engine.is_fully_covered():
            if len(kcovered) >= budget:
                if stop_at_budget:
                    break
                raise PlacementError(
                    f"random placement exceeded its budget of {budget} nodes"
                )
            batch = region.sample(min(batch_size, budget - len(kcovered)), rng)
            # one ball query per batch; off-field drops cover no point but
            # still get their accounting row
            rows = field.query_ball_many(batch, engine.sensing_radius)
            placed = len(kcovered)
            for pos, row in zip(batch, rows):
                engine.add_sensor_at_position(pos, covered=row)
                kcovered.append(engine.n_kcovered)
                if engine.is_fully_covered():
                    break
            drops.append(batch[: len(kcovered) - placed])
        span.set(placed=len(kcovered))
    positions = np.concatenate(drops) if drops else np.empty((0, 2))
    return finalize(
        method="random",
        k=k,
        engine=engine,
        deployment=deployment,
        added_ids=deployment.add_many(positions),
        trace=placement_trace(
            positions, np.zeros(len(kcovered)), kcovered, engine.n_points
        ),
        params={"region": (region.x0, region.y0, region.x1, region.y1)},
    )

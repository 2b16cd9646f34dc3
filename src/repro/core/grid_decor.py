"""Grid-based DECOR (paper §3.1, §3.3 — the leader/cell architecture).

The region is tiled into fixed cells, each managed by an (elected, rotating)
leader.  Every leader repeatedly runs Algorithm 1 on *its own cell's* field
points: it knows the exact coverage count of each point in its cell (leaders
of neighbouring cells inform it of border-crossing placements — the messages
of Figure 10), but it only credits benefit toward its own points, which is
precisely the information asymmetry that makes the grid variant deploy more
nodes than the centralized greedy.

Concurrency is modelled as synchronous rounds: in each round every cell that
still contains a deficient point places one node.  This matches the paper's
"each node runs a greedy algorithm independently from other nodes" without
requiring a full packet-level simulation (the packet-level variant lives in
:mod:`repro.core.protocols` and is cross-checked against this one in the
tests).
"""

from __future__ import annotations

import numpy as np

from repro.checks import greedy_checker
from repro.core._common import finalize, init_run, placement_budget, placement_trace
from repro.core.result import DeploymentResult, MessageStats
from repro.errors import PlacementError
from repro.field import as_field_model
from repro.field.csr import sorted_unique
from repro.geometry.region import Rect
from repro.network.spec import SensorSpec
from repro.obs import OBS

__all__ = ["grid_decor"]


def grid_decor(
    field_points: np.ndarray,
    spec: SensorSpec,
    k: int,
    region: Rect,
    cell_size: float,
    *,
    initial_positions: np.ndarray | None = None,
    max_nodes: int | None = None,
    count_base_station_reports: bool = False,
    engine=None,
    stop_at_budget: bool = False,
) -> DeploymentResult:
    """k-cover the field with per-cell greedy leaders.

    Parameters
    ----------
    field_points:
        ``(n, 2)`` field approximation (must lie inside ``region``), or a
        shared :class:`~repro.field.FieldModel` over it — repeated grid runs
        on one model reuse the cached cell assignment and same-cell
        adjacency.
    spec:
        Sensor radii.  ``rs`` drives coverage/benefit; ``rc`` is assumed
        large enough for leader-to-leader communication (the paper picks
        ``rc = 10 * sqrt(2)`` for 5x5 cells to make that true without
        routing).
    k:
        Coverage requirement.
    region:
        The monitored rectangle to partition.
    cell_size:
        Side of the square cells (paper: 5 = "small", 10 = "big").
    count_base_station_reports:
        If true, each placement also costs one message for the leader's
        report to the base station (§3.1).  Off by default so Figure 10
        counts only the inter-leader border traffic.
    engine:
        Optional pre-warmed :class:`~repro.core.benefit.BenefitEngine`
        already accounting ``initial_positions`` (the warm-restoration
        seam).  Must have been built with this field model's memoised
        same-cell benefit adjacency for the same grid.
    stop_at_budget:
        Return the (partial) deployment when ``max_nodes`` is exhausted
        instead of raising — used by :func:`repro.core.restoration.restore`
        to report truncated repairs.

    Returns
    -------
    DeploymentResult
        ``method == "grid"``; ``messages`` holds the per-cell accounting.
    """
    field = as_field_model(field_points)
    pts = field.points
    partition = field.grid_partition(region, cell_size)
    benefit_adjacency = field.same_cell_adjacency(
        spec.sensing_radius, region, cell_size
    )
    _, deployment, engine = init_run(
        field, spec, k, initial_positions,
        benefit_adjacency=benefit_adjacency, engine=engine,
    )

    points_by_cell = field.points_by_cell(region, cell_size)
    cell_of_point = field.cell_of(region, cell_size)
    # border exchange: a sensor at point i informs the leader of every
    # other cell its disc reaches (and, optionally, the base station)
    indptr, _ = field.disk_cells(spec.sensing_radius, region, cell_size)
    sends = (np.diff(indptr) - 1 + int(count_base_station_reports)).tolist()

    chosen: list[int] = []
    benefits: list[float] = []
    kcovered: list[int] = []
    proposers: list[int] = []
    sent: list[int] = []
    budget = placement_budget(engine.n_points, k, max_nodes)
    checker = greedy_checker(engine, method="grid")

    rounds = 0
    truncated = False
    with OBS.span("placement", method="grid", k=k, cell_size=float(cell_size)) as span, \
            OBS.run("grid_decor", k=int(k), cell_size=float(cell_size)) as frun:
        progress = True
        counts = engine.counts
        while progress and not truncated:
            progress = False
            rounds += 1
            # only cells holding a deficient point at the round's start can
            # place in it (coverage only grows within a round)
            active = sorted_unique(cell_of_point[engine.deficient_indices()])
            for cid in active.tolist():
                cell_points = points_by_cell[cid]
                if not (counts[cell_points] < k).any():
                    continue
                if len(chosen) >= budget:
                    if stop_at_budget:
                        truncated = True
                        break
                    raise PlacementError(
                        f"grid DECOR exceeded its budget of {budget} nodes"
                    )
                idx = engine.argmax(candidates=cell_points)
                benefit = float(engine.benefit[idx])
                if benefit <= 0.0:
                    # a deficient own-cell point contributes its own deficiency,
                    # so this cannot happen with a consistent engine
                    raise PlacementError(
                        f"cell {cid} has deficient points but zero benefit"
                    )
                engine.place_at(idx)
                n_msgs = sends[idx]
                chosen.append(idx)
                benefits.append(benefit)
                kcovered.append(engine.n_kcovered)
                proposers.append(cid)
                sent.append(n_msgs)
                checker.after_step(len(chosen) - 1, idx, pts[idx])
                progress = True
                if OBS.enabled:
                    # analytic rounds stand in for sim time; the acting
                    # "node" is the placing cell's leader, i.e. the cell id
                    OBS.flight.emit(
                        "placement", cid, t=float(rounds), cause=None,
                        cell=cid, point=int(idx), benefit=benefit,
                        messages=n_msgs,
                    )
        span.set(placed=len(chosen), rounds=rounds, messages=sum(sent))
        frun.set(placed=len(chosen), rounds=rounds)

    if not truncated and not engine.is_fully_covered():  # pragma: no cover - defensive
        raise PlacementError("grid DECOR stalled before reaching full coverage")

    positions = pts[chosen]
    added_ids = deployment.add_many(positions)
    per_cell_msgs = np.zeros(partition.n_cells, dtype=np.int64)
    np.add.at(per_cell_msgs, proposers, sent)
    nodes_per_cell = np.zeros(partition.n_cells, dtype=np.int64)
    alive_pos = deployment.alive_positions()
    if len(alive_pos):
        inside = region.contains(alive_pos)
        cells = partition.cell_of(alive_pos[inside])
        np.add.at(nodes_per_cell, cells, 1)
    messages = MessageStats(per_cell=per_cell_msgs, nodes_per_cell=nodes_per_cell)

    return finalize(
        method="grid",
        k=k,
        engine=engine,
        deployment=deployment,
        added_ids=added_ids,
        trace=placement_trace(
            positions, benefits, kcovered, engine.n_points, proposers, sent
        ),
        messages=messages,
        params={"cell_size": float(cell_size)},
    )

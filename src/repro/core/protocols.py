"""In-network execution of grid-based DECOR on the event simulator.

:mod:`repro.core.grid_decor` models the distributed run as synchronous
rounds; this module executes the *same* leader logic as per-node protocol
state machines over the packet-level radio of :mod:`repro.sim`:

* one :class:`GridLeaderProtocol` per occupied cell, placed at the cell
  center (leaders are elected and rotated by
  :mod:`repro.sim.election`; here the leader role is what matters, so the
  protocol binds it to a stable per-cell node id);
* each leader wakes once per round (staggered deterministically in cell-id
  order, matching the analytic round-robin), places a node at its cell's
  maximum-benefit point if the cell still has a deficient point, and
  *unicasts* a ``PLACE_NOTIFY`` to the leader of every neighbouring cell the
  new sensing disc reaches into (§3.3's border exchange);
* the run ends when a full round passes with no placement.

Because the wake order equals the analytic loop's cell order, the placement
sequence — and therefore the node count — must match
:func:`~repro.core.grid_decor.grid_decor` exactly; the integration tests
assert this equivalence, and the radio's message counters independently
reproduce the analytic :class:`~repro.core.result.MessageStats`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core._common import init_run, placement_budget
from repro.errors import PlacementError, SimulationError
from repro.field import as_field_model
from repro.geometry.region import Rect
from repro.network.spec import SensorSpec
from repro.obs import OBS, bridge_radio_stats
from repro.sim.engine import Simulator
from repro.sim.messages import Message
from repro.sim.protocol import NodeProtocol
from repro.sim.radio import Radio, RadioStats

__all__ = ["GridLeaderProtocol", "InNetworkRunReport", "run_grid_protocol"]

PLACE_NOTIFY = "PLACE_NOTIFY"


class GridLeaderProtocol(NodeProtocol):
    """Leader of one grid cell, running Algorithm 1 over its own points.

    The shared :class:`~repro.core.benefit.BenefitEngine` stands in for the
    coverage knowledge every leader maintains about its own cell: the paper's
    border-exchange messages are what keep that knowledge exact, and those
    messages are transmitted for real here (their loss would desynchronise a
    real network; the lossless-radio equivalence test pins the semantics).
    """

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        radio: Radio,
        position: np.ndarray,
        *,
        cell_id: int,
        harness: "_Harness",
    ):
        super().__init__(node_id, sim, radio, position)
        self.cell_id = int(cell_id)
        self.harness = harness
        self.notifications_received: list[tuple[int, int]] = []

    def on_start(self) -> None:
        self._wake()

    def _wake(self) -> None:
        placed = self.harness.try_place(self)
        if placed is not None:
            point_index, neighbors = placed
            for other in neighbors:
                leader_id = self.harness.leader_of_cell.get(int(other))
                if leader_id is None or leader_id == self.node_id:
                    continue
                try:
                    self.unicast(leader_id, PLACE_NOTIFY, payload=int(point_index))
                except SimulationError:
                    # neighbouring leader out of radio range: the paper's
                    # rc = 2 * cell_diagonal guarantee is violated by the
                    # chosen spec; record it so callers can detect it
                    self.harness.undeliverable += 1
        self.set_timer(self.harness.round_period, self._wake)

    def on_message(self, message: Message) -> None:
        if message.kind == PLACE_NOTIFY:
            self.notifications_received.append((message.sender, int(message.payload)))


class _Harness:
    """Shared state driving the per-leader protocol instances."""

    def __init__(self, engine, pts, partition, points_by_cell, spec, k, budget,
                 round_period: float):
        self.engine = engine
        self.pts = pts
        self.partition = partition
        self.points_by_cell = points_by_cell
        self.spec = spec
        self.k = k
        self.budget = budget
        self.round_period = round_period
        self.placed_points: list[int] = []
        self.placed_by_cell: dict[int, list[int]] = {}
        self.leader_of_cell: dict[int, int] = {}
        self.undeliverable = 0
        self.idle_rounds = 0

    def try_place(self, leader: GridLeaderProtocol):
        cell_points = self.points_by_cell[leader.cell_id]
        counts = self.engine.counts
        if not np.any(counts[cell_points] < self.k):
            return None
        if len(self.placed_points) >= self.budget:
            raise PlacementError(
                f"in-network grid DECOR exceeded its budget of {self.budget}"
            )
        idx = self.engine.argmax(candidates=cell_points)
        benefit = float(self.engine.benefit[idx])
        if benefit <= 0.0:
            raise PlacementError(
                f"cell {leader.cell_id} deficient but zero benefit"
            )
        if OBS.enabled:
            OBS.flight.emit(
                "placement", leader.node_id, t=leader.sim.now,
                cell=leader.cell_id, point=int(idx), benefit=benefit,
            )
        self.engine.place_at(idx)
        self.placed_points.append(int(idx))
        self.placed_by_cell.setdefault(leader.cell_id, []).append(int(idx))
        pos = self.pts[idx]
        affected = self.partition.cells_intersecting_disk(
            pos, self.spec.sensing_radius
        )
        neighbors = [int(c) for c in affected if int(c) != leader.cell_id]
        return int(idx), neighbors


@dataclass
class InNetworkRunReport:
    """Outcome of a packet-level grid DECOR run.

    Attributes
    ----------
    placed_point_indices:
        Field-point indices where sensors were placed, in placement order.
    placed_positions:
        The corresponding coordinates, ``(n, 2)``.
    radio_stats:
        Raw transmit/receive counters per leader node id.
    notify_messages:
        Total ``PLACE_NOTIFY`` transmissions (the Figure 10 quantity).
    undeliverable:
        Border notifications whose target leader was out of radio range
        (0 whenever ``rc`` respects the paper's leader-distance bound).
    sim_time:
        Simulation time at completion.
    covered_fraction:
        Final k-coverage fraction (1.0 on success).
    """

    placed_point_indices: list[int]
    placed_positions: np.ndarray
    radio_stats: RadioStats
    notify_messages: int
    undeliverable: int
    sim_time: float
    covered_fraction: float


def run_grid_protocol(
    field_points: np.ndarray,
    spec: SensorSpec,
    k: int,
    region: Rect,
    cell_size: float,
    *,
    initial_positions: np.ndarray | None = None,
    max_nodes: int | None = None,
    round_period: float = 1.0,
    radio_delay: float = 0.001,
    max_sim_time: float = 1e6,
) -> InNetworkRunReport:
    """Execute grid DECOR as an event-driven protocol; see module docstring.

    Raises
    ------
    PlacementError
        If the protocol stalls or exceeds its placement budget.
    """
    field = as_field_model(field_points)
    pts = field.points
    partition = field.grid_partition(region, cell_size)
    benefit_adjacency = field.same_cell_adjacency(
        spec.sensing_radius, region, cell_size
    )
    _, _, engine = init_run(
        field, spec, k, initial_positions, benefit_adjacency=benefit_adjacency
    )
    points_by_cell = field.points_by_cell(region, cell_size)
    budget = placement_budget(engine.n_points, k, max_nodes)

    sim = Simulator()
    radio = Radio(sim, spec.communication_radius, delay=radio_delay)
    harness = _Harness(
        engine, pts, partition, points_by_cell, spec, k, budget, round_period
    )

    leaders: list[GridLeaderProtocol] = []
    occupied = [c for c in range(partition.n_cells) if points_by_cell[c].size]
    for i, cid in enumerate(occupied):
        center = partition.cell_rect(cid).center
        leader = GridLeaderProtocol(
            i, sim, radio, center, cell_id=cid, harness=harness
        )
        harness.leader_of_cell[cid] = i
        leaders.append(leader)
    # stagger wakes in cell order within each round -> deterministic order
    stagger = round_period / (4 * max(len(leaders), 1))
    with OBS.span("protocol", kind="grid", k=k, leaders=len(leaders)) as span, \
            OBS.run("grid", k=int(k), leaders=len(leaders)) as frun:
        for i, leader in enumerate(leaders):
            leader.start(delay=i * stagger)

        # run round by round until a full round makes no progress
        rounds = 0
        placed_before = -1
        while (
            engine.total_deficiency() > 0
            or placed_before != len(harness.placed_points)
        ):
            placed_before = len(harness.placed_points)
            target = sim.now + round_period
            if target > max_sim_time:
                raise PlacementError(
                    "in-network run exceeded the simulation horizon"
                )
            sim.run(until=target)
            rounds += 1
            if (
                engine.total_deficiency() > 0
                and placed_before == len(harness.placed_points)
                and sim.now > round_period
            ):
                raise PlacementError("in-network grid DECOR stalled")

        notify = sum(radio.stats.sent.values())
        span.set(placed=len(harness.placed_points), rounds=rounds,
                 notify_messages=notify, undeliverable=harness.undeliverable)
        frun.set(placed=len(harness.placed_points), rounds=rounds)
        if OBS.enabled:
            OBS.counter("decor_messages_total", kind="place_notify").inc(notify)
            if harness.undeliverable:
                OBS.counter(
                    "decor_messages_total", kind="undeliverable"
                ).inc(harness.undeliverable)
            bridge_radio_stats(radio.stats, protocol="grid")
    placed = harness.placed_points
    return InNetworkRunReport(
        placed_point_indices=list(placed),
        placed_positions=pts[np.asarray(placed, dtype=np.intp)].copy()
        if placed
        else np.empty((0, 2)),
        radio_stats=radio.stats,
        notify_messages=notify,
        undeliverable=harness.undeliverable,
        sim_time=sim.now,
        covered_fraction=engine.covered_fraction(),
    )

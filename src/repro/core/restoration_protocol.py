"""End-to-end in-network restoration: heartbeats -> detection -> repair.

This wires the paper's §3.2 failure-handling story together as one
packet-level simulation:

1. a grid-DECOR-deployed network runs; every sensor broadcasts position
   beacons with period ``Tc`` (:class:`~repro.sim.heartbeat.HeartbeatNode`);
2. at a chosen time a failure event silences a set of nodes (crash-stop:
   timers cancelled, radio dead) and the field's *actual* coverage drops;
3. surviving neighbours stop hearing the beacons and, after the timeout,
   suspect the dead nodes;
4. each cell's leader — the lowest-id member it does not suspect, the
   paper's elected-leader stand-in (the election protocol itself is
   exercised separately in :mod:`repro.sim.election`) — reacts to
   suspicions by re-running the DECOR greedy over its own cell's points and
   deploying replacements, announcing each placement to its radio
   neighbourhood;
5. replacements boot as first-class sensors (they beacon, they can lead,
   they can fail), and the run ends when the field is k-covered again.

The report carries the quantities a systems evaluation wants: detection
latency (crash -> first suspicion), restoration latency (crash -> full
coverage), replacement count and message totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core._common import placement_budget, publish_delta_updates
from repro.core.benefit import BenefitEngine
from repro.errors import PlacementError, SimulationError
from repro.field import as_field_model
from repro.geometry.points import as_points
from repro.geometry.region import Rect
from repro.network.spec import SensorSpec
from repro.obs import (
    OBS,
    bridge_radio_stats,
    record_energy_health,
    record_protocol_health,
)
from repro.sim.engine import Simulator
from repro.sim.heartbeat import HeartbeatConfig, HeartbeatNode
from repro.sim.radio import Radio
from repro.sim.stats import EnergyModel

__all__ = ["RestorationProtocolReport", "run_restoration_protocol"]

PLACE_ANNOUNCE = "RESTORE_PLACE"


class _RepairNode(HeartbeatNode):
    """A sensor that beacons, watches neighbours, and repairs its cell."""

    def __init__(self, node_id, sim, radio, position, config, rng, harness,
                 cell_id: int):
        super().__init__(
            node_id, sim, radio, position, config, rng,
            on_suspect=self._handle_suspect,
        )
        self.cell_id = int(cell_id)
        self.harness = harness
        self._repair_armed = False

    # ------------------------------------------------------------------
    def _is_leader(self) -> bool:
        """Lowest alive member of the cell that this node does not suspect."""
        members = self.harness.members_of_cell[self.cell_id]
        for nid in members:
            if nid == self.node_id:
                return True
            if nid not in self.suspected() and self.harness.nodes[nid].alive:
                # a lower-id member we still believe alive outranks us;
                # note: we cannot observe .alive in a real network — the
                # check stands in for "not suspected AND actually beaconing",
                # which the suspicion set converges to within a timeout
                return False
        return True

    def _handle_suspect(self, _me: int, suspect: int) -> None:
        if self.harness.first_suspicion_time is None:
            self.harness.first_suspicion_time = self.sim.now
        self._arm_repair()

    def _arm_repair(self) -> None:
        if self._repair_armed or not self.alive:
            return
        self._repair_armed = True
        self.set_timer(self.config.period, self._repair)

    def _repair(self) -> None:
        self._repair_armed = False
        if not self._is_leader():
            return
        placed = self.harness.repair_cell(self.cell_id, leader=self)
        # §3.1: "if no nodes exist in the cell, the leader of a neighboring
        # cell will place a new leader in the uncovered cell" — repair
        # orphaned neighbour cells too (their first replacement then takes
        # over as that cell's own member/leader for the rest)
        for other in self.harness.partition.neighbors_of(self.cell_id):
            if self.harness.cell_orphaned(int(other)):
                placed += self.harness.repair_cell(int(other), leader=self)
        if placed and self.harness.engine.is_fully_covered():
            self.harness.restored_time = self.sim.now

    def on_start(self) -> None:  # periodic audit on top of the beacons
        super().on_start()
        self._audit()

    def _audit(self) -> None:
        """Periodic deficiency check — catches holes opened by failures of
        *other* cells' nodes whose discs reached into this cell, and
        orphaned neighbour cells with no alive members left."""
        if self._is_leader():
            needs = self.harness.cell_deficient(self.cell_id) or any(
                self.harness.cell_orphaned(int(other))
                for other in self.harness.partition.neighbors_of(self.cell_id)
            )
            if needs:
                self._arm_repair()
        self.set_timer(2.0 * self.config.period, self._audit)


class _Harness:
    """Shared world state: the field, the engine, the node registry."""

    def __init__(self, sim, radio, engine, pts, partition, points_by_cell,
                 spec, k, config, rng, budget):
        self.sim = sim
        self.radio = radio
        self.engine = engine
        self.pts = pts
        self.partition = partition
        self.points_by_cell = points_by_cell
        self.spec = spec
        self.k = k
        self.config = config
        self.rng = rng
        self.budget = budget
        self.nodes: dict[int, _RepairNode] = {}
        self.members_of_cell: dict[int, list[int]] = {}
        self.next_node_id = 0
        self.placements: list[tuple[float, int, int]] = []  # (time, cell, point)
        self.first_suspicion_time: float | None = None
        self.restored_time: float | None = None

    # ------------------------------------------------------------------
    def spawn(self, position: np.ndarray, *, start_delay: float) -> _RepairNode:
        cell = int(self.partition.cell_of(
            self.partition.region.clip(np.asarray(position).reshape(1, 2))
        )[0])
        node = _RepairNode(
            self.next_node_id, self.sim, self.radio, position,
            self.config, self.rng, self, cell,
        )
        self.nodes[node.node_id] = node
        self.members_of_cell.setdefault(cell, []).append(node.node_id)
        self.members_of_cell[cell].sort()
        self.next_node_id += 1
        node.start(delay=start_delay)
        return node

    def cell_deficient(self, cell_id: int) -> bool:
        pts_in_cell = self.points_by_cell[cell_id]
        if pts_in_cell.size == 0:
            return False
        return bool(np.any(self.engine.counts[pts_in_cell] < self.k))

    def cell_orphaned(self, cell_id: int) -> bool:
        """Deficient cell with no alive member to repair itself."""
        if not self.cell_deficient(cell_id):
            return False
        members = self.members_of_cell.get(cell_id, [])
        return not any(self.nodes[m].alive for m in members)

    def repair_cell(self, cell_id: int, leader: _RepairNode) -> int:
        """Place replacements until the cell has no deficient point."""
        placed = 0
        cell_points = self.points_by_cell[cell_id]
        while self.cell_deficient(cell_id):
            if len(self.placements) >= self.budget:
                raise PlacementError(
                    f"restoration exceeded its budget of {self.budget} nodes"
                )
            idx = self.engine.argmax(candidates=cell_points)
            if self.engine.benefit[idx] <= 0.0:  # pragma: no cover
                raise PlacementError(f"cell {cell_id} deficient, zero benefit")
            if OBS.enabled:
                OBS.flight.emit(
                    "placement", leader.node_id, t=self.sim.now,
                    cell=int(cell_id), point=int(idx),
                    benefit=float(self.engine.benefit[idx]),
                )
            self.engine.place_at(idx)
            pos = self.pts[idx]
            self.placements.append((self.sim.now, cell_id, int(idx)))
            # announce to the radio neighbourhood (cell members + border)
            leader.broadcast(PLACE_ANNOUNCE, payload=(cell_id, int(idx)))
            # the replacement boots shortly after physical deployment
            self.spawn(pos, start_delay=0.1 * self.config.period)
            placed += 1
        return placed


@dataclass
class RestorationProtocolReport:
    """Outcome of an in-network failure + restoration run.

    Attributes
    ----------
    crash_time / first_suspicion_time / restored_time:
        Simulation times of the failure injection, the first suspicion
        raised anywhere, and the return to full k-coverage (None if never).
    detection_latency / restoration_latency:
        The differences, for convenience (None if not reached).
    replacements:
        Nodes the protocol deployed, as ``(time, cell_id, point_index)``.
    messages_sent:
        Total radio transmissions during the run (beacons + announcements).
    covered_fraction:
        Final k-coverage fraction (1.0 on success).
    """

    crash_time: float
    first_suspicion_time: float | None
    restored_time: float | None
    replacements: list[tuple[float, int, int]] = field(default_factory=list)
    messages_sent: int = 0
    covered_fraction: float = 0.0

    @property
    def detection_latency(self) -> float | None:
        if self.first_suspicion_time is None:
            return None
        return self.first_suspicion_time - self.crash_time

    @property
    def restoration_latency(self) -> float | None:
        if self.restored_time is None:
            return None
        return self.restored_time - self.crash_time

    @property
    def n_replacements(self) -> int:
        return len(self.replacements)


def run_restoration_protocol(
    field_points: np.ndarray,
    spec: SensorSpec,
    k: int,
    region: Rect,
    cell_size: float,
    sensor_positions: np.ndarray,
    failed_node_ids: np.ndarray,
    *,
    heartbeat: HeartbeatConfig | None = None,
    crash_time: float = 5.0,
    horizon: float = 200.0,
    seed: int = 0,
    max_nodes: int | None = None,
) -> RestorationProtocolReport:
    """Simulate failure detection and in-network repair; see module docs.

    Parameters
    ----------
    field_points, spec, k, region, cell_size:
        The coverage problem (as deployed).
    sensor_positions:
        ``(n, 2)`` positions of the running network (e.g. a completed
        :func:`~repro.core.grid_decor.grid_decor` deployment).
    failed_node_ids:
        Row indices into ``sensor_positions`` that crash at ``crash_time``.
    heartbeat:
        Failure-detector parameters (default: period 1, timeout 2.5).
    horizon:
        Simulation-time budget; exceeding it without restoring raises.

    Returns
    -------
    RestorationProtocolReport
    """
    field = as_field_model(field_points)
    pts = field.points
    budget = placement_budget(field.n_points, k, max_nodes)
    sensors = as_points(sensor_positions)
    failed = np.asarray(failed_node_ids, dtype=np.intp).reshape(-1)
    if failed.size and (failed.min() < 0 or failed.max() >= len(sensors)):
        raise SimulationError("failed node ids out of range")
    config = heartbeat or HeartbeatConfig()
    rng = np.random.default_rng(seed)

    partition = field.grid_partition(region, cell_size)
    ben_adj = field.same_cell_adjacency(spec.sensing_radius, region, cell_size)
    engine = BenefitEngine(
        field, spec.sensing_radius, k, benefit_adjacency=ben_adj
    )
    points_by_cell = field.points_by_cell(region, cell_size)

    sim = Simulator()
    radio = Radio(sim, spec.communication_radius)
    harness = _Harness(
        sim, radio, engine, pts, partition, points_by_cell,
        spec, k, config, rng, budget,
    )

    covered_by: dict[int, np.ndarray] = {}
    for i, pos in enumerate(sensors):
        covered_by[i] = engine.add_sensor_at_position(pos)
        harness.spawn(pos, start_delay=rng.random() * config.period)
    if not engine.is_fully_covered():
        raise SimulationError(
            "the given network does not k-cover the field to begin with"
        )

    def crash() -> None:
        if OBS.enabled:
            # node -1 is the environment: the failure event itself, causally
            # upstream of every per-node "fail" the loop below emits
            OBS.flight.set_cause(
                OBS.flight.emit("crash", -1, t=sim.now, failed=int(failed.size))
            )
        for nid in failed:
            harness.nodes[int(nid)].fail()
            engine.remove_covered(covered_by[int(nid)])

    sim.schedule_at(crash_time, crash)

    with OBS.span(
        "protocol", kind="restoration", k=k, failed=int(failed.size)
    ) as span, OBS.run(
        "restoration", k=int(k), failed=int(failed.size),
        crash_time=float(crash_time),
    ) as frun:
        # run in heartbeat-period slices until restored (or horizon)
        while True:
            target = sim.now + config.period
            if target > horizon:
                raise SimulationError(
                    f"restoration did not complete within the horizon {horizon}"
                )
            sim.run(until=target)
            if sim.now >= crash_time and engine.is_fully_covered():
                # allow one extra slice so late announcements drain
                sim.run(until=sim.now + config.period)
                break
        if OBS.enabled and harness.restored_time is not None:
            OBS.flight.emit(
                "restored", -1, t=sim.now, cause=None,
                restored_time=float(harness.restored_time),
                replacements=len(harness.placements),
            )
        span.set(replacements=len(harness.placements),
                 messages=radio.stats.total_sent())
        frun.set(replacements=len(harness.placements),
                 restored=harness.restored_time is not None)
        if OBS.enabled:
            if harness.placements:
                replaced = len(harness.placements)
                OBS.counter("decor_replacements_total").inc(replaced)
                OBS.counter("decor_messages_total", kind="place_announce").inc(replaced)
            bridge_radio_stats(radio.stats, protocol="restoration")
            publish_delta_updates(engine)
            record_protocol_health(
                heartbeats=[n for n in harness.nodes.values() if n.alive]
            )
            record_energy_health(EnergyModel(), radio.stats)
            OBS.sample("protocol", kind="restoration")

    return RestorationProtocolReport(
        crash_time=crash_time,
        first_suspicion_time=harness.first_suspicion_time,
        restored_time=harness.restored_time,
        replacements=list(harness.placements),
        messages_sent=radio.stats.total_sent(),
        covered_fraction=engine.covered_fraction(),
    )

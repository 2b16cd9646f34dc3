"""Packet-level execution of Voronoi-based DECOR (§3.1 second scheme).

The analytic :func:`~repro.core.voronoi_decor.voronoi_decor` models the
distributed run as synchronous rounds over the alive nodes.  Here the same
per-node logic executes as timer-driven protocol instances over the radio:

* every node audits its local Voronoi cell once per round, in node-id
  order (audits are scheduled at absolute times ``n * T + id * eps``, the
  protocol analogue of the analytic round-robin);
* a node finding a deficient owned point places a new sensor at its
  knowledge-limited maximum-benefit owned point and *broadcasts* a
  ``VOR_PLACE`` announcement so neighbours within ``rc`` shrink their
  cells (Figure 10's Voronoi message);
* newly placed sensors join the schedule from the next round (they audit,
  they announce, they own points).

Because scoring uses the exact same
:func:`~repro.core.voronoi_decor.local_voronoi_benefit` kernel and the
audit order equals the analytic round order, the placement sequence must
match `voronoi_decor` exactly — asserted by the integration tests, which
also tie the radio's transmission counters to the analytic MessageStats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core._common import placement_budget, publish_delta_updates
from repro.core.benefit import BenefitEngine
from repro.core.voronoi_decor import local_voronoi_benefit
from repro.errors import PlacementError
from repro.geometry.points import as_points
from repro.geometry.voronoi import VoronoiOwnership
from repro.network.spec import SensorSpec
from repro.obs import OBS, bridge_radio_stats
from repro.sim.engine import Simulator
from repro.sim.messages import Message
from repro.sim.protocol import NodeProtocol
from repro.sim.radio import Radio, RadioStats

__all__ = ["VoronoiProtocolReport", "run_voronoi_protocol"]

VOR_PLACE = "VOR_PLACE"


class _VoronoiNode(NodeProtocol):
    """One sensor auditing and repairing its local Voronoi cell."""

    def __init__(self, node_id, sim, radio, position, harness):
        super().__init__(node_id, sim, radio, position)
        self.harness = harness
        self.announcements_heard: list[int] = []
        # a node deployed during round n participates from round n + 1,
        # exactly like the analytic model's per-round site snapshot
        self._min_round = int(np.floor(sim.now / harness.round_period)) + 1

    def on_start(self) -> None:
        self._schedule_next_audit()

    def _schedule_next_audit(self) -> None:
        h = self.harness
        # absolute-time alignment: round n audits at n*T + id*eps, keeping
        # the global audit order identical to the analytic site-id order
        now = self.sim.now
        n = max(
            int(np.floor((now - self.node_id * h.stagger) / h.round_period)) + 1,
            self._min_round,
        )
        when = n * h.round_period + self.node_id * h.stagger
        while when <= now + 1e-12:
            n += 1
            when = n * h.round_period + self.node_id * h.stagger
        self.set_timer(when - now, self._audit)

    def _audit(self) -> None:
        self.harness.try_place(self)
        self._schedule_next_audit()

    def on_message(self, message: Message) -> None:
        if message.kind == VOR_PLACE:
            self.announcements_heard.append(int(message.payload))


class _Harness:
    """Shared world: field, engine, ownership, node registry."""

    def __init__(self, sim, radio, engine, pts, ownership, spec,
                 round_period, budget):
        self.sim = sim
        self.radio = radio
        self.engine = engine
        self.pts = pts
        self.ownership = ownership
        self.spec = spec
        self.round_period = round_period
        self.budget = budget
        self.nodes: list[_VoronoiNode] = []
        self.placed_points: list[int] = []
        self.stagger = round_period / 4096.0

    def spawn(self, position: np.ndarray) -> _VoronoiNode:
        node = _VoronoiNode(len(self.nodes), self.sim, self.radio,
                            position, self)
        self.nodes.append(node)
        node.start()  # first audit lands in the next round slot
        return node

    def try_place(self, node: _VoronoiNode) -> bool:
        site = node.node_id
        owned = self.ownership.owned_points(site)
        if not (self.engine.counts[owned] < self.engine.k).any():
            return False
        if len(self.placed_points) >= self.budget:
            raise PlacementError(
                f"Voronoi protocol exceeded its budget of {self.budget}"
            )
        benefits = local_voronoi_benefit(
            self.engine, self.ownership, self.spec.communication_radius,
            site, node.position, owned,
        )
        best = int(benefits.argmax())
        if benefits[best] <= 0.0:  # pragma: no cover - deficient owned point
            raise PlacementError(f"site {site} deficient but zero benefit")
        idx = int(owned[best])
        if OBS.enabled:
            OBS.flight.emit(
                "placement", site, t=self.sim.now, point=idx,
                benefit=float(benefits[best]),
            )
        self.engine.place_at(idx)
        pos = self.pts[idx]
        self.placed_points.append(idx)
        _, stolen = self.ownership.add_site(pos)
        # the new sensor is registered on the radio before the announcement
        # so the notification reaches it too, matching the analytic count of
        # "alive nodes within rc of the new position"
        new_node = self.spawn(pos)
        if OBS.enabled:
            # the placing site cedes part of its Voronoi cell to the new one
            OBS.flight.emit(
                "handoff", new_node.node_id, t=self.sim.now, from_site=site,
                point=idx,
                points_owned=int(stolen.size),
            )
        node.broadcast(VOR_PLACE, payload=idx)
        return True


@dataclass
class VoronoiProtocolReport:
    """Outcome of a packet-level Voronoi DECOR run."""

    placed_point_indices: list[int]
    placed_positions: np.ndarray
    radio_stats: RadioStats
    notify_messages: int
    sim_time: float
    covered_fraction: float


def run_voronoi_protocol(
    field_points: np.ndarray,
    spec: SensorSpec,
    k: int,
    *,
    initial_positions: np.ndarray | None = None,
    max_nodes: int | None = None,
    round_period: float = 1.0,
    radio_delay: float = 1e-6,
    max_sim_time: float = 1e6,
) -> VoronoiProtocolReport:
    """Run Voronoi DECOR as an event-driven protocol; see module docstring.

    Notes
    -----
    ``radio_delay`` defaults to a near-zero value so announcements land
    within the same audit slot, mirroring the analytic model's assumption
    that cell updates propagate between rounds.
    """
    pts = as_points(field_points)
    budget = placement_budget(pts.shape[0], k, max_nodes)
    engine = BenefitEngine(pts, spec.sensing_radius, k)
    sim = Simulator()
    radio = Radio(sim, spec.communication_radius, delay=radio_delay)

    seed_positions: list[np.ndarray] = []
    if initial_positions is not None and len(as_points(initial_positions)):
        for pos in as_points(initial_positions):
            engine.add_sensor_at_position(pos)
            seed_positions.append(pos)
    else:
        seed_idx = engine.argmax()
        engine.place_at(seed_idx)
        seed_positions.append(pts[seed_idx])

    ownership = VoronoiOwnership(pts, np.vstack(seed_positions))
    harness = _Harness(
        sim, radio, engine, pts, ownership, spec, round_period, budget
    )
    for pos in seed_positions:
        harness.spawn(pos)

    with OBS.span("protocol", kind="voronoi", k=k) as span, \
            OBS.run("voronoi", k=int(k)) as frun:
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
                    "Voronoi protocol exceeded the simulation horizon"
                )
            sim.run(until=target)
            rounds += 1
            if (
                engine.total_deficiency() > 0
                and placed_before == len(harness.placed_points)
                and sim.now > 2 * round_period
            ):
                raise PlacementError("Voronoi protocol stalled")
        notify = radio.stats.total_sent()
        span.set(placed=len(harness.placed_points), rounds=rounds,
                 notify_messages=notify)
        frun.set(placed=len(harness.placed_points), rounds=rounds)
        if OBS.enabled:
            OBS.counter("decor_messages_total", kind="vor_place").inc(notify)
            bridge_radio_stats(radio.stats, protocol="voronoi")
            publish_delta_updates(engine)

    placed = harness.placed_points
    return VoronoiProtocolReport(
        placed_point_indices=list(placed),
        placed_positions=pts[np.asarray(placed, dtype=np.intp)].copy()
        if placed
        else np.empty((0, 2)),
        radio_stats=radio.stats,
        notify_messages=radio.stats.total_sent(),
        sim_time=sim.now,
        covered_fraction=engine.covered_fraction(),
    )

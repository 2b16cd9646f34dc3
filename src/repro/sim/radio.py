"""Unit-disc radio with delivery accounting.

Models the paper's communication assumptions (§2): a transmission from node
``i`` reaches exactly the alive nodes within the communication radius ``rc``.
Supports broadcast and unicast, a fixed propagation delay, optional i.i.d.
message loss (the paper notes sensors are "susceptible to packet loss"), and
per-node transmit/receive counters — the raw data behind Figure 10 and the
energy-dissipation argument for leader rotation.

Node positions are registered once; topology changes (placement, failure)
go through :meth:`Radio.add_node` / :meth:`Radio.kill_node`, keeping the
internal neighbour cache consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError
from repro.geometry.points import as_point, squared_distances_to
from repro.obs import OBS
from repro.sim.engine import Simulator
from repro.sim.messages import Message

__all__ = ["Radio", "RadioStats"]


@dataclass
class RadioStats:
    """Cumulative per-radio counters.

    ``sent``/``received``/``dropped`` are all per-node dicts; ``dropped``
    is keyed by the *intended receiver* of the lost message (loss is a
    per-(message, receiver) event), so energy/reliability analyses can
    attribute losses to the node that missed them.
    """

    sent: dict[int, int] = field(default_factory=dict)
    received: dict[int, int] = field(default_factory=dict)
    dropped: dict[int, int] = field(default_factory=dict)

    def total_sent(self) -> int:
        return sum(self.sent.values())

    def total_received(self) -> int:
        return sum(self.received.values())

    def total_dropped(self) -> int:
        return sum(self.dropped.values())


class Radio:
    """Broadcast medium over a dynamic set of positioned nodes.

    Parameters
    ----------
    sim:
        The event kernel delivering receptions.
    rc:
        Communication radius.
    delay:
        Propagation + processing delay applied to every delivery.
    loss_probability:
        Independent drop probability per (message, receiver) pair.
    rng:
        Required when ``loss_probability > 0``.
    """

    def __init__(
        self,
        sim: Simulator,
        rc: float,
        *,
        delay: float = 0.001,
        loss_probability: float = 0.0,
        rng: np.random.Generator | None = None,
    ):
        if rc <= 0:
            raise SimulationError(f"communication radius must be positive, got {rc}")
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        if not (0.0 <= loss_probability < 1.0):
            raise SimulationError(
                f"loss probability must be in [0, 1), got {loss_probability}"
            )
        if loss_probability > 0.0 and rng is None:
            raise SimulationError("lossy radio requires an rng")
        self._sim = sim
        self._rc = float(rc)
        self._delay = float(delay)
        self._loss = float(loss_probability)
        self._rng = rng
        self._positions: dict[int, np.ndarray] = {}
        self._alive: dict[int, bool] = {}
        self._handlers: dict[int, object] = {}
        self.stats = RadioStats()

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    @property
    def rc(self) -> float:
        return self._rc

    def add_node(self, node_id: int, position: np.ndarray, handler) -> None:
        """Register a node.  ``handler.on_message(msg)`` receives deliveries."""
        if node_id in self._positions:
            raise SimulationError(f"node {node_id} already registered")
        if not hasattr(handler, "on_message"):
            raise SimulationError("handler must define on_message(message)")
        self._positions[node_id] = as_point(position)
        self._alive[node_id] = True
        self._handlers[node_id] = handler
        self.stats.sent.setdefault(node_id, 0)
        self.stats.received.setdefault(node_id, 0)
        self.stats.dropped.setdefault(node_id, 0)

    def kill_node(self, node_id: int) -> None:
        """Silence a node: it neither sends nor receives from now on."""
        self._check(node_id)
        self._alive[node_id] = False

    def is_alive(self, node_id: int) -> bool:
        self._check(node_id)
        return self._alive[node_id]

    def position_of(self, node_id: int) -> np.ndarray:
        self._check(node_id)
        return self._positions[node_id].copy()

    def node_ids(self) -> list[int]:
        return sorted(self._positions)

    def _check(self, node_id: int) -> None:
        if node_id not in self._positions:
            raise SimulationError(f"unknown node {node_id}")

    def neighbors_of(self, node_id: int) -> list[int]:
        """Alive nodes within ``rc`` of ``node_id`` (excluding itself)."""
        self._check(node_id)
        src = self._positions[node_id]
        out = []
        ids = [n for n in self._positions if self._alive[n] and n != node_id]
        if not ids:
            return out
        pos = np.asarray([self._positions[n] for n in ids])
        d2 = squared_distances_to(pos, src)
        rc2 = self._rc * self._rc + 1e-12
        return [n for n, dd in zip(ids, d2) if dd <= rc2]

    # ------------------------------------------------------------------
    # traffic
    # ------------------------------------------------------------------
    def broadcast(self, sender: int, kind: str, payload=None) -> int:
        """Transmit to all alive neighbours; returns the receiver count."""
        self._check(sender)
        if not self._alive[sender]:
            raise SimulationError(f"dead node {sender} cannot transmit")
        receivers = self.neighbors_of(sender)
        msg = Message(sender, kind, payload, self._sim.now)
        self.stats.sent[sender] += 1
        send_id = None
        if OBS.enabled:
            send_id = OBS.flight.emit_send(
                sender, t=self._sim.now, msg=kind, mode="broadcast",
                receivers=len(receivers),
            )
        delivered = 0
        for r in receivers:
            if self._loss and self._rng is not None and self._rng.random() < self._loss:
                self.stats.dropped[r] = self.stats.dropped.get(r, 0) + 1
                if OBS.enabled:
                    OBS.flight.emit("drop", r, t=self._sim.now, cause=send_id, msg=kind)
                continue
            self._deliver(r, msg, send_id)
            delivered += 1
        return delivered

    def unicast(self, sender: int, receiver: int, kind: str, payload=None) -> bool:
        """Transmit to one in-range neighbour; returns delivery success."""
        self._check(sender)
        self._check(receiver)
        if not self._alive[sender]:
            raise SimulationError(f"dead node {sender} cannot transmit")
        d2 = float(
            np.sum((self._positions[sender] - self._positions[receiver]) ** 2)
        )
        if d2 > self._rc * self._rc + 1e-12:
            raise SimulationError(
                f"node {receiver} is out of range of node {sender}"
            )
        self.stats.sent[sender] += 1
        send_id = None
        if OBS.enabled:
            send_id = OBS.flight.emit_send(
                sender, t=self._sim.now, msg=kind, mode="unicast", to=receiver
            )
        msg = Message(sender, kind, payload, self._sim.now)
        if not self._alive[receiver]:
            return False
        if self._loss and self._rng is not None and self._rng.random() < self._loss:
            self.stats.dropped[receiver] = self.stats.dropped.get(receiver, 0) + 1
            if OBS.enabled:
                OBS.flight.emit("drop", receiver, t=self._sim.now, cause=send_id, msg=kind)
            return False
        self._deliver(receiver, msg, send_id)
        return True

    def _deliver(self, receiver: int, msg: Message, send_id: int | None = None) -> None:
        def deliver() -> None:
            # the receiver may have died between send and delivery
            if self._alive.get(receiver, False):
                self.stats.received[receiver] += 1
                if OBS.enabled:
                    OBS.flight.set_cause(
                        OBS.flight.emit_deliver(
                            receiver, send_id, t=self._sim.now, msg=msg.kind,
                            sender=msg.sender,
                        )
                    )
                self._handlers[receiver].on_message(msg)

        self._sim.schedule(self._delay, deliver)

"""Base class for per-node protocol state machines."""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.obs import OBS
from repro.sim.engine import Event, Simulator
from repro.sim.messages import Message
from repro.sim.radio import Radio

__all__ = ["NodeProtocol"]


class NodeProtocol:
    """A protocol instance bound to one node.

    Subclasses override :meth:`on_start` and :meth:`on_message`; they send
    through :meth:`broadcast` / :meth:`unicast` and arm timers with
    :meth:`set_timer`.  The harness registers instances with the radio and
    calls :meth:`start` once the topology is in place.

    Parameters
    ----------
    node_id:
        Stable integer id (shared with the radio).
    sim, radio:
        The simulation kernel and medium.
    position:
        The node's fixed position.
    """

    def __init__(
        self, node_id: int, sim: Simulator, radio: Radio, position: np.ndarray
    ):
        self.node_id = int(node_id)
        self.sim = sim
        self.radio = radio
        self.position = np.asarray(position, dtype=float).reshape(2)
        self._timers: list[Event] = []
        self._started = False
        radio.add_node(self.node_id, self.position, self)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, delay: float = 0.0) -> None:
        """Schedule :meth:`on_start` (optionally staggered by ``delay``)."""
        if self._started:
            raise SimulationError(f"node {self.node_id} already started")
        self._started = True
        self.sim.schedule(delay, self._boot)

    def _boot(self) -> None:
        if OBS.enabled:
            OBS.flight.set_cause(OBS.flight.emit("start", self.node_id, t=self.sim.now))
        self.on_start()

    def fail(self) -> None:
        """Crash-stop the node: cancel timers, silence the radio."""
        for t in self._timers:
            t.cancel()
        self._timers.clear()
        self.radio.kill_node(self.node_id)
        if OBS.enabled:
            OBS.flight.emit("fail", self.node_id, t=self.sim.now)

    @property
    def alive(self) -> bool:
        return self.radio.is_alive(self.node_id)

    # ------------------------------------------------------------------
    # services
    # ------------------------------------------------------------------
    def set_timer(self, delay: float, callback) -> Event:
        """Arm a cancellable timer; dead nodes' timers never fire."""
        timer_id = None
        if OBS.enabled:
            timer_id = OBS.flight.emit(
                "timer_set", self.node_id, t=self.sim.now, delay=float(delay)
            )

        def guarded() -> None:
            if self.alive:
                if OBS.enabled and timer_id is not None:
                    OBS.flight.set_cause(
                        OBS.flight.emit(
                            "timer_fire", self.node_id, t=self.sim.now,
                            cause=timer_id,
                        )
                    )
                callback()

        ev = self.sim.schedule(delay, guarded)
        self._timers.append(ev)
        if len(self._timers) > 64:  # drop references to spent timers
            self._timers = [t for t in self._timers if not t.cancelled and t.time >= self.sim.now]
        return ev

    def broadcast(self, kind: str, payload=None) -> int:
        return self.radio.broadcast(self.node_id, kind, payload)

    def unicast(self, receiver: int, kind: str, payload=None) -> bool:
        return self.radio.unicast(self.node_id, receiver, kind, payload)

    # ------------------------------------------------------------------
    # overridables
    # ------------------------------------------------------------------
    def on_start(self) -> None:  # pragma: no cover - default no-op
        """Called once when the node boots."""

    def on_message(self, message: Message) -> None:  # pragma: no cover
        """Called for every delivered message."""
        raise NotImplementedError

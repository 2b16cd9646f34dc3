"""Heartbeat-based failure detection (paper §3.2).

"Neighboring nodes periodically exchange meta-information about their
positions, with a period Tc.  Once a node stops receiving such messages from
one of its neighbors, this indicates that the neighbor has failed.  The nodes
do not need to be synchronized to ensure this functionality."

:class:`HeartbeatNode` implements exactly that: every ``Tc`` it broadcasts a
position beacon; a neighbour is *suspected* once no beacon has arrived for
``timeout_factor * Tc``.  Suspicions are exposed through
:meth:`HeartbeatNode.suspected` and an optional callback, which the
restoration protocol uses as its failure trigger.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import SimulationError
from repro.obs import OBS
from repro.sim.messages import Message
from repro.sim.protocol import NodeProtocol

__all__ = ["HeartbeatConfig", "HeartbeatNode"]

HEARTBEAT = "HEARTBEAT"


@dataclass(frozen=True)
class HeartbeatConfig:
    """Failure-detector parameters.

    Attributes
    ----------
    period:
        The beacon period ``Tc``.
    timeout_factor:
        A neighbour is suspected after ``timeout_factor * period`` without a
        beacon.  Must be > 1 (a factor of at least ~2 is needed for a lossy
        radio; the completeness/accuracy trade-off is exercised in the
        tests).
    jitter:
        Uniform per-beacon jitter fraction in ``[0, jitter)`` of the period,
        modelling unsynchronised clocks.
    """

    period: float = 1.0
    timeout_factor: float = 2.5
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise SimulationError(f"period must be positive, got {self.period}")
        if self.timeout_factor <= 1.0:
            raise SimulationError(
                f"timeout factor must exceed 1, got {self.timeout_factor}"
            )
        if not (0.0 <= self.jitter < 1.0):
            raise SimulationError(f"jitter must be in [0, 1), got {self.jitter}")

    @property
    def timeout(self) -> float:
        return self.timeout_factor * self.period


class HeartbeatNode(NodeProtocol):
    """A node running the §3.2 heartbeat failure detector.

    Parameters
    ----------
    config:
        Detector parameters.
    rng:
        Source of beacon jitter.
    on_suspect:
        Optional callback ``(suspecting_node_id, suspected_node_id)`` fired
        at most once per suspected neighbour.
    """

    def __init__(
        self,
        node_id: int,
        sim,
        radio,
        position: np.ndarray,
        config: HeartbeatConfig,
        rng: np.random.Generator,
        on_suspect: Callable[[int, int], None] | None = None,
    ):
        super().__init__(node_id, sim, radio, position)
        self.config = config
        self.rng = rng
        self.on_suspect = on_suspect
        self.last_seen: dict[int, float] = {}
        self.known_positions: dict[int, np.ndarray] = {}
        self._suspected: set[int] = set()

    # ------------------------------------------------------------------
    def on_start(self) -> None:
        self._beat()
        self.set_timer(self.config.timeout, self._check)

    def _beat(self) -> None:
        self.broadcast(HEARTBEAT, payload=(float(self.position[0]), float(self.position[1])))
        delay = self.config.period * (1.0 + self.rng.random() * self.config.jitter)
        self.set_timer(delay, self._beat)

    def _check(self) -> None:
        now = self.sim.now
        for nid, seen in self.last_seen.items():
            if nid in self._suspected:
                continue
            if now - seen > self.config.timeout:
                self._suspected.add(nid)
                if OBS.enabled:
                    OBS.flight.emit(
                        "suspect", self.node_id, t=now, target=nid,
                        silent_for=now - seen,
                    )
                if self.on_suspect is not None:
                    self.on_suspect(self.node_id, nid)
        self.set_timer(self.config.period, self._check)

    def on_message(self, message: Message) -> None:
        if message.kind != HEARTBEAT:
            return
        nid = message.sender
        self.last_seen[nid] = self.sim.now
        self.known_positions[nid] = np.asarray(message.payload, dtype=float)
        if nid in self._suspected:
            # a live beacon rescinds the suspicion (detector accuracy)
            self._suspected.discard(nid)
            if OBS.enabled:
                OBS.flight.emit("rescind", self.node_id, t=self.sim.now, target=nid)

    # ------------------------------------------------------------------
    def suspected(self) -> set[int]:
        """Neighbours currently suspected to have failed."""
        return set(self._suspected)

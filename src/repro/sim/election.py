"""Randomised leader election with rotation inside grid cells (paper §3.1).

The paper assumes a cell leader is chosen by "a random selection of leaders
and a rotation mechanism ... so that the energy dissipation experienced by
the leader ... gets spread across all nodes in the cell" (refs [6, 11, 12],
LEACH-style).  :class:`CellElectionNode` realises that behaviour:

* every election round, each alive node in the cell draws a random priority
  seeded by ``(round, node_id)`` and broadcasts it;
* the node with the highest priority (ties to the lower id) considers itself
  leader for the round; everyone who heard the same set agrees;
* rounds repeat with period ``rotation_period``, rotating leadership.

The election is per-cell: nodes only consider announcements from nodes of
their own cell id.  Within a cell all members are assumed mutually reachable
(the paper's same assumption), so one broadcast round suffices for
agreement; the tests verify agreement, liveness after leader failure, and
that rotation spreads leadership across members.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.obs import OBS
from repro.sim.messages import Message
from repro.sim.protocol import NodeProtocol

__all__ = ["ElectionConfig", "CellElectionNode"]

ANNOUNCE = "ELECT_ANNOUNCE"


@dataclass(frozen=True)
class ElectionConfig:
    """Election timing parameters.

    Attributes
    ----------
    rotation_period:
        Time between election rounds (leadership rotates each round).
    settle_delay:
        Delay after the announcement wave before a node decides the round's
        winner; must exceed the radio delay.
    """

    rotation_period: float = 10.0
    settle_delay: float = 0.05

    def __post_init__(self) -> None:
        if self.rotation_period <= 0:
            raise SimulationError("rotation period must be positive")
        if self.settle_delay <= 0:
            raise SimulationError("settle delay must be positive")


def _priority(round_no: int, node_id: int) -> float:
    """Deterministic pseudo-random priority, identical at every observer."""
    rng = np.random.default_rng((round_no + 1) * 1_000_003 + node_id)
    return float(rng.random())


class CellElectionNode(NodeProtocol):
    """A node participating in per-cell rotating leader election.

    Parameters
    ----------
    cell_id:
        The grid cell this node belongs to; only same-cell announcements are
        considered.
    config:
        Timing parameters.
    """

    def __init__(self, node_id, sim, radio, position, cell_id: int,
                 config: ElectionConfig | None = None):
        super().__init__(node_id, sim, radio, position)
        self.cell_id = int(cell_id)
        self.config = ElectionConfig() if config is None else config
        self.round_no = 0
        self.current_leader: int | None = None
        self.leadership_history: list[int] = []
        # announcements are buffered per round: with unsynchronised starts a
        # peer's round-r announcement may arrive before this node enters
        # round r, and must not be lost
        self._heard_by_round: dict[int, dict[int, float]] = {}

    # ------------------------------------------------------------------
    def on_start(self) -> None:
        self._run_round()

    def _heard(self, round_no: int) -> dict[int, float]:
        return self._heard_by_round.setdefault(round_no, {})

    def _run_round(self) -> None:
        self.round_no += 1
        heard = self._heard(self.round_no)
        heard[self.node_id] = _priority(self.round_no, self.node_id)
        self.broadcast(
            ANNOUNCE,
            payload=(self.cell_id, self.round_no, heard[self.node_id]),
        )
        self.set_timer(
            self.config.settle_delay, lambda r=self.round_no: self._decide(r)
        )
        self.set_timer(self.config.rotation_period, self._run_round)

    def _decide(self, round_no: int) -> None:
        heard = self._heard(round_no)
        # highest priority wins; ties toward lower node id
        winner = min(heard, key=lambda n: (-heard[n], n))
        changed = winner != self.current_leader
        self.current_leader = winner
        self.leadership_history.append(winner)
        if OBS.enabled and winner == self.node_id:
            # counted once per round: only the winner records its own win;
            # ``changed`` marks actual leadership transitions for churn
            # analysis
            OBS.counter("leader_elections_total", cell=self.cell_id).inc()
            OBS.flight.emit(
                "elected", self.node_id, t=self.sim.now,
                cell=self.cell_id, round=round_no, changed=changed,
                voters=len(heard),
            )
        # prune stale rounds so the buffer stays bounded
        for r in [r for r in self._heard_by_round if r < round_no]:
            del self._heard_by_round[r]

    def on_message(self, message: Message) -> None:
        if message.kind != ANNOUNCE:
            return
        cell_id, round_no, prio = message.payload
        if cell_id != self.cell_id or round_no < self.round_no:
            return
        self._heard(round_no)[message.sender] = float(prio)

    # ------------------------------------------------------------------
    @property
    def is_leader(self) -> bool:
        return self.current_leader == self.node_id

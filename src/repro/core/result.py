"""Result containers shared by all placement algorithms.

A :class:`DeploymentResult` bundles the final
:class:`~repro.network.deployment.Deployment`, the matching
:class:`~repro.network.coverage.CoverageState`, a per-placement
:class:`PlacementTrace` (the data behind Figure 7's coverage-vs-nodes
curves) and, for the distributed variants, :class:`MessageStats`
(Figure 10).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ExperimentError
from repro.network.coverage import CoverageState
from repro.network.deployment import Deployment

__all__ = ["PlacementTrace", "MessageStats", "DeploymentResult"]


class PlacementTrace:
    """Append-only per-placement log, kept as NumPy columns.

    Records, for every node the algorithm adds: its position, the benefit it
    was chosen with, the k-coverage fraction right after the placement, the
    cell/owner that proposed it (or -1) and the messages the placement cost.
    The five columns live in capacity-doubling arrays (amortised O(1)
    appends, as in :class:`~repro.network.deployment.Deployment`), so a
    pickled trace is five buffers holding the filled rows, not five lists
    of Python objects.  The properties return copies of the filled rows.
    """

    _INITIAL_CAPACITY = 64
    _COLUMNS = ("_positions", "_benefits", "_covered_fraction", "_proposer", "_messages")

    def __init__(self) -> None:
        cap = self._cap = self._INITIAL_CAPACITY
        self._n = 0
        self._positions = np.empty((cap, 2), dtype=np.float64)
        self._benefits = np.empty(cap, dtype=np.float64)
        self._covered_fraction = np.empty(cap, dtype=np.float64)
        self._proposer = np.empty(cap, dtype=np.intp)
        self._messages = np.empty(cap, dtype=np.intp)

    def __getstate__(self) -> dict[str, object]:
        state = dict(self.__dict__, _cap=self._n)
        for name in self._COLUMNS:
            state[name] = state[name][: self._n]
        return state

    def _grow(self) -> None:
        self._cap = max(2 * self._cap, self._INITIAL_CAPACITY)
        for name in self._COLUMNS:
            old = getattr(self, name)
            new = np.empty((self._cap,) + old.shape[1:], dtype=old.dtype)
            new[: self._n] = old[: self._n]
            setattr(self, name, new)

    def record(
        self,
        position: np.ndarray,
        benefit: float,
        covered_fraction: float,
        proposer: int = -1,
        messages: int = 0,
    ) -> None:
        n = self._n
        if n == self._cap:
            self._grow()
        self._positions[n] = position
        self._benefits[n] = benefit
        self._covered_fraction[n] = covered_fraction
        self._proposer[n] = proposer
        self._messages[n] = messages
        self._n = n + 1

    def __len__(self) -> int:
        return self._n

    @property
    def positions(self) -> np.ndarray:
        return self._positions[: self._n].copy()

    @property
    def benefits(self) -> np.ndarray:
        return self._benefits[: self._n].copy()

    @property
    def covered_fraction(self) -> np.ndarray:
        return self._covered_fraction[: self._n].copy()

    @property
    def proposer(self) -> np.ndarray:
        return self._proposer[: self._n].copy()

    @property
    def messages(self) -> np.ndarray:
        return self._messages[: self._n].copy()


@dataclass(frozen=True)
class MessageStats:
    """Communication accounting for a distributed run (Figure 10).

    Attributes
    ----------
    per_cell:
        Messages attributed to each cell (grid: the cell's leader; Voronoi:
        the placing node, one cell per node).
    nodes_per_cell:
        Final number of nodes residing in each cell (for the leader-rotation
        amortisation the paper describes: with rotation, a cell's messages
        are shared by all its nodes).
    """

    per_cell: np.ndarray
    nodes_per_cell: np.ndarray

    @property
    def total(self) -> int:
        return int(self.per_cell.sum())

    @property
    def mean_per_cell(self) -> float:
        """Average messages per cell — the y-axis of Figure 10."""
        active = self.per_cell[self.nodes_per_cell > 0]
        if active.size == 0:
            return 0.0
        return float(active.mean())

    @property
    def mean_per_node_with_rotation(self) -> float:
        """Average messages per node under leader rotation (§4.1)."""
        mask = self.nodes_per_cell > 0
        if not np.any(mask):
            return 0.0
        per_node = self.per_cell[mask] / self.nodes_per_cell[mask]
        # weight by node count: total messages / total nodes
        return float(self.per_cell[mask].sum() / self.nodes_per_cell[mask].sum())


@dataclass
class DeploymentResult:
    """Outcome of a placement algorithm run.

    Attributes
    ----------
    method:
        Algorithm name (``"centralized"``, ``"grid"``, ``"voronoi"``,
        ``"random"``).
    k:
        Coverage requirement the run targeted.
    deployment:
        Final deployment; initial nodes keep their ids, added nodes follow.
    coverage:
        Coverage state keyed by deployment node ids, consistent with
        ``deployment`` at return time.
    added_ids:
        Ids of the nodes the algorithm added (excludes initial nodes).
    trace:
        Per-placement log aligned with ``added_ids``.
    messages:
        Message accounting, or ``None`` for centralized/random.
    params:
        Method-specific parameters for provenance (cell size, rc, ...).
    """

    method: str
    k: int
    deployment: Deployment
    coverage: CoverageState
    added_ids: np.ndarray
    trace: PlacementTrace
    messages: MessageStats | None = None
    params: dict = field(default_factory=dict)

    @property
    def added_count(self) -> int:
        return int(self.added_ids.size)

    @property
    def total_alive(self) -> int:
        return self.deployment.n_alive

    def final_covered_fraction(self, k: int | None = None) -> float:
        return self.coverage.covered_fraction(self.k if k is None else k)

    def coverage_trajectory(self) -> tuple[np.ndarray, np.ndarray]:
        """``(nodes_deployed, k_covered_fraction)`` curves for Figure 7.

        ``nodes_deployed`` counts total alive nodes after each placement
        (initial nodes included as the starting offset).
        """
        if len(self.trace) != self.added_count:
            raise ExperimentError(
                "trace length does not match the number of added nodes"
            )
        n0 = self.total_alive - self.added_count
        xs = n0 + 1 + np.arange(self.added_count)
        return xs.astype(np.intp), self.trace.covered_fraction

    def summary(self) -> dict:
        """Flat scalar summary for tables/CSV."""
        out = {
            "method": self.method,
            "k": self.k,
            "nodes_added": self.added_count,
            "nodes_total": self.total_alive,
            "covered_fraction": self.final_covered_fraction(),
        }
        if self.messages is not None:
            out["messages_total"] = self.messages.total
            out["messages_per_cell"] = self.messages.mean_per_cell
            out["messages_per_node"] = self.messages.mean_per_node_with_rotation
        out.update({f"param_{k}": v for k, v in self.params.items()})
        return out

"""Result containers shared by all placement algorithms.

A :class:`DeploymentResult` bundles the final
:class:`~repro.network.deployment.Deployment`, the matching
:class:`~repro.network.coverage.CoverageState`, a per-placement
:class:`PlacementTrace` (the data behind Figure 7's coverage-vs-nodes
curves) and, for the distributed variants, :class:`MessageStats`
(Figure 10).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ExperimentError
from repro.network.coverage import CoverageState
from repro.network.deployment import Deployment

__all__ = ["PlacementTrace", "MessageStats", "DeploymentResult"]


class PlacementTrace:
    """Per-placement log, kept as five NumPy columns.

    Row ``j`` describes the ``j``-th node the algorithm added: its
    position, the benefit it was chosen with, the k-coverage fraction right
    after the placement, the cell/owner that proposed it (-1 for none) and
    the messages the placement cost.  A placement loop collects the columns
    as plain values and builds the trace once, after the loop; the columns
    are exactly sized, so a pickled trace is five buffers.  The properties
    return copies.
    """

    def __init__(
        self,
        positions: Sequence[Sequence[float]] | np.ndarray = (),
        benefits: Sequence[float] | np.ndarray = (),
        covered_fraction: Sequence[float] | np.ndarray = (),
        proposer: Sequence[int] | np.ndarray | None = None,
        messages: Sequence[int] | np.ndarray | None = None,
    ) -> None:
        self._positions = np.array(positions, dtype=np.float64).reshape(-1, 2)
        n = len(self._positions)
        self._benefits = np.array(benefits, dtype=np.float64)
        self._covered_fraction = np.array(covered_fraction, dtype=np.float64)
        self._proposer = np.array(
            np.full(n, -1) if proposer is None else proposer, dtype=np.intp
        )
        self._messages = np.array(
            np.zeros(n) if messages is None else messages, dtype=np.intp
        )
        columns = (self._benefits, self._covered_fraction, self._proposer, self._messages)
        if any(column.shape != (n,) for column in columns):
            raise ExperimentError(
                f"trace columns must each hold {n} rows, got "
                f"{[column.shape for column in columns]}"
            )

    def __len__(self) -> int:
        return len(self._positions)

    @property
    def positions(self) -> np.ndarray:
        return self._positions.copy()

    @property
    def benefits(self) -> np.ndarray:
        return self._benefits.copy()

    @property
    def covered_fraction(self) -> np.ndarray:
        return self._covered_fraction.copy()

    @property
    def proposer(self) -> np.ndarray:
        return self._proposer.copy()

    @property
    def messages(self) -> np.ndarray:
        return self._messages.copy()


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

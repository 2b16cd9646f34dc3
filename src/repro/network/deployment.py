"""A mutable sensor deployment: positions plus an alive mask.

Placement loops no longer append one node at a time: a loop collects the
field points it chose and adds them after the loop as one
:meth:`Deployment.add_many` block, validated once.  Single :meth:`add`
calls remain where an id is needed at once (the Voronoi bootstrap seed,
the availability simulator's replacements).  Positions live in a
capacity-doubling buffer, so growth across repairs stays amortised O(1).
A pickle (every pooled result carries its deployment) holds only the
filled rows.  Node ids are stable for the lifetime of the deployment;
failures flip the alive mask rather than compacting the arrays.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CoverageError, GeometryError
from repro.field.csr import sorted_unique
from repro.geometry.points import as_point, as_points

__all__ = ["Deployment"]


class Deployment:
    """A growing set of sensor positions with an alive/failed mask.

    Parameters
    ----------
    positions:
        Optional initial ``(n, 2)`` node positions (all alive).

    Examples
    --------
    >>> d = Deployment([[1.0, 2.0]])
    >>> nid = d.add([3.0, 4.0])
    >>> d.n_alive
    2
    >>> d.fail([nid])
    >>> d.n_alive
    1
    """

    _INITIAL_CAPACITY = 64

    def __init__(self, positions: np.ndarray | None = None):
        if positions is None or len(np.atleast_2d(positions)) == 0:
            cap = self._INITIAL_CAPACITY
            self._pos = np.empty((cap, 2), dtype=np.float64)
            self._alive = np.zeros(cap, dtype=bool)
            self._n = 0
        else:
            init = as_points(positions)
            cap = max(self._INITIAL_CAPACITY, 2 * len(init))
            self._pos = np.empty((cap, 2), dtype=np.float64)
            self._alive = np.zeros(cap, dtype=bool)
            self._n = len(init)
            self._pos[: self._n] = init
            self._alive[: self._n] = True

    def __getstate__(self) -> dict[str, object]:
        n = self._n
        return dict(self.__dict__, _pos=self._pos[:n], _alive=self._alive[:n])

    # ------------------------------------------------------------------
    # sizes
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Total nodes ever added (alive + failed)."""
        return self._n

    @property
    def n_total(self) -> int:
        return self._n

    @property
    def n_alive(self) -> int:
        return int(self._alive[: self._n].sum())

    @property
    def n_failed(self) -> int:
        return self._n - self.n_alive

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def positions(self) -> np.ndarray:
        """Positions of all nodes ever added, ``(n_total, 2)`` (read-only view)."""
        view = self._pos[: self._n].view()
        view.flags.writeable = False
        return view

    @property
    def alive_mask(self) -> np.ndarray:
        """Alive flags, ``(n_total,)`` (read-only view)."""
        view = self._alive[: self._n].view()
        view.flags.writeable = False
        return view

    def alive_ids(self) -> np.ndarray:
        """Ids of alive nodes."""
        return np.nonzero(self._alive[: self._n])[0]

    def alive_positions(self) -> np.ndarray:
        """Positions of alive nodes (copy), ``(n_alive, 2)``."""
        return self._pos[: self._n][self._alive[: self._n]].copy()

    def position_of(self, node_id: int) -> np.ndarray:
        self._check_id(node_id)
        return self._pos[node_id].copy()

    def is_alive(self, node_id: int) -> bool:
        self._check_id(node_id)
        return bool(self._alive[node_id])

    def _check_id(self, node_id: int) -> None:
        if not (0 <= node_id < self._n):
            raise GeometryError(f"unknown node id {node_id}")

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def _grow(self, needed: int) -> None:
        if self._n + needed <= self._pos.shape[0]:
            return
        # an unpickled buffer holds only the filled rows, maybe none
        cap = max(self._pos.shape[0], self._INITIAL_CAPACITY)
        while cap < self._n + needed:
            cap *= 2
        new_pos = np.empty((cap, 2), dtype=np.float64)
        new_alive = np.zeros(cap, dtype=bool)
        new_pos[: self._n] = self._pos[: self._n]
        new_alive[: self._n] = self._alive[: self._n]
        self._pos, self._alive = new_pos, new_alive

    def add(self, position: np.ndarray) -> int:
        """Append one alive node; returns its (stable) id."""
        pos = as_point(position)
        self._grow(1)
        nid = self._n
        self._pos[nid] = pos
        self._alive[nid] = True
        self._n += 1
        return nid

    def add_many(self, positions: np.ndarray) -> np.ndarray:
        """Append several alive nodes; returns their ids."""
        pts = as_points(positions)
        m = len(pts)
        self._grow(m)
        ids = np.arange(self._n, self._n + m, dtype=np.intp)
        self._pos[self._n : self._n + m] = pts
        self._alive[self._n : self._n + m] = True
        self._n += m
        return ids

    def fail(self, node_ids: np.ndarray) -> None:
        """Mark nodes as failed.  Failing an already-failed node, or naming
        one twice, raises before any node is marked."""
        ids = np.asarray(node_ids, dtype=np.intp).reshape(-1)
        for nid in ids:
            self._check_id(int(nid))
        if sorted_unique(ids).size != ids.size:
            raise CoverageError("failing the same node more than once")
        if not np.all(self._alive[ids]):
            raise CoverageError("failing a node that is already failed")
        self._alive[ids] = False

    def revive(self, node_ids: np.ndarray) -> None:
        """Bring failed nodes back (used by sleep scheduling / tests)."""
        ids = np.asarray(node_ids, dtype=np.intp).reshape(-1)
        for nid in ids:
            self._check_id(int(nid))
        if np.any(self._alive[ids]):
            raise CoverageError("reviving a node that is alive")
        self._alive[ids] = True

    # ------------------------------------------------------------------
    def copy(self) -> "Deployment":
        """Deep copy (same ids, same alive mask)."""
        new = Deployment()
        new._grow(self._n)
        new._pos[: self._n] = self._pos[: self._n]
        new._alive[: self._n] = self._alive[: self._n]
        new._n = self._n
        return new

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Deployment(n_alive={self.n_alive}, n_failed={self.n_failed})"

"""The field layer's fixed-radius neighbour index, and its test reference.

A :class:`FieldModel` answers the two queries every DECOR consumer needs —
ball queries against the field points and the symmetric radius adjacency
(an :class:`~repro.field.csr.Adjacency`, diagonal included) that turns
Eq. (1) into a sparse mat-vec — through one index, built by
:func:`make_backend`:

* :class:`GridHashBackend` — a NumPy uniform grid hash (one bucket table
  per radius, memoised).  One vectorised ball join answers single and
  batched ball queries and, as a self-join, the adjacency, all with the
  exact closed-ball test ``dx*dx + dy*dy <= r*r``.

:class:`KDTreeBackend` answers the same three queries with its own
:class:`scipy.spatial.cKDTree` (scipy is imported when it is built).  No
run path builds it: the tests use it as an independent reference for the
grid hash, and ``scipy`` is a test dependency only.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GeometryError
from repro.field.csr import Adjacency
from repro.geometry.neighbors import UniformGridIndex
from repro.geometry.points import as_point, as_points

__all__ = ["GridHashBackend", "KDTreeBackend", "make_backend"]


def _check_radius(radius: float) -> float:
    r = float(radius)
    if r < 0:
        raise GeometryError(f"negative radius {r}")
    return r


class KDTreeBackend:
    """cKDTree neighbour search, the tests' reference for the grid hash."""

    def __init__(self, points: np.ndarray) -> None:
        from scipy.spatial import cKDTree

        self._points = as_points(points)
        self._tree = cKDTree(self._points) if len(self._points) else None

    def query_ball(self, center: np.ndarray, radius: float) -> np.ndarray:
        return self.query_ball_many(as_point(center)[None, :], radius)[0]

    def query_ball_many(self, centers: np.ndarray, radius: float) -> list[np.ndarray]:
        r = _check_radius(radius)
        cs = as_points(centers)
        if self._tree is None:
            return [np.empty(0, dtype=np.intp) for _ in range(len(cs))]
        res = self._tree.query_ball_point(cs, r, return_sorted=True)
        return [np.asarray(x, dtype=np.intp) for x in res]

    def adjacency(self, radius: float) -> Adjacency:
        n = len(self._points)
        rows = self.query_ball_many(self._points, radius)
        keys = [i * n + row for i, row in enumerate(rows)]
        return Adjacency.from_keys(np.concatenate([np.empty(0, np.intp), *keys]), n)


class GridHashBackend:
    """The NumPy grid hash: one :class:`UniformGridIndex` per radius, memoised."""

    def __init__(self, points: np.ndarray) -> None:
        self._points = as_points(points)
        self._indices: dict[float, UniformGridIndex] = {}

    def _index_for(self, r: float) -> UniformGridIndex:
        if r not in self._indices:
            # cells must be wider than 0 for r = 0 too; any width is exact
            self._indices[r] = UniformGridIndex(self._points, r or 1.0)
        return self._indices[r]

    def query_ball(self, center: np.ndarray, radius: float) -> np.ndarray:
        r = _check_radius(radius)
        return self._index_for(r).query_ball(center, r)

    def query_ball_many(self, centers: np.ndarray, radius: float) -> list[np.ndarray]:
        r = _check_radius(radius)
        return self._index_for(r).query_ball_many(centers, r)

    def adjacency(self, radius: float) -> Adjacency:
        r = _check_radius(radius)
        n = self._points.shape[0]
        hits, ends = self._index_for(r).join(self._points, r)
        rows = np.arange(n).repeat(np.diff(ends, prepend=0))
        return Adjacency.from_keys(np.sort(rows * n + hits), n)


def make_backend(points: np.ndarray) -> GridHashBackend:
    """The neighbour index a :class:`FieldModel` builds over ``points``."""
    return GridHashBackend(points)

"""Pluggable fixed-radius neighbour-search backends for :class:`FieldModel`.

A backend is built once per field and answers the two queries every DECOR
consumer needs — ball queries against the field points and the symmetric
radius adjacency (an :class:`~repro.field.csr.Adjacency`, diagonal
included) that turns Eq. (1) into a sparse mat-vec.  Two interchangeable
implementations ship:

* ``"gridhash"`` — the default: a NumPy uniform grid hash (one bucket
  table per radius, memoised).  One vectorised ball join answers single
  and batched ball queries and, as a self-join, the adjacency, all with
  the exact closed-ball test ``dx*dx + dy*dy <= r*r``.
* ``"kdtree"`` — :class:`scipy.spatial.cKDTree`, opt-in; scipy is
  imported when the backend is built.  It doubles as an independent
  oracle for the grid hash in the property tests.

Selection: explicit ``backend=`` argument wins, then the
``REPRO_FIELD_BACKEND`` environment variable, then ``"gridhash"``.  New
backends register via :func:`register_backend`.
"""

from __future__ import annotations

import os
from typing import Protocol

import numpy as np

from repro.errors import ConfigurationError, GeometryError
from repro.field.csr import Adjacency
from repro.geometry.neighbors import UniformGridIndex, radius_adjacency
from repro.geometry.points import as_point, as_points

__all__ = [
    "BACKEND_ENV_VAR",
    "NeighborBackend",
    "KDTreeBackend",
    "GridHashBackend",
    "available_backends",
    "register_backend",
    "resolve_backend_name",
]

#: Environment variable selecting the default neighbour-search backend.
BACKEND_ENV_VAR = "REPRO_FIELD_BACKEND"


class NeighborBackend(Protocol):
    """What a neighbour-search backend must answer (see the built-ins)."""

    name: str

    def query_ball(self, center: np.ndarray, radius: float) -> np.ndarray:
        """Indices of field points within ``radius`` of ``center``."""
        ...

    def query_ball_many(
        self, centers: np.ndarray, radius: float
    ) -> list[np.ndarray]:
        """Per-center index arrays for a batch of ball queries."""
        ...

    def adjacency(self, radius: float) -> Adjacency:
        """Symmetric 0/1 radius adjacency with unit diagonal."""
        ...


def _check_radius(radius: float) -> float:
    r = float(radius)
    if r < 0:
        raise GeometryError(f"negative radius {r}")
    return r


class KDTreeBackend:
    """cKDTree neighbour search, opt-in: scipy is imported when it is built."""

    name = "kdtree"

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
        res = self._tree.query_ball_point(cs, r)
        return [np.asarray(x, dtype=np.intp) for x in res]

    def adjacency(self, radius: float) -> Adjacency:
        csr = radius_adjacency(self._points, _check_radius(radius))
        n = csr.shape[0]
        return Adjacency(csr.indptr.astype(np.int32), csr.indices.astype(np.int32), n)


class GridHashBackend:
    """The NumPy grid hash: one :class:`UniformGridIndex` per radius, memoised."""

    name = "gridhash"

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


_BACKENDS: dict[str, type] = {
    GridHashBackend.name: GridHashBackend,
    KDTreeBackend.name: KDTreeBackend,
}


def available_backends() -> tuple[str, ...]:
    """Registered backend names, default first."""
    return tuple(_BACKENDS)


def register_backend(name: str, factory: type) -> None:
    """Register a neighbour-search backend under ``name``.

    ``factory(points)`` must return an object with ``query_ball``,
    ``query_ball_many`` and ``adjacency`` compatible with the built-ins.
    """
    if not name or not isinstance(name, str):
        raise ConfigurationError(f"invalid backend name {name!r}")
    _BACKENDS[name] = factory


def resolve_backend_name(name: str | None = None) -> str:
    """Resolve a backend name: argument > ``REPRO_FIELD_BACKEND`` > gridhash."""
    resolved = name or os.environ.get(BACKEND_ENV_VAR) or GridHashBackend.name
    if resolved not in _BACKENDS:
        raise ConfigurationError(
            f"unknown field backend {resolved!r}; known: {sorted(_BACKENDS)}"
        )
    return resolved


def make_backend(name: str | None, points: np.ndarray) -> NeighborBackend:
    """Instantiate the resolved backend over ``points``."""
    return _BACKENDS[resolve_backend_name(name)](points)

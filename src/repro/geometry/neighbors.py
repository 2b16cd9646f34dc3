"""Fixed-radius neighbour search: one pure-NumPy uniform grid hash.

:class:`UniformGridIndex` answers every fixed-radius query ``repro``
makes, each with the exact closed-ball test ``dx*dx + dy*dy <= r*r``:

1. *ball queries*: the stored points within radius ``r`` of each probe,
   as one vectorised join (:meth:`UniformGridIndex.join`); counted
   (:meth:`UniformGridIndex.ball_counts`), they rasterise coverage and
   count an intruder's detectors;
2. the *self-join*: the field layer's radius adjacency
   (:class:`~repro.field.backends.GridHashBackend`), which turns the
   paper's benefit sum (Eq. 1) into a sparse mat-vec;
3. :func:`radius_pairs`: the pairs within ``r`` of each other, for the
   communication graph, coverage holes and disc overlap.

The tests check it against dense distances and against a kd-tree
reference (:class:`~repro.field.backends.KDTreeBackend`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import GeometryError
from repro.geometry.points import as_point, as_points

__all__ = ["UniformGridIndex", "radius_pairs"]

#: Centers per join in :meth:`UniformGridIndex.ball_counts`: small enough
#: that a block's temporaries stay in cache, which halves the wall of a
#: 160,000-probe coverage raster against one join over all of them.
_COUNT_BLOCK = 4096


class UniformGridIndex:
    """Pure-NumPy uniform grid hash for fixed-radius queries.

    Points are bucketed into square cells a little wider than ``radius``
    (so rounding cannot put a point within ``radius`` two cells away) and
    at least ``span / sqrt(n)`` wide (so there are about ``n`` cells at
    most).  One vectorised join over the centers' 3x3 cell windows answers
    a batch of ball queries, or the self-join, with the exact test
    ``dx*dx + dy*dy <= r*r``.  It backs the field layer's neighbour index.

    Parameters
    ----------
    points:
        ``(n, 2)`` stored points.
    radius:
        The (fixed) query radius the index is built for.
    """

    def __init__(self, points: np.ndarray, radius: float) -> None:
        if radius <= 0:
            raise GeometryError(f"radius must be positive, got {radius}")
        self._points = pts = as_points(points)
        self._radius = float(radius)
        if not len(pts):
            return
        self._origin = pts.min(axis=0)
        span = float((pts.max(axis=0) - self._origin).max())
        self._size = max(self._radius, span / np.sqrt(len(pts))) * (1.0 + 2.0**-20)
        cells = np.floor((pts - self._origin) / self._size).astype(np.intp)
        ncols, nrows = (int(c) + 1 for c in cells.max(axis=0))
        # two spare key columns and rows on each side: the window of a
        # center clipped to one cell outside the grid stays in its key row
        stride = ncols + 4
        keys = (cells[:, 1] + 2) * stride + cells[:, 0] + 2
        self._order = np.argsort(keys, kind="stable")
        # the points of keys k .. k + 2 are order[start[k]:start[k + 3]]
        self._start = np.zeros((nrows + 4) * stride + 1, dtype=np.intp)
        np.cumsum(np.bincount(keys, minlength=self._start.size - 1), out=self._start[1:])
        self._xs = pts[self._order, 0]
        self._ys = pts[self._order, 1]
        # a center's clipped cell @ weights + rows[i] is the first key of
        # its window in row cy - 1 + i
        self._limits = np.array([ncols, nrows], dtype=np.float64)
        self._weights = np.array([1.0, stride])
        self._rows = np.array([1.0, 2.0, 3.0]) * stride + 1.0

    @property
    def radius(self) -> float:
        return self._radius

    def __len__(self) -> int:
        return self._points.shape[0]

    def join(
        self, centers: np.ndarray, radius: float | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stored points within ``radius`` (default: the build radius, which
        it must not exceed) of each of ``centers``: ``hits`` lists them
        center by center (cell by cell within one) and center ``c``'s run
        ends at ``ends[c]``."""
        r = self._radius if radius is None else float(radius)
        if not 0.0 <= r <= self._radius + 1e-12:
            raise GeometryError(
                f"query radius {r} outside [0, build radius {self._radius}]"
            )
        cs = as_points(centers)
        if not len(self) or not len(cs):
            return np.empty(0, dtype=np.intp), np.zeros(len(cs), dtype=np.intp)
        cell = cs - self._origin
        cell /= self._size
        np.floor(cell, out=cell)
        np.maximum(cell, -1.0, out=cell)
        np.minimum(cell, self._limits, out=cell)
        first = ((cell @ self._weights)[:, None] + self._rows).ravel().astype(np.intp)
        lo = self._start[first]
        counts = self._start[first + 3] - lo
        ends = counts.cumsum()
        # bucket positions of the concatenated windows lo[w]:lo[w] + counts[w]
        pos = (lo - ends + counts).repeat(counts) + np.arange(ends[-1])
        dx = self._xs[pos] - cs[:, 0].repeat(3).repeat(counts)
        dy = self._ys[pos] - cs[:, 1].repeat(3).repeat(counts)
        inside = np.flatnonzero(dx * dx + dy * dy <= r * r)
        return self._order[pos[inside]], inside.searchsorted(ends[2::3])

    def ball_counts(self, centers: np.ndarray, radius: float | None = None) -> np.ndarray:
        """How many stored points lie within ``radius`` of each of
        ``centers``: :meth:`join`'s run lengths, block by block."""
        cs = as_points(centers)
        counts = [
            np.diff(self.join(cs[i : i + _COUNT_BLOCK], radius)[1], prepend=0)
            for i in range(0, len(cs), _COUNT_BLOCK)
        ]
        return np.concatenate([np.empty(0, dtype=np.intp), *counts])

    def query_ball_many(
        self, centers: np.ndarray, radius: float | None = None
    ) -> list[np.ndarray]:
        """:meth:`query_ball` for a batch of centers, as one join."""
        hits, ends = self.join(centers, radius)
        bounds = ends.tolist()
        return [hits[a:b] for a, b in zip([0, *bounds], bounds)]

    def query_ball(self, center: np.ndarray, radius: float | None = None) -> np.ndarray:
        """Indices of stored points within the (closed) ball around ``center``.

        ``radius`` defaults to the build radius and must not exceed it (the
        bin size only guarantees correctness up to the build radius).
        """
        return self.query_ball_many(as_point(center)[None, :], radius)[0]


def radius_pairs(points: np.ndarray, radius: float) -> np.ndarray:
    """The ``(m, 2)`` index pairs ``(i, j)``, ``i < j``, of points at most
    ``radius`` apart, in ascending ``(i, j)`` order, from one self-join.

    >>> radius_pairs([[0.0, 0.0], [9.0, 0.0], [2.0, 0.0], [3.0, 0.0]], 3.0).tolist()
    [[0, 2], [0, 3], [2, 3]]
    """
    pts = as_points(points)
    r = float(radius)
    if r < 0:
        raise GeometryError(f"negative radius {r}")
    n = len(pts)
    # cells must be wider than 0 for r = 0 too; any width is exact
    hits, ends = UniformGridIndex(pts, r or 1.0).join(pts, r)
    rows = np.arange(n).repeat(np.diff(ends, prepend=0))
    upper = rows < hits
    keys = np.sort(rows[upper] * n + hits[upper])
    return np.column_stack(np.divmod(keys, max(n, 1)))

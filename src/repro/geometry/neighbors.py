"""Fixed-radius neighbour search.

Two independent implementations are provided:

* :class:`NeighborIndex` — backed by :class:`scipy.spatial.cKDTree`
  (scipy is imported when an index is built).
* :class:`UniformGridIndex` — a from-scratch uniform grid hash written in
  pure NumPy.  It backs the field layer's one neighbour index
  (:class:`~repro.field.backends.GridHashBackend`); the KD-tree path is
  the independent oracle the property tests check it against.

Both answer the two queries DECOR's hot loop needs:

1. *ball query*: indices of stored points within radius ``r`` of a probe, and
2. *self adjacency*: a sparse CSR matrix ``A`` with ``A[i, j] = 1`` iff
   ``d(p_i, p_j) <= r`` (including the diagonal), which turns the paper's
   benefit sum (Eq. 1) into a sparse mat-vec.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import GeometryError
from repro.geometry.points import as_point, as_points

if TYPE_CHECKING:  # pragma: no cover - typing only
    from scipy import sparse

__all__ = ["NeighborIndex", "UniformGridIndex", "radius_adjacency"]


class NeighborIndex:
    """KD-tree backed fixed-radius neighbour index over a static point set.

    Parameters
    ----------
    points:
        ``(n, 2)`` array of stored points.  The index never mutates them.

    Examples
    --------
    >>> idx = NeighborIndex([[0.0, 0.0], [3.0, 0.0], [10.0, 0.0]])
    >>> [int(i) for i in sorted(idx.query_ball([1.0, 0.0], 2.5))]
    [0, 1]
    """

    def __init__(self, points: np.ndarray) -> None:
        from scipy.spatial import cKDTree

        self._points = as_points(points)
        self._tree = cKDTree(self._points) if len(self._points) else None

    @property
    def points(self) -> np.ndarray:
        """The indexed points (read-only view)."""
        view = self._points.view()
        view.flags.writeable = False
        return view

    def __len__(self) -> int:
        return self._points.shape[0]

    def query_ball(self, center: np.ndarray, radius: float) -> np.ndarray:
        """Indices of stored points within ``radius`` of ``center`` (closed ball)."""
        if radius < 0:
            raise GeometryError(f"negative radius {radius}")
        if self._tree is None:
            return np.empty(0, dtype=np.intp)
        c = as_point(center)
        out = self._tree.query_ball_point(c, radius)
        return np.asarray(out, dtype=np.intp)

    def query_ball_many(self, centers: np.ndarray, radius: float) -> list[np.ndarray]:
        """Ball query for many probe centers at once (one list entry each)."""
        if radius < 0:
            raise GeometryError(f"negative radius {radius}")
        cs = as_points(centers)
        if self._tree is None:
            return [np.empty(0, dtype=np.intp) for _ in range(len(cs))]
        res = self._tree.query_ball_point(cs, radius)
        return [np.asarray(r, dtype=np.intp) for r in res]

    def count_in_balls(self, centers: np.ndarray, radius: float) -> np.ndarray:
        """Number of stored points within ``radius`` of each probe center."""
        from scipy.spatial import cKDTree

        cs = as_points(centers)
        if self._tree is None:
            return np.zeros(len(cs), dtype=np.intp)
        probe = cKDTree(cs)
        # count_neighbors counts pairs; query per-center via sparse product
        coo = probe.sparse_distance_matrix(self._tree, radius, output_type="coo_matrix")
        counts = np.zeros(len(cs), dtype=np.intp)
        np.add.at(counts, coo.row, 1)
        return counts

    def nearest(self, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Nearest stored point for each probe: ``(distances, indices)``."""
        cs = as_points(centers)
        if self._tree is None:
            raise GeometryError("nearest() on an empty index")
        d, i = self._tree.query(cs, k=1)
        return np.asarray(d, dtype=float), np.asarray(i, dtype=np.intp)

    def self_adjacency(self, radius: float) -> sparse.csr_matrix:
        """Symmetric CSR adjacency of stored points within ``radius`` (with diagonal)."""
        return radius_adjacency(self._points, radius)


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


def radius_adjacency(points: np.ndarray, radius: float) -> sparse.csr_matrix:
    """Sparse symmetric 0/1 adjacency of points within ``radius`` of each other.

    The diagonal is included (every point is within radius 0 of itself),
    matching the paper's benefit sum where the candidate point itself counts.

    Returns
    -------
    scipy.sparse.csr_matrix
        ``(n, n)`` float64 CSR matrix with unit entries.
    """
    from scipy import sparse
    from scipy.spatial import cKDTree

    pts = as_points(points)
    n = pts.shape[0]
    if radius < 0:
        raise GeometryError(f"negative radius {radius}")
    if n == 0:
        return sparse.csr_matrix((0, 0), dtype=np.float64)
    tree = cKDTree(pts)
    coo = tree.sparse_distance_matrix(tree, radius, output_type="coo_matrix")
    data = np.ones_like(coo.data, dtype=np.float64)
    adj = sparse.csr_matrix((data, (coo.row, coo.col)), shape=(n, n))
    # sparse_distance_matrix omits the zero-distance diagonal entries' data in
    # some SciPy versions; force the diagonal explicitly.
    adj = adj.maximum(sparse.identity(n, format="csr", dtype=np.float64))
    adj.data[:] = 1.0
    return adj

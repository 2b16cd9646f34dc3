"""The tests' kd-tree reference: scipy's ``cKDTree``.

Nearest neighbours, the scipy-CSR radius adjacency and ball counts, with
no code shared with :mod:`repro.geometry`, whose grid hash the tests
check against them.  :class:`repro.field.backends.KDTreeBackend` is the
field-layer face of the same reference.  scipy is a test dependency
only: no ``decor`` command imports it.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

from repro.errors import GeometryError


def _points(points: np.ndarray) -> np.ndarray:
    return np.asarray(points, dtype=np.float64).reshape(-1, 2)


def nearest(points: np.ndarray, probes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(distances, indices)`` of the nearest of ``points`` to each probe."""
    pts = _points(points)
    if not len(pts):
        raise GeometryError("nearest() over no points")
    d, i = cKDTree(pts).query(_points(probes), k=1)
    return np.asarray(d, dtype=float), np.asarray(i, dtype=np.intp)


def radius_adjacency(points: np.ndarray, radius: float) -> sparse.csr_matrix:
    """The ``(n, n)`` float64 CSR matrix with a 1 wherever two points are
    at most ``radius`` apart, diagonal included."""
    if radius < 0:
        raise GeometryError(f"negative radius {radius}")
    pts = _points(points)
    n = len(pts)
    rows = cKDTree(pts).query_ball_point(pts, radius, return_sorted=True) if n else []
    indptr = np.cumsum([0, *map(len, rows)])
    indices = np.concatenate([np.empty(0, dtype=np.intp), *map(np.asarray, rows)])
    return sparse.csr_matrix((np.ones(indices.size), indices, indptr), shape=(n, n))


def ball_counts(points: np.ndarray, probes: np.ndarray, radius: float) -> np.ndarray:
    """How many of ``points`` lie within ``radius`` of each probe (closed balls)."""
    pts, centers = _points(points), _points(probes)
    if not len(pts) or not len(centers):
        return np.zeros(len(centers), dtype=np.intp)
    counts = cKDTree(pts).query_ball_point(centers, radius, return_length=True)
    return np.asarray(counts, dtype=np.intp)

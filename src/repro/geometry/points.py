"""Vectorised point-array utilities.

All public functions operate on ``(n, 2)`` float arrays and avoid Python-level
loops, following the scientific-Python optimisation guidance (vectorise,
broadcast, no needless copies).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import GeometryError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.geometry.region import Rect

__all__ = [
    "as_points",
    "as_point",
    "pairwise_distances",
    "distances_to",
    "squared_distances_to",
    "bounding_rect_of",
    "read_only",
]


def as_points(points: object) -> np.ndarray:
    """Coerce input to a float64 ``(n, 2)`` array (no copy when possible).

    Accepts lists of pairs, a single pair (promoted to shape ``(1, 2)``),
    or an existing array.

    Raises
    ------
    GeometryError
        If the input cannot be interpreted as planar points.
    """
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim == 1:
        if arr.shape[0] != 2:
            raise GeometryError(f"expected a 2-vector, got shape {arr.shape}")
        arr = arr.reshape(1, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GeometryError(f"expected (n, 2) points, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise GeometryError("points contain NaN or infinite coordinates")
    return arr


def as_point(point: object) -> np.ndarray:
    """Coerce input to a single float64 ``(2,)`` point."""
    arr = np.asarray(point, dtype=np.float64).reshape(-1)
    if arr.shape != (2,):
        raise GeometryError(f"expected a single 2-D point, got shape {arr.shape}")
    # two scalar tests: np.isfinite on a 2-vector costs several times more
    x, y = arr.tolist()
    if not (math.isfinite(x) and math.isfinite(y)):
        raise GeometryError("point contains NaN or infinite coordinates")
    return arr


def read_only(array: np.ndarray) -> np.ndarray:
    """A view of ``array`` that cannot be written through.

    The view shares memory, so it shows every later in-place change made
    through ``array`` itself.
    """
    view = array.view()
    view.flags.writeable = False
    return view


def squared_distances_to(points: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from each point to a single target.

    Cheaper than :func:`distances_to` (no square root); prefer it for
    threshold comparisons against ``r**2``.
    """
    pts = as_points(points)
    t = as_point(target)
    d = pts - t  # broadcasting, one temporary
    return d[:, 0] ** 2 + d[:, 1] ** 2


def distances_to(points: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Euclidean distance from each point to a single target point."""
    return np.sqrt(squared_distances_to(points, target))


def pairwise_distances(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Dense pairwise distance matrix between two point sets.

    Parameters
    ----------
    a:
        ``(n, 2)`` points.
    b:
        ``(m, 2)`` points; defaults to ``a`` (self-distances).

    Returns
    -------
    numpy.ndarray
        ``(n, m)`` matrix of Euclidean distances.

    Notes
    -----
    Intended for small/medium sets (tests, exact discrepancy).  For
    fixed-radius queries on large sets use
    :class:`repro.geometry.neighbors.UniformGridIndex`.
    """
    pa = as_points(a)
    pb = pa if b is None else as_points(b)
    diff = pa[:, None, :] - pb[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def bounding_rect_of(points: np.ndarray, pad: float = 0.0) -> "Rect":
    """Tight axis-aligned bounding :class:`~repro.geometry.region.Rect`.

    Parameters
    ----------
    points:
        Non-empty ``(n, 2)`` array.
    pad:
        Optional symmetric margin added on every side (also used to avoid a
        degenerate rectangle when all points are collinear).
    """
    from repro.geometry.region import Rect

    pts = as_points(points)
    if pts.shape[0] == 0:
        raise GeometryError("cannot bound an empty point set")
    x0, y0 = pts.min(axis=0)
    x1, y1 = pts.max(axis=0)
    eps = max(pad, 1e-9)
    return Rect(x0 - eps, y0 - eps, x1 + eps, y1 + eps)

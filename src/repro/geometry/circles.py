"""Exact circle-circle geometry and deployment overlap statistics.

The benefit greedy minimises *placements*, not *overlap*; two deployments
with equal node counts can waste very different amounts of sensing area on
double coverage.  This module provides the exact lens-area formula for two
discs and aggregates it into a deployment-level overlap statistic — a
finer-grained waste measure than the redundant-node count of Figure 9
(a node can be non-redundant yet mostly overlapped).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import GeometryError
from repro.geometry.disks import disk_area
from repro.geometry.neighbors import radius_pairs
from repro.geometry.points import as_points

__all__ = ["circle_intersection_area", "pairwise_overlap_area", "overlap_statistics"]


def circle_intersection_area(
    c1: np.ndarray, r1: float, c2: np.ndarray, r2: float
) -> float:
    """Exact area of the intersection of two closed discs.

    Standard lens formula: for center distance ``d`` with
    ``|r1 - r2| < d < r1 + r2``, the intersection is two circular segments::

        A = r1^2 acos((d^2 + r1^2 - r2^2) / (2 d r1))
          + r2^2 acos((d^2 + r2^2 - r1^2) / (2 d r2))
          - sqrt((-d+r1+r2)(d+r1-r2)(d-r1+r2)(d+r1+r2)) / 2

    Degenerate cases: disjoint discs give 0; containment gives the smaller
    disc's area.

    Each ``acos`` is taken as ``atan2(h, x)`` of the half chord ``h`` and
    the signed distance ``x`` from that centre to the chord, so the angles
    and the triangle share one ``h``.  A separate ``acos`` can round to 0
    near tangency while the square root does not (two radius-3 discs at
    ``d = 6 - 1 ulp`` gave ``-3e-7``); the shared ``h`` cancels to within
    rounding of the true lens, and the result is floored at 0.
    """
    if r1 < 0 or r2 < 0:
        raise GeometryError("radii must be non-negative")
    p1 = np.asarray(c1, dtype=float).reshape(2)
    p2 = np.asarray(c2, dtype=float).reshape(2)
    d = float(np.linalg.norm(p2 - p1))
    if d >= r1 + r2:
        return 0.0
    if d <= abs(r1 - r2):
        return disk_area(min(r1, r2))
    term = (-d + r1 + r2) * (d + r1 - r2) * (d - r1 + r2) * (d + r1 + r2)
    h = 0.5 * math.sqrt(max(term, 0.0)) / d
    x1 = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    x2 = d - x1
    lens = r1 * r1 * math.atan2(h, x1) + r2 * r2 * math.atan2(h, x2) - d * h
    return max(lens, 0.0)


def pairwise_overlap_area(positions: np.ndarray, rs: float) -> float:
    """Sum of pairwise disc-intersection areas of a deployment.

    Only pairs closer than ``2 rs`` can overlap, so the sum runs over the
    grid hash's near pairs (:func:`~repro.geometry.neighbors.radius_pairs`,
    ascending); O(n + pairs) rather than O(n^2).

    Note this is the *pairwise* sum (triple overlaps are counted three
    times), which is the standard second-order waste statistic; it upper
    bounds the doubly-covered area.
    """
    return _pairwise_overlap(as_points(positions), rs)[1]


def _pairwise_overlap(pts: np.ndarray, rs: float) -> tuple[int, float]:
    """The number of disc pairs closer than ``2 rs`` and their summed
    intersection area."""
    if rs <= 0:
        raise GeometryError(f"rs must be positive, got {rs}")
    pairs = radius_pairs(pts, 2.0 * rs).tolist()
    total = 0.0
    for i, j in pairs:
        total += circle_intersection_area(pts[i], rs, pts[j], rs)
    return len(pairs), total


def overlap_statistics(positions: np.ndarray, rs: float) -> dict:
    """Deployment-level overlap summary.

    Returns
    -------
    dict
        ``total_disc_area`` (n x disc area), ``pairwise_overlap`` (the
        second-order sum), ``overlap_ratio`` (overlap / total disc area —
        0 for non-touching discs, grows with crowding) and
        ``mean_near_neighbors`` (average number of other sensors within
        ``2 rs``).
    """
    pts = as_points(positions)
    n = len(pts)
    area_each = disk_area(rs)
    if n == 0:
        return {
            "total_disc_area": 0.0,
            "pairwise_overlap": 0.0,
            "overlap_ratio": 0.0,
            "mean_near_neighbors": 0.0,
        }
    n_pairs, overlap = _pairwise_overlap(pts, rs)
    return {
        "total_disc_area": n * area_each,
        "pairwise_overlap": overlap,
        "overlap_ratio": overlap / (n * area_each),
        "mean_near_neighbors": 2.0 * n_pairs / n,
    }

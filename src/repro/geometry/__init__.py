"""Geometric primitives and spatial indexing for the sensor field.

This subpackage provides everything DECOR needs to reason about a planar
sensor field:

* :class:`~repro.geometry.region.Rect` — the axis-aligned monitored region.
* :mod:`~repro.geometry.points` — vectorised point utilities (distances,
  containment, pairwise queries).
* :mod:`~repro.geometry.neighbors` — fixed-radius neighbour search: one
  pure-NumPy uniform grid hash (ball queries, self-joins, radius pairs).
* :class:`~repro.geometry.grid.GridPartition` — the paper's grid-based cell
  architecture (§3.1).
* :mod:`~repro.geometry.voronoi` — local Voronoi ownership of field points
  (§3.1, Definition 1).
* :mod:`~repro.geometry.disks` — disc coverage predicates and area helpers.
"""

from repro.geometry.region import Rect
from repro.geometry.points import (
    as_points,
    pairwise_distances,
    distances_to,
    squared_distances_to,
)
from repro.geometry.neighbors import UniformGridIndex
from repro.geometry.grid import GridPartition
from repro.geometry.voronoi import VoronoiOwnership, nearest_owner
from repro.geometry.disks import (
    disk_area,
    points_in_disk,
    disk_intersects_rect,
    minimum_disks_lower_bound,
)
from repro.geometry.circles import (
    circle_intersection_area,
    pairwise_overlap_area,
    overlap_statistics,
)

__all__ = [
    "Rect",
    "as_points",
    "pairwise_distances",
    "distances_to",
    "squared_distances_to",
    "UniformGridIndex",
    "GridPartition",
    "VoronoiOwnership",
    "nearest_owner",
    "disk_area",
    "points_in_disk",
    "disk_intersects_rect",
    "minimum_disks_lower_bound",
    "circle_intersection_area",
    "pairwise_overlap_area",
    "overlap_statistics",
]

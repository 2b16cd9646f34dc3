"""Coverage-hole analysis.

After failures, the deficient field points form one or more connected
*holes* (Figure 6 shows a single disaster hole; random failures open many
small ones).  Identifying the holes — their count, extent and centroids —
matters operationally: each hole is a work order for a repair crew, and
hole geometry distinguishes a survivable pepper-spray of pinpricks from a
blind region.

Two deficient points belong to the same hole when they lie within the
merge radius of each other (default ``2 rs``: a single sensor placed
between them could touch both).  Connectivity is computed on the radius
graph of the deficient points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CoverageError
from repro.geometry.neighbors import radius_pairs
from repro.network.coverage import CoverageState

__all__ = ["CoverageHole", "find_holes"]


@dataclass(frozen=True)
class CoverageHole:
    """One connected deficient region.

    Attributes
    ----------
    point_indices:
        Field-point indices in the hole (sorted).
    centroid:
        Mean position of the hole's points.
    radius:
        Max distance from the centroid to a hole point (extent proxy).
    total_deficiency:
        Summed ``max(k - c, 0)`` over the hole — the number of
        (sensor, point)-coverage units the repair must supply.
    """

    point_indices: np.ndarray
    centroid: np.ndarray
    radius: float
    total_deficiency: int

    @property
    def n_points(self) -> int:
        return int(self.point_indices.size)


def find_holes(
    coverage: CoverageState,
    k: int,
    *,
    merge_radius: float | None = None,
) -> list[CoverageHole]:
    """Connected components of the deficient points, largest first.

    Parameters
    ----------
    coverage:
        Coverage state to analyse.
    k:
        The requirement defining deficiency.
    merge_radius:
        Distance under which two deficient points share a hole; defaults
        to ``2 * sensing_radius``.

    Returns
    -------
    list[CoverageHole]
        Sorted by point count, descending; empty when fully covered.
    """
    import networkx as nx  # lazily: importing the package does not pay for it

    if k < 1:
        raise CoverageError(f"k must be >= 1, got {k}")
    radius = 2.0 * coverage.sensing_radius if merge_radius is None else merge_radius
    if radius <= 0:
        raise CoverageError(f"merge radius must be positive, got {radius}")
    deficient = coverage.deficient_indices(k)
    if deficient.size == 0:
        return []
    pts = coverage.field_points[deficient]
    graph = nx.Graph()
    graph.add_nodes_from(range(len(pts)))
    graph.add_edges_from(radius_pairs(pts, radius).tolist())
    deficiency = coverage.deficiency(k)
    holes: list[CoverageHole] = []
    for comp in nx.connected_components(graph):
        local = np.asarray(sorted(comp), dtype=np.intp)
        idx = deficient[local]
        coords = pts[local]
        centroid = coords.mean(axis=0)
        radius_out = float(np.max(np.linalg.norm(coords - centroid, axis=1)))
        holes.append(
            CoverageHole(
                point_indices=np.sort(idx),
                centroid=centroid,
                radius=radius_out,
                total_deficiency=int(deficiency[idx].sum()),
            )
        )
    holes.sort(key=lambda h: (-h.n_points, h.point_indices[0]))
    return holes

"""Grid partition of the monitored region (paper §3.1, grid-based scheme).

The region is tiled into fixed rectangular *cells*; in the grid-based DECOR
architecture each cell is managed by a single elected leader.  This module is
purely geometric: it assigns points to cells, enumerates cell neighbourhoods,
and answers the border question ("which neighbouring cells does a disc of
radius ``rs`` around this placement intersect?") that drives the message
accounting of Figure 10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import GeometryError
from repro.geometry.points import as_points
from repro.geometry.region import Rect

__all__ = ["GridPartition"]


@dataclass(frozen=True)
class GridPartition:
    """Tiling of a :class:`Rect` into ``nx x ny`` rectangular cells.

    Cells are identified by a flat integer id ``cid = iy * nx + ix`` with
    ``ix`` increasing eastward and ``iy`` northward (row-major from the
    lower-left corner, like the raster order of :meth:`Rect.subdivide`).

    Parameters
    ----------
    region:
        The monitored field.
    cell_width, cell_height:
        Cell dimensions; the last column/row is truncated if the field is not
        an exact multiple (the paper's 5x5 and 10x10 cells divide the 100x100
        field exactly).
    """

    region: Rect
    cell_width: float
    cell_height: float
    nx: int = field(init=False)
    ny: int = field(init=False)

    def __post_init__(self) -> None:
        if self.cell_width <= 0 or self.cell_height <= 0:
            raise GeometryError("cell dimensions must be positive")
        object.__setattr__(
            self, "nx", max(1, math.ceil(self.region.width / self.cell_width - 1e-12))
        )
        object.__setattr__(
            self, "ny", max(1, math.ceil(self.region.height / self.cell_height - 1e-12))
        )

    @classmethod
    def square_cells(cls, region: Rect, cell_side: float) -> "GridPartition":
        """Convenience constructor for square cells of side ``cell_side``."""
        return cls(region, cell_side, cell_side)

    # ------------------------------------------------------------------
    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    def cell_rect(self, cid: int) -> Rect:
        """Geometry of cell ``cid`` (truncated at the field boundary)."""
        self._check_cid(cid)
        ix, iy = cid % self.nx, cid // self.nx
        x0 = self.region.x0 + ix * self.cell_width
        y0 = self.region.y0 + iy * self.cell_height
        return Rect(
            x0,
            y0,
            min(x0 + self.cell_width, self.region.x1),
            min(y0 + self.cell_height, self.region.y1),
        )

    def _check_cid(self, cid: int) -> None:
        if not (0 <= cid < self.n_cells):
            raise GeometryError(f"cell id {cid} out of range [0, {self.n_cells})")

    # ------------------------------------------------------------------
    # point -> cell assignment
    # ------------------------------------------------------------------
    def cell_of(self, points: np.ndarray) -> np.ndarray:
        """Flat cell id for each point, ``(n,)`` intp.

        Points on shared cell edges belong to the cell to their upper-right
        (half-open binning), except on the field's far boundary where they
        are clamped into the last cell.  Points outside the field raise.
        """
        pts = as_points(points)
        if not bool(np.all(self.region.contains(pts))):
            raise GeometryError("points outside the partitioned region")
        ix = np.floor((pts[:, 0] - self.region.x0) / self.cell_width).astype(np.intp)
        iy = np.floor((pts[:, 1] - self.region.y0) / self.cell_height).astype(np.intp)
        np.clip(ix, 0, self.nx - 1, out=ix)
        np.clip(iy, 0, self.ny - 1, out=iy)
        return iy * self.nx + ix

    def points_by_cell(self, points: np.ndarray) -> list[np.ndarray]:
        """Partition point indices by cell: ``result[cid]`` = indices in cell."""
        cids = self.cell_of(points)
        order = np.argsort(cids, kind="stable")
        sorted_cids = cids[order]
        boundaries = np.searchsorted(sorted_cids, np.arange(self.n_cells + 1))
        return [
            order[boundaries[c] : boundaries[c + 1]] for c in range(self.n_cells)
        ]

    # ------------------------------------------------------------------
    # cell neighbourhoods
    # ------------------------------------------------------------------
    def neighbors_of(self, cid: int, *, diagonal: bool = True) -> np.ndarray:
        """Ids of cells adjacent to ``cid`` (8-neighbourhood by default)."""
        self._check_cid(cid)
        ix, iy = cid % self.nx, cid // self.nx
        out = []
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                if not diagonal and dx != 0 and dy != 0:
                    continue
                jx, jy = ix + dx, iy + dy
                if 0 <= jx < self.nx and 0 <= jy < self.ny:
                    out.append(jy * self.nx + jx)
        return np.asarray(sorted(out), dtype=np.intp)

    def cells_intersecting_disks(
        self, centers: np.ndarray, radius: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Cells each closed disc of ``radius`` around ``centers`` reaches.

        This powers the paper's border-exchange rule: a leader placing a node
        must inform the leader of every *other* cell the new node's sensing
        disc reaches into (§3.3).  Returns a CSR ``(indptr, cells)``: disc
        ``i`` reaches ``cells[indptr[i]:indptr[i + 1]]``, in ascending
        (row-major) id order; a single centre gives a one-row CSR.  A cell
        is reached when its rectangle, clamped to the region, lies within
        ``radius`` of the centre, with a ``1e-12`` slack on ``radius**2``.
        """
        pts = as_points(centers)
        if radius < 0:
            raise GeometryError(f"negative radius {radius}")
        reg, cw, ch = self.region, self.cell_width, self.cell_height
        r2 = radius * radius + 1e-12
        # candidate index window, wide enough for every cell the tolerant
        # test below accepts (a disc whose edge just touches a cell's upper
        # or right edge included)
        reach = math.sqrt(r2) + 1e-9
        cx, cy = pts[:, 0], pts[:, 1]
        ix0 = np.maximum(np.floor((cx - reach - reg.x0) / cw), 0).astype(np.intp)
        ix1 = np.minimum(np.floor((cx + reach - reg.x0) / cw), self.nx - 1).astype(np.intp)
        iy0 = np.maximum(np.floor((cy - reach - reg.y0) / ch), 0).astype(np.intp)
        iy1 = np.minimum(np.floor((cy + reach - reg.y0) / ch), self.ny - 1).astype(np.intp)
        wx = np.maximum(ix1 - ix0 + 1, 0)
        size = wx * np.maximum(iy1 - iy0 + 1, 0)
        # every (disc, window cell) pair, rows in disc order, each window
        # scanned row-major
        disc = np.repeat(np.arange(len(pts)), size)
        offset = np.arange(disc.size) - np.repeat(np.cumsum(size) - size, size)
        wide = wx[disc]
        iy = iy0[disc] + offset // wide
        ix = ix0[disc] + offset % wide
        # the bounds of cell_rect, without building a Rect per cell
        x0 = reg.x0 + ix * cw
        y0 = reg.y0 + iy * ch
        dx = np.maximum(np.maximum(x0 - cx[disc], 0.0), cx[disc] - np.minimum(x0 + cw, reg.x1))
        dy = np.maximum(np.maximum(y0 - cy[disc], 0.0), cy[disc] - np.minimum(y0 + ch, reg.y1))
        hit = dx * dx + dy * dy <= r2
        indptr = np.zeros(len(pts) + 1, dtype=np.intp)
        np.cumsum(np.bincount(disc[hit], minlength=len(pts)), out=indptr[1:])
        return indptr, (iy * self.nx + ix)[hit]

    def max_leader_distance(self) -> float:
        """Maximum distance between leaders of adjacent (8-neighbour) cells.

        For square cells of side ``s`` this is ``2 * s * sqrt(2)`` (opposite
        corners of a diagonal pair), the quantity the paper uses to justify
        ``rc = 10 * sqrt(2)`` for 5x5 cells (§4).
        """
        return 2.0 * math.hypot(self.cell_width, self.cell_height)

"""Local Voronoi ownership of field points (paper §3.1, Definition 1).

In the Voronoi-based DECOR architecture every sensor node owns the field
points that are closer to it than to any other node it can communicate with.
As nodes only see neighbours within the communication radius ``rc``, the cell
is a *local* approximation of the true Voronoi cell; with a dense network the
two coincide.

:class:`VoronoiOwnership` maintains the point -> owner assignment
incrementally: adding a node only re-assigns the points that become closer to
it than to their current owner (an O(n) vectorised update, no global
recompute), exactly the "cells shrink as nodes are deployed" dynamics of the
paper.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GeometryError
from repro.geometry.points import as_point, as_points

__all__ = ["VoronoiOwnership", "nearest_owner"]


def nearest_owner(points: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """Index of the nearest site for every point (brute-force, vectorised).

    Ties break toward the lower site index, matching the incremental update
    rule of :class:`VoronoiOwnership` (a strictly closer site is required to
    steal a point).
    """
    pts = as_points(points)
    st = as_points(sites)
    if st.shape[0] == 0:
        raise GeometryError("no sites")
    # chunk over sites to bound the temporary, points sets are ~2000 so fine
    d2 = (
        (pts[:, None, 0] - st[None, :, 0]) ** 2
        + (pts[:, None, 1] - st[None, :, 1]) ** 2
    )
    return np.argmin(d2, axis=1).astype(np.intp)


class VoronoiOwnership:
    """Incremental nearest-site ownership of a fixed set of field points.

    Parameters
    ----------
    points:
        ``(n, 2)`` field points (the Halton/Hammersley approximation).
    sites:
        Initial ``(m, 2)`` node positions, ``m >= 1``.

    Notes
    -----
    * ``owner[i]`` is the index (into the growing site list) of the node that
      owns point ``i``; ``owner_distance2[i]`` caches the squared distance so
      each :meth:`add_site` update is a single vectorised comparison.
    * Site removal (node failure) triggers re-assignment of only the orphaned
      points, against the surviving sites.
    """

    def __init__(self, points: np.ndarray, sites: np.ndarray) -> None:
        self._points = as_points(points)
        sites = as_points(sites)
        if sites.shape[0] == 0:
            raise GeometryError("VoronoiOwnership requires at least one site")
        self._sites: list[np.ndarray] = [s.copy() for s in sites]
        self._alive = [True] * len(self._sites)
        self._owner = nearest_owner(self._points, sites)
        diff = self._points - sites[self._owner]
        self._owner_d2 = diff[:, 0] ** 2 + diff[:, 1] ** 2

    # ------------------------------------------------------------------
    @property
    def n_points(self) -> int:
        return self._points.shape[0]

    @property
    def n_sites(self) -> int:
        """Total sites ever added (including removed ones; ids are stable)."""
        return len(self._sites)

    @property
    def owner(self) -> np.ndarray:
        """Read-only view of the current owner of each point."""
        view = self._owner.view()
        view.flags.writeable = False
        return view

    def site_position(self, site_id: int) -> np.ndarray:
        self._check_site(site_id)
        return self._sites[site_id].copy()

    def is_alive(self, site_id: int) -> bool:
        self._check_site(site_id)
        return self._alive[site_id]

    def alive_sites(self) -> np.ndarray:
        """Ids of currently alive sites."""
        return np.asarray(
            [i for i, a in enumerate(self._alive) if a], dtype=np.intp
        )

    def _check_site(self, site_id: int) -> None:
        if not (0 <= site_id < len(self._sites)):
            raise GeometryError(f"unknown site id {site_id}")

    # ------------------------------------------------------------------
    def owned_points(self, site_id: int) -> np.ndarray:
        """Indices of field points currently owned by ``site_id``."""
        self._check_site(site_id)
        return np.nonzero(self._owner == site_id)[0]

    def cell_sizes(self) -> np.ndarray:
        """Number of owned points per site id (zero for dead/empty sites)."""
        counts = np.zeros(len(self._sites), dtype=np.intp)
        np.add.at(counts, self._owner, 1)
        return counts

    # ------------------------------------------------------------------
    def add_site(self, position: np.ndarray) -> tuple[int, np.ndarray]:
        """Add a node; steal ownership of points strictly closer to it.

        Returns
        -------
        tuple
            ``(new_site_id, stolen_point_indices)``.
        """
        pos = as_point(position)
        sid = len(self._sites)
        self._sites.append(pos.copy())
        self._alive.append(True)
        diff = self._points - pos  # both validated on the way in
        d2 = diff[:, 0] ** 2 + diff[:, 1] ** 2
        stolen = np.nonzero(d2 < self._owner_d2)[0]
        self._owner[stolen] = sid
        self._owner_d2[stolen] = d2[stolen]
        return sid, stolen

    def remove_site(self, site_id: int) -> np.ndarray:
        """Remove a node (failure); orphaned points go to their next-nearest.

        Returns the indices of re-assigned points.  Removing the last alive
        site raises, since every point must always have an owner.
        """
        self._check_site(site_id)
        if not self._alive[site_id]:
            raise GeometryError(f"site {site_id} already removed")
        alive = [i for i, a in enumerate(self._alive) if a and i != site_id]
        if not alive:
            raise GeometryError("cannot remove the last alive site")
        self._alive[site_id] = False
        orphans = np.nonzero(self._owner == site_id)[0]
        if orphans.size:
            alive_arr = np.asarray(alive, dtype=np.intp)
            sites_arr = np.asarray([self._sites[i] for i in alive], dtype=float)
            local = nearest_owner(self._points[orphans], sites_arr)
            self._owner[orphans] = alive_arr[local]
            diff = self._points[orphans] - sites_arr[local]
            self._owner_d2[orphans] = diff[:, 0] ** 2 + diff[:, 1] ** 2
        return orphans

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Internal consistency check (used by tests): owners are alive and
        distances are cached correctly; every point's owner is its nearest
        alive site."""
        alive_ids = self.alive_sites()
        sites_arr = np.asarray([self._sites[i] for i in alive_ids], dtype=float)
        expect_local = nearest_owner(self._points, sites_arr)
        expect = alive_ids[expect_local]
        diff = self._points - sites_arr[expect_local]
        expect_d2 = diff[:, 0] ** 2 + diff[:, 1] ** 2
        if not np.allclose(expect_d2, self._owner_d2, rtol=0, atol=1e-9):
            raise GeometryError("owner distance cache is stale")
        # owners must achieve the same (minimal) distance, even if tie-broken
        # differently than the brute-force oracle
        d_owner = self._owner_d2
        if np.any(d_owner > expect_d2 + 1e-9):
            raise GeometryError("a point is owned by a non-nearest site")
        if not all(self._alive[o] for o in np.unique(self._owner)):
            raise GeometryError("a dead site still owns points")

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
    # blocks of points keep each (points x sites) temporary near 2**16
    # elements; the argmin is per point, so blocking cannot change it
    step = max(1, (1 << 16) // st.shape[0])
    owner = np.empty(pts.shape[0], dtype=np.intp)
    for lo in range(0, pts.shape[0], step):
        block = pts[lo:lo + step]
        d2 = (block[:, None, 0] - st[:, 0]) ** 2 + (block[:, None, 1] - st[:, 1]) ** 2
        owner[lo:lo + step] = np.argmin(d2, axis=1)
    return owner


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
    * Points and sites are held as ``(2, ·)`` arrays of contiguous x and y
      rows (the site array doubles its capacity as sites are added).
    * Site removal (node failure) triggers re-assignment of only the orphaned
      points, against the surviving sites.
    """

    def __init__(self, points: np.ndarray, sites: np.ndarray) -> None:
        self._points = as_points(points)
        sites = as_points(sites)
        if sites.shape[0] == 0:
            raise GeometryError("VoronoiOwnership requires at least one site")
        self._n_sites = sites.shape[0]
        self._pxy = np.ascontiguousarray(self._points.T)
        self._sxy = np.empty((2, 2 * self._n_sites))
        self._sxy[:, : self._n_sites] = sites.T
        self._alive = np.arange(2 * self._n_sites) < self._n_sites
        self._owner = nearest_owner(self._points, sites)
        self._owner_d2 = self._distance2(self._pxy, self._sxy[:, self._owner])

    # ------------------------------------------------------------------
    @property
    def n_points(self) -> int:
        return self._points.shape[0]

    @property
    def n_sites(self) -> int:
        """Total sites ever added (including removed ones; ids are stable)."""
        return self._n_sites

    @property
    def owner(self) -> np.ndarray:
        """Read-only view of the current owner of each point."""
        view = self._owner.view()
        view.flags.writeable = False
        return view

    @property
    def owner_distance2(self) -> np.ndarray:
        """Read-only view of each point's squared distance to its owner."""
        view = self._owner_d2.view()
        view.flags.writeable = False
        return view

    def site_position(self, site_id: int) -> np.ndarray:
        self._check_site(site_id)
        return self._sxy[:, site_id].copy()

    def is_alive(self, site_id: int) -> bool:
        self._check_site(site_id)
        return bool(self._alive[site_id])

    def alive_sites(self) -> np.ndarray:
        """Ids of currently alive sites."""
        return np.flatnonzero(self._alive[: self._n_sites])

    def count_alive_within(self, site_id: int, radius: float) -> int:
        """Alive sites within ``radius`` of site ``site_id``, itself included
        (closed disc, with the notification horizon's ``1e-12`` slack)."""
        self._check_site(site_id)
        m = self._n_sites
        d2 = self._distance2(self._sxy[:, :m], self._sxy[:, site_id])
        return int(np.count_nonzero((d2 <= radius**2 + 1e-12) & self._alive[:m]))

    def _check_site(self, site_id: int) -> None:
        if not (0 <= site_id < self._n_sites):
            raise GeometryError(f"unknown site id {site_id}")

    @staticmethod
    def _distance2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``dx*dx + dy*dy`` between ``(2, ·)`` coordinate arrays or points."""
        return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2

    # ------------------------------------------------------------------
    def owned_points(self, site_id: int) -> np.ndarray:
        """Indices of field points currently owned by ``site_id``."""
        self._check_site(site_id)
        return np.nonzero(self._owner == site_id)[0]

    def cell_sizes(self) -> np.ndarray:
        """Number of owned points per site id (zero for dead/empty sites)."""
        return np.bincount(self._owner, minlength=self._n_sites)

    # ------------------------------------------------------------------
    def add_site(self, position: np.ndarray) -> tuple[int, np.ndarray]:
        """Add a node; steal ownership of points strictly closer to it.

        Returns
        -------
        tuple
            ``(new_site_id, stolen_point_indices)``.
        """
        pos = as_point(position)
        sid = self._n_sites
        if sid == self._alive.size:  # double the site capacity
            self._sxy = np.concatenate((self._sxy, np.empty_like(self._sxy)), axis=1)
            self._alive = np.concatenate((self._alive, np.zeros_like(self._alive)))
        self._sxy[:, sid] = pos
        self._alive[sid] = True
        self._n_sites = sid + 1
        d2 = self._distance2(self._pxy, self._sxy[:, sid])
        stolen = (d2 < self._owner_d2).nonzero()[0]
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
        alive = self.alive_sites()
        alive = alive[alive != site_id]
        if not alive.size:
            raise GeometryError("cannot remove the last alive site")
        self._alive[site_id] = False
        orphans = np.nonzero(self._owner == site_id)[0]
        if orphans.size:
            new = alive[nearest_owner(self._points[orphans], self._sxy[:, alive].T)]
            self._owner[orphans] = new
            self._owner_d2[orphans] = self._distance2(self._pxy[:, orphans], self._sxy[:, new])
        return orphans

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Internal consistency check (used by tests): owners are alive and
        distances are cached correctly; every point's owner is its nearest
        alive site."""
        alive_ids = self.alive_sites()
        expect = alive_ids[nearest_owner(self._points, self._sxy[:, alive_ids].T)]
        expect_d2 = self._distance2(self._pxy, self._sxy[:, expect])
        if not np.allclose(expect_d2, self._owner_d2, rtol=0, atol=1e-9):
            raise GeometryError("owner distance cache is stale")
        # owners must achieve the same (minimal) distance, even if tie-broken
        # differently than the brute-force oracle
        d_owner = self._owner_d2
        if np.any(d_owner > expect_d2 + 1e-9):
            raise GeometryError("a point is owned by a non-nearest site")
        if not self._alive[self._owner].all():
            raise GeometryError("a dead site still owns points")

"""Shared, memoised spatial model of one field approximation.

Every stage of the DECOR pipeline — coverage bookkeeping (§3.2), the benefit
kernel (Eq. 1), the grid/Voronoi decompositions (§3.1), redundancy and
restoration, and the whole figure sweep — operates over *one* fixed
low-discrepancy point set.  The seed code rebuilt KD-trees and ``rs``-radius
adjacencies over those same points in every consumer; :class:`FieldModel`
hoists them into a single lazily built, memoised layer so one model per
(field, seed) serves all six methods and the entire k sweep.

Artifacts and their cache keys:

====================  =======================================  ============
artifact              key                                      counter kind
====================  =======================================  ============
neighbour index       — (one per model)                        ``index``
radius adjacency      ``radius``                               ``adjacency``
grid partition        ``(region, cell_w, cell_h)``             ``partition``
cell assignment       ``(region, cell_w, cell_h)``             ``cells``
points by cell        ``(region, cell_w, cell_h)``             ``points_by_cell``
same-cell adjacency   ``(radius, region, cell_w, cell_h)``     ``same_cell_adjacency``
cells each disc hits  ``(radius, region, cell_w, cell_h)``     ``disk_cells``
dense probe grid      ``(region, resolution)``                 ``probe_grid``
====================  =======================================  ============

Build/hit counters (:attr:`FieldModel.stats`) make the reuse assertable in
tests and visible in ``benchmarks/test_bench_field_model.py``.  Cached
arrays and matrices are shared between consumers and must be treated as
immutable; arrays are returned non-writeable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.checks import CHECKS, freeze_csr
from repro.errors import GeometryError
from repro.field.backends import GridHashBackend, make_backend
from repro.field.csr import Adjacency, sorted_unique
from repro.geometry.grid import GridPartition
from repro.geometry.points import as_points
from repro.geometry.region import Rect

__all__ = [
    "DirtyRegion",
    "FieldModel",
    "FieldModelStats",
    "as_field_model",
    "same_cell_adjacency_of",
]


@dataclass(frozen=True)
class DirtyRegion:
    """A failure footprint: the field points whose coverage a set of failed
    sensors touched.  Produced by :meth:`FieldModel.dirty_region`."""

    points: np.ndarray

    @property
    def n_points(self) -> int:
        return int(self.points.size)


def same_cell_adjacency_of(adjacency: Adjacency, cell_of_point: np.ndarray) -> Adjacency:
    """Filter an adjacency down to pairs lying in the same cell.

    Masks any CSR structure (``shape``, ``indptr``, ``indices``; values are
    not read): entry ``(i, j)`` stays iff ``cell_of_point[i] ==
    cell_of_point[j]``, so symmetry and sorted columns are kept.
    """
    cells = np.asarray(cell_of_point).reshape(-1)
    n = adjacency.shape[0]
    if cells.shape[0] != n:
        raise GeometryError(
            f"cell assignment has {cells.shape[0]} entries for {n} points"
        )
    indptr, indices = adjacency.indptr, adjacency.indices
    rows = np.repeat(np.arange(n, dtype=np.intp), np.diff(indptr))
    keep = cells[rows] == cells[indices]
    kept = np.zeros(indices.size + 1, dtype=np.int32)
    np.cumsum(keep, out=kept[1:])
    return Adjacency(kept[indptr], indices[keep], n)


@dataclass
class FieldModelStats:
    """Build/hit counters per artifact kind (see the module table)."""

    builds: Counter = field(default_factory=Counter)
    hits: Counter = field(default_factory=Counter)

    def build_count(self, kind: str) -> int:
        return int(self.builds[kind])

    def hit_count(self, kind: str) -> int:
        return int(self.hits[kind])

    def reset(self) -> None:
        self.builds.clear()
        self.hits.clear()

    def snapshot(self) -> "FieldModelStats":
        """An independent copy of the current counters.

        Lets callers (the obs bridge, regression tests) measure what *one*
        stretch of work contributed via :meth:`diff`, without resetting the
        live counters that other code may still be accumulating into.
        """
        return FieldModelStats(Counter(self.builds), Counter(self.hits))

    def diff(self, since: "FieldModelStats") -> "FieldModelStats":
        """Counters accrued since ``since`` (an earlier :meth:`snapshot`).

        Negative deltas (``since`` taken from a different model, or after a
        ``reset``) are clamped to zero by ``Counter`` subtraction.
        """
        return FieldModelStats(self.builds - since.builds, self.hits - since.hits)


def _partition_key(region: Rect, cell_width: float, cell_height: float) -> tuple:
    return (
        float(region.x0),
        float(region.y0),
        float(region.x1),
        float(region.y1),
        float(cell_width),
        float(cell_height),
    )


class FieldModel:
    """The ``(n, 2)`` field points plus lazily built, memoised spatial indices.

    Parameters
    ----------
    points:
        ``(n, 2)`` field approximation.  Copied and frozen: the model (and
        everything cached on it) never observes later caller mutations.

    A pickle (every result a pool worker ships back references its model)
    is the points alone: the unpickled model starts with empty caches and
    zeroed :attr:`stats` and rebuilds what it is asked for, as
    :class:`~repro.field.Adjacency` leaves its row cache out of its pickle.

    Examples
    --------
    >>> fm = FieldModel([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
    >>> a = fm.adjacency(2.0)
    >>> fm.adjacency(2.0) is a          # memoised, keyed by radius
    True
    >>> (fm.stats.build_count("adjacency"), fm.stats.hit_count("adjacency"))
    (1, 1)
    """

    def __init__(self, points: np.ndarray) -> None:
        pts = np.array(as_points(points))
        pts.flags.writeable = False
        self._init_state(pts)

    def __getstate__(self) -> np.ndarray:
        # the cached artifacts and build/hit counters are never shipped
        return self._points

    def __setstate__(self, points: np.ndarray) -> None:
        points.flags.writeable = False
        self._init_state(points)

    def _init_state(self, points: np.ndarray) -> None:
        """Shared constructor body; ``points`` is already validated/frozen."""
        self._points = points
        self._index: GridHashBackend | None = None
        self._adjacency: dict[float, Adjacency] = {}
        self._partitions: dict[tuple, GridPartition] = {}
        self._cells: dict[tuple, np.ndarray] = {}
        self._points_by_cell: dict[tuple, list[np.ndarray]] = {}
        self._same_cell: dict[tuple, Adjacency] = {}
        self._disk_cells: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        self._probe_grids: dict[tuple, np.ndarray] = {}
        # artifacts adopted from elsewhere (shared-memory segments posted
        # by repro.parallel.shm); consumed lazily so the build/hit counter
        # stream stays identical to a from-scratch model
        self._preloaded_adjacency: dict[float, Adjacency] = {}
        self._preloaded_cells: dict[tuple, np.ndarray] = {}
        self.stats = FieldModelStats()

    @classmethod
    def from_arrays(
        cls,
        points: np.ndarray,
        *,
        adjacency: dict[float, Adjacency] | None = None,
        cells: dict[tuple, np.ndarray] | None = None,
    ) -> "FieldModel":
        """Wrap existing arrays as a model **without copying them**.

        This is the zero-copy entry point for workers reconstructing a
        model over :mod:`multiprocessing.shared_memory` views
        (:mod:`repro.parallel.shm`): ``points`` is adopted as-is (only a
        read-only view is taken), and pre-built artifacts — the ``rs``
        adjacencies keyed by radius, cell assignments keyed by
        partition key — are stashed and consumed lazily on first request
        instead of being rebuilt.  A consumed preloaded artifact still
        counts as a *build* in :attr:`stats` (and still touches the
        neighbour index exactly like a real build), so the telemetry a
        worker emits is indistinguishable from a from-scratch model's.

        ``points`` must already be a float64 ``(n, 2)`` array; unlike
        ``__init__`` no coercion copy is made, so anything else raises
        :class:`~repro.errors.GeometryError`.
        """
        if (
            not isinstance(points, np.ndarray)
            or points.ndim != 2
            or points.shape[1] != 2
            or points.dtype != np.float64
        ):
            raise GeometryError(
                "from_arrays needs a float64 (n, 2) ndarray; use "
                "FieldModel(...) for coercible inputs"
            )
        view = points.view()
        view.flags.writeable = False
        model = cls.__new__(cls)
        model._init_state(view)
        if adjacency:
            model._preloaded_adjacency.update(
                (float(r), m) for r, m in adjacency.items()
            )
        if cells:
            model._preloaded_cells.update(cells)
        return model

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def points(self) -> np.ndarray:
        """The field points (read-only)."""
        return self._points

    @property
    def n_points(self) -> int:
        return self._points.shape[0]

    def __len__(self) -> int:
        return self._points.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FieldModel(n_points={self.n_points})"

    # ------------------------------------------------------------------
    # neighbour search
    # ------------------------------------------------------------------
    def neighbor_index(self) -> GridHashBackend:
        """The neighbour index over the field points (built once)."""
        if self._index is None:
            self.stats.builds["index"] += 1
            self._index = make_backend(self._points)
        else:
            self.stats.hits["index"] += 1
        return self._index

    def query_ball(self, center: np.ndarray, radius: float) -> np.ndarray:
        """Field-point indices within ``radius`` of ``center`` (closed ball)."""
        return self.neighbor_index().query_ball(center, radius)

    def query_ball_many(self, centers: np.ndarray, radius: float) -> list[np.ndarray]:
        """Ball query for many probe centers at once."""
        return self.neighbor_index().query_ball_many(centers, radius)

    def dirty_region(self, positions: np.ndarray, radius: float) -> DirtyRegion:
        """The failure footprint of sensors at ``positions``.

        Maps a set of failed-sensor positions to the field points whose
        coverage they touched (everything within ``radius`` of any failed
        sensor): the damage a recorded restoration epoch reports in its
        ``fail`` flight event (see
        :class:`repro.core.restoration.RestorationSession`).

        Parameters
        ----------
        positions:
            ``(m, 2)`` failed-sensor positions.
        radius:
            Coverage radius ``rs`` of the failed sensors.
        """
        centers = as_points(positions)
        if centers.shape[0] == 0:
            points = np.empty(0, dtype=np.intp)
        else:
            points = sorted_unique(np.concatenate(self.query_ball_many(centers, radius)))
        return DirtyRegion(points=points)

    def adjacency(self, radius: float) -> Adjacency:
        """Symmetric 0/1 adjacency of field points within ``radius``.

        Diagonal included (a candidate point covers itself), matching
        Eq. (1).  Memoised per radius; treat the returned matrix as
        immutable.
        """
        key = float(radius)
        if key < 0:
            raise GeometryError(f"negative radius {key}")
        if key not in self._adjacency:
            self.stats.builds["adjacency"] += 1
            if key in self._preloaded_adjacency:
                # adopted segment satisfies the build; the index is still
                # touched so the counter stream matches a real build, but
                # the O(n * neighbours) ball-query work is skipped
                self.neighbor_index()
                built = self._preloaded_adjacency.pop(key)
            else:
                built = self.neighbor_index().adjacency(key)
            if CHECKS.enabled:
                # sanitizer: consumers mutating the shared CSR structure
                # fail at the mutation site instead of corrupting peers
                freeze_csr(built)
            self._adjacency[key] = built
        else:
            self.stats.hits["adjacency"] += 1
        return self._adjacency[key]

    # ------------------------------------------------------------------
    # grid decomposition
    # ------------------------------------------------------------------
    def grid_partition(
        self, region: Rect, cell_width: float, cell_height: float | None = None
    ) -> GridPartition:
        """The (memoised) :class:`GridPartition` of ``region``."""
        ch = cell_width if cell_height is None else cell_height
        key = _partition_key(region, cell_width, ch)
        if key not in self._partitions:
            self.stats.builds["partition"] += 1
            self._partitions[key] = GridPartition(region, cell_width, ch)
        else:
            self.stats.hits["partition"] += 1
        return self._partitions[key]

    def cell_of(
        self, region: Rect, cell_width: float, cell_height: float | None = None
    ) -> np.ndarray:
        """Flat cell id of every field point under the given partition."""
        ch = cell_width if cell_height is None else cell_height
        key = _partition_key(region, cell_width, ch)
        if key not in self._cells:
            self.stats.builds["cells"] += 1
            partition = self.grid_partition(region, cell_width, ch)
            cells = self._preloaded_cells.pop(key, None)
            if cells is None:
                cells = partition.cell_of(self._points)
            cells.flags.writeable = False
            self._cells[key] = cells
        else:
            self.stats.hits["cells"] += 1
        return self._cells[key]

    def points_by_cell(
        self, region: Rect, cell_width: float, cell_height: float | None = None
    ) -> list[np.ndarray]:
        """Field-point indices grouped by cell id (shared; do not mutate)."""
        ch = cell_width if cell_height is None else cell_height
        key = _partition_key(region, cell_width, ch)
        if key not in self._points_by_cell:
            self.stats.builds["points_by_cell"] += 1
            partition = self.grid_partition(region, cell_width, ch)
            groups = partition.points_by_cell(self._points)
            for g in groups:
                g.flags.writeable = False
            self._points_by_cell[key] = groups
        else:
            self.stats.hits["points_by_cell"] += 1
        return self._points_by_cell[key]

    def same_cell_adjacency(
        self,
        radius: float,
        region: Rect,
        cell_width: float,
        cell_height: float | None = None,
    ) -> Adjacency:
        """The radius adjacency restricted to same-cell pairs (§3.3).

        This is the grid leader's information horizon: benefit is only
        credited toward points of the leader's own cell.
        """
        ch = cell_width if cell_height is None else cell_height
        key = (float(radius), *_partition_key(region, cell_width, ch))
        if key not in self._same_cell:
            self.stats.builds["same_cell_adjacency"] += 1
            built = same_cell_adjacency_of(
                self.adjacency(radius), self.cell_of(region, cell_width, ch)
            )
            if CHECKS.enabled:
                freeze_csr(built)
            self._same_cell[key] = built
        else:
            self.stats.hits["same_cell_adjacency"] += 1
        return self._same_cell[key]

    def disk_cells(
        self,
        radius: float,
        region: Rect,
        cell_width: float,
        cell_height: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The cells a disc of ``radius`` around each field point reaches,
        as the CSR ``(indptr, cells)`` of
        :meth:`~repro.geometry.grid.GridPartition.cells_intersecting_disks`
        (§3.3's border exchange: a sensor placed at point ``i`` informs the
        leaders of ``cells[indptr[i]:indptr[i + 1]]`` other than its own).
        """
        ch = cell_width if cell_height is None else cell_height
        key = (float(radius), *_partition_key(region, cell_width, ch))
        if key not in self._disk_cells:
            self.stats.builds["disk_cells"] += 1
            # a fresh partition: the memoised one would count a hit here
            partition = GridPartition(region, cell_width, ch)
            built = partition.cells_intersecting_disks(self._points, radius)
            for array in built:
                array.flags.writeable = False
            self._disk_cells[key] = built
        else:
            self.stats.hits["disk_cells"] += 1
        return self._disk_cells[key]

    # ------------------------------------------------------------------
    # dense probes
    # ------------------------------------------------------------------
    def probe_grid(self, region: Rect, resolution: int) -> np.ndarray:
        """``(resolution**2, 2)`` dense grid of probe centers over ``region``.

        Row-major from the bottom-left cell center — the raster layout of
        :func:`repro.analysis.coverage_map.coverage_raster`.  Memoised per
        (region, resolution); returned read-only.
        """
        if resolution < 1:
            raise GeometryError(f"resolution must be >= 1, got {resolution}")
        key = (
            float(region.x0),
            float(region.y0),
            float(region.x1),
            float(region.y1),
            int(resolution),
        )
        if key not in self._probe_grids:
            self.stats.builds["probe_grid"] += 1
            xs = region.x0 + (np.arange(resolution) + 0.5) * region.width / resolution
            ys = region.y0 + (np.arange(resolution) + 0.5) * region.height / resolution
            gx, gy = np.meshgrid(xs, ys)
            probes = np.column_stack([gx.ravel(), gy.ravel()])
            probes.flags.writeable = False
            self._probe_grids[key] = probes
        else:
            self.stats.hits["probe_grid"] += 1
        return self._probe_grids[key]


def as_field_model(field: FieldModel | np.ndarray) -> FieldModel:
    """Coerce points-or-model to a :class:`FieldModel`.

    An existing model passes through untouched (its caches are
    preserved); raw ``(n, 2)`` points get a fresh model.  Every
    consumer funnels through this, so call sites passing plain arrays keep
    working while call sites passing a shared model get the memoisation.
    """
    if isinstance(field, FieldModel):
        return field
    return FieldModel(field)

"""Incremental k-coverage bookkeeping over a field approximation.

The paper replaces the continuous area with a finite low-discrepancy point
set; coverage of the area is then the vector of per-point coverage counts
``k_p`` = number of alive sensors within the sensing radius of point ``p``
(§3.2).  :class:`CoverageState` maintains that vector incrementally: adding
or removing a sensor touches only the points inside its sensing disc, found
with one ball query against the shared :class:`~repro.field.FieldModel` —
never a global recount.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CoverageError, GeometryError
from repro.field import FieldModel, as_field_model
from repro.field.csr import sorted_unique
from repro.geometry.points import as_point

__all__ = ["CoverageState"]


class CoverageState:
    """Per-field-point sensor coverage counts, updated incrementally.

    Parameters
    ----------
    field_points:
        ``(n, 2)`` approximation of the monitored area, or a shared
        :class:`~repro.field.FieldModel` over it (which lets many coverage
        states reuse one neighbour index).
    sensing_radius:
        The sensors' common sensing radius ``rs``.

    Notes
    -----
    Sensors are registered under caller-chosen integer keys (usually
    :class:`~repro.network.deployment.Deployment` node ids).  The state
    remembers which points each key covers so removal is exact.

    Examples
    --------
    >>> cs = CoverageState([[0.0, 0.0], [10.0, 0.0]], sensing_radius=2.0)
    >>> _ = cs.add_sensor(0, [0.5, 0.0])
    >>> cs.counts.tolist()
    [1, 0]
    >>> cs.covered_fraction(k=1)
    0.5
    """

    def __init__(
        self, field_points: np.ndarray | FieldModel, sensing_radius: float
    ):
        self._field = as_field_model(field_points)
        self._points = self._field.points
        if self._points.shape[0] == 0:
            raise GeometryError("the field approximation must be non-empty")
        if sensing_radius <= 0:
            raise GeometryError(f"sensing radius must be positive, got {sensing_radius}")
        self._rs = float(sensing_radius)
        self._counts = np.zeros(self._points.shape[0], dtype=np.int64)
        self._covered_by: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_deployment(
        cls, field_points: np.ndarray | FieldModel, sensing_radius: float, deployment
    ) -> "CoverageState":
        """Coverage state of a deployment's *alive* nodes (keys = node ids)."""
        state = cls(field_points, sensing_radius)
        for nid in deployment.alive_ids():
            state.add_sensor(int(nid), deployment.position_of(int(nid)))
        return state

    @classmethod
    def from_rows(
        cls, field_points: np.ndarray | FieldModel, sensing_radius: float, keys, rows: list
    ) -> "CoverageState":
        """Coverage state where sensor ``keys[i]`` covers field points ``rows[i]``
        (no duplicates): one ``bincount``, no ball queries; rows are adopted as is."""
        state = cls(field_points, sensing_radius)
        keys = np.asarray(keys, dtype=np.intp).reshape(-1).tolist()
        if len(keys) != len(rows) or len(set(keys)) != len(keys):
            raise CoverageError(
                f"need one distinct key per row ({len(keys)} keys, {len(rows)} rows)"
            )
        if rows:
            state._counts += np.bincount(np.concatenate(rows), minlength=state.n_points)
        state._covered_by = dict(zip(keys, rows))
        return state

    # ------------------------------------------------------------------
    # read access
    # ------------------------------------------------------------------
    @property
    def field_points(self) -> np.ndarray:
        view = self._points.view()
        view.flags.writeable = False
        return view

    @property
    def field(self) -> FieldModel:
        """The shared spatial model of the field approximation."""
        return self._field

    @property
    def sensing_radius(self) -> float:
        return self._rs

    @property
    def n_points(self) -> int:
        return self._points.shape[0]

    @property
    def n_sensors(self) -> int:
        return len(self._covered_by)

    @property
    def counts(self) -> np.ndarray:
        """Coverage count ``k_p`` for every field point (read-only view)."""
        view = self._counts.view()
        view.flags.writeable = False
        return view

    def sensor_keys(self) -> list[int]:
        return sorted(self._covered_by)

    def points_covered_by(self, key: int) -> np.ndarray:
        """Field-point indices inside sensor ``key``'s sensing disc."""
        try:
            return self._covered_by[key].copy()
        except KeyError:
            raise CoverageError(f"unknown sensor key {key}") from None

    # ------------------------------------------------------------------
    # coverage queries
    # ------------------------------------------------------------------
    def covered_fraction(self, k: int = 1) -> float:
        """Fraction of field points covered by at least ``k`` sensors."""
        self._check_k(k)
        return float(np.count_nonzero(self._counts >= k)) / self.n_points

    def covered_fraction_without(self, keys, k: int = 1) -> float:
        """:meth:`covered_fraction` as if the sensors ``keys`` had failed
        (the state itself is unchanged)."""
        self._check_k(k)
        counts = self._counts.copy()
        for key in sorted_unique(np.asarray(keys, dtype=np.intp)).tolist():
            counts[self.points_covered_by(key)] -= 1
        return float(np.count_nonzero(counts >= k)) / self.n_points

    def deficient_indices(self, k: int) -> np.ndarray:
        """Indices of points with coverage below ``k`` (the uncovered-region
        representation of §3.2 after point elimination)."""
        self._check_k(k)
        return np.nonzero(self._counts < k)[0]

    def deficiency(self, k: int) -> np.ndarray:
        """``max(k - k_p, 0)`` per point — the weight in the benefit formula."""
        self._check_k(k)
        return np.maximum(k - self._counts, 0)

    def is_fully_covered(self, k: int) -> bool:
        self._check_k(k)
        return bool(np.all(self._counts >= k))

    def min_coverage(self) -> int:
        """The smallest per-point count (the field's weakest spot)."""
        return int(self._counts.min())

    def coverage_histogram(self, max_k: int | None = None) -> np.ndarray:
        """``hist[j]`` = number of points covered exactly ``j`` times
        (counts above ``max_k`` clamp into the last bin when given)."""
        counts = self._counts
        if max_k is not None:
            counts = np.minimum(counts, max_k)
        return np.bincount(counts)

    @staticmethod
    def _check_k(k: int) -> None:
        if k < 1:
            raise CoverageError(f"coverage requirement k must be >= 1, got {k}")

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_sensor(self, key: int, position: np.ndarray) -> np.ndarray:
        """Register a sensor; returns the point indices it covers."""
        if key in self._covered_by:
            raise CoverageError(f"sensor key {key} already registered")
        pos = as_point(position)
        covered = self._field.query_ball(pos, self._rs)
        self._counts[covered] += 1
        self._covered_by[key] = covered
        return covered.copy()

    def add_sensor_with_cover(self, key: int, covered: np.ndarray) -> None:
        """Register a sensor with an externally computed cover set.

        For heterogeneous fleets the covering radius varies per sensor; the
        caller (e.g. :mod:`repro.core.mixed`) supplies the exact field-point
        indices the sensor covers.  Bookkeeping (counts, removal) behaves
        exactly as for :meth:`add_sensor`.
        """
        if key in self._covered_by:
            raise CoverageError(f"sensor key {key} already registered")
        cov = np.asarray(covered, dtype=np.intp).reshape(-1)
        if cov.size and (cov.min() < 0 or cov.max() >= self.n_points):
            raise CoverageError("cover set references unknown field points")
        if len(np.unique(cov)) != cov.size:
            raise CoverageError("cover set contains duplicate points")
        self._counts[cov] += 1
        self._covered_by[key] = cov

    def remove_sensor(self, key: int) -> np.ndarray:
        """Unregister a sensor (failure); returns the points it covered."""
        try:
            covered = self._covered_by.pop(key)
        except KeyError:
            raise CoverageError(f"unknown sensor key {key}") from None
        self._counts[covered] -= 1
        return covered.copy()

    def remove_sensors(self, keys) -> None:
        """Unregister several sensors at once."""
        for key in keys:
            self.remove_sensor(int(key))

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def recomputed_counts(self) -> np.ndarray:
        """Counts recomputed from scratch (O(sensors) ball queries).

        Tests assert this equals :attr:`counts` after arbitrary add/remove
        interleavings — the incremental-equals-batch invariant.
        """
        fresh = np.zeros(self.n_points, dtype=np.int64)
        for covered in self._covered_by.values():
            fresh[covered] += 1
        return fresh

    def validate(self) -> None:
        """Raise :class:`CoverageError` if the incremental counts drifted."""
        if not np.array_equal(self._counts, self.recomputed_counts()):
            raise CoverageError("incremental coverage counts are inconsistent")

"""Incremental k-coverage bookkeeping over a field approximation.

The paper replaces the continuous area with a finite low-discrepancy point
set; coverage of the area is then the vector of per-point coverage counts
``k_p`` = number of alive sensors within the sensing radius of point ``p``
(§3.2).  :class:`CoverageState` maintains that vector incrementally: adding
or removing a sensor moves only the counts of the points inside its sensing
disc, found with one ball query against the shared
:class:`~repro.field.FieldModel` — never a global recount.
"""

from __future__ import annotations

import operator

import numpy as np

from repro.errors import CoverageError, GeometryError
from repro.field import FieldModel, as_field_model
from repro.field.csr import sorted_unique
from repro.geometry.points import as_point

__all__ = ["CoverageState"]


def _take_rows(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of the CSR rows ``rows``, in that order."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    out = np.concatenate(([0], np.cumsum(lengths)))
    # entry j of new row r is old entry starts[r] + j
    taken = np.repeat(starts - out[:-1], lengths) + np.arange(out[-1])
    return out, indices[taken]


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
    remembers which points each key covers so removal is exact.  These
    rows are one CSR next to the counts: the sorted keys, ``indptr`` and
    int32 ``indices``, as in :class:`~repro.field.Adjacency` (key
    ``keys[i]`` covers ``indices[indptr[i]:indptr[i + 1]]``).  A key is
    found by binary search, and a mutation rebuilds the CSR in
    O(entries).  The state is a handful of flat arrays, so a pickled
    result (what a pool worker ships back) holds no per-sensor object.

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
        self._keys = np.empty(0, dtype=np.intp)
        self._indptr = np.zeros(1, dtype=np.intp)
        self._indices = np.empty(0, dtype=np.int32)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_deployment(
        cls, field_points: np.ndarray | FieldModel, sensing_radius: float, deployment
    ) -> "CoverageState":
        """Coverage state of a deployment's *alive* nodes (keys = node ids),
        from one batched ball query."""
        state = cls(field_points, sensing_radius)
        ids = deployment.alive_ids()
        if ids.size:
            positions = deployment.alive_positions()
            state._adopt(ids, state._field.query_ball_many(positions, state._rs))
        return state

    @classmethod
    def from_rows(
        cls, field_points: np.ndarray | FieldModel, sensing_radius: float, keys, rows: list
    ) -> "CoverageState":
        """Coverage state where sensor ``keys[i]`` covers field points ``rows[i]``
        (no duplicates): one ``bincount``, no ball queries; the rows'
        concatenation becomes the CSR (reordered only if ``keys`` is not
        ascending)."""
        state = cls(field_points, sensing_radius)
        state._adopt(keys, rows)
        return state

    def _adopt(self, keys, rows: list) -> None:
        """Take ``keys``/``rows`` as the (so far empty) state's sensors."""
        keys = np.asarray(keys, dtype=np.intp).reshape(-1)
        lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        order = None
        if keys.size > 1 and not (keys[1:] > keys[:-1]).all():
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
        if keys.size != len(rows) or (keys[1:] == keys[:-1]).any():
            raise CoverageError(
                f"need one distinct key per row ({keys.size} keys, {len(rows)} rows)"
            )
        indices = np.concatenate(rows, dtype=np.int32) if rows else self._indices
        self._counts += np.bincount(indices, minlength=self.n_points)
        if order is not None:
            indptr, indices = _take_rows(indptr, indices, order)
        self._keys, self._indptr, self._indices = keys, indptr, indices

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
        return int(self._keys.size)

    @property
    def counts(self) -> np.ndarray:
        """Coverage count ``k_p`` for every field point (read-only view)."""
        view = self._counts.view()
        view.flags.writeable = False
        return view

    def sensor_keys(self) -> list[int]:
        return self._keys.tolist()

    def points_covered_by(self, key: int) -> np.ndarray:
        """Field-point indices inside sensor ``key``'s sensing disc."""
        i = self._row_of(key)
        return self._indices[self._indptr[i]:self._indptr[i + 1]].astype(np.intp)

    def points_covered_by_many(self, keys) -> list[np.ndarray]:
        """:meth:`points_covered_by` for each of ``keys``, from one gather
        (the per-key loops of the redundancy and survival analyses)."""
        indptr, indices = _take_rows(
            self._indptr, self._indices, self._rows_of(np.asarray(keys).reshape(-1))
        )
        indices = indices.astype(np.intp)
        bounds = indptr.tolist()
        return [indices[a:b] for a, b in zip(bounds[:-1], bounds[1:])]

    def _row_of(self, key: int) -> int:
        """Row position of ``key`` (:class:`CoverageError` if unknown)."""
        i = int(self._keys.searchsorted(key))
        if i == self._keys.size or self._keys[i] != key:
            raise CoverageError(f"unknown sensor key {key}")
        return i

    def _rows_of(self, keys: np.ndarray) -> np.ndarray:
        """:meth:`_row_of` for an array of keys (an unknown key raises,
        naming the first one)."""
        rows = np.searchsorted(self._keys, keys)
        known = rows < self._keys.size
        known[known] = self._keys[rows[known]] == keys[known]
        if not known.all():
            raise CoverageError(f"unknown sensor key {keys[~known][0]}")
        return rows

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
        rows = self._rows_of(sorted_unique(np.asarray(keys, dtype=np.intp).reshape(-1)))
        _, lost = _take_rows(self._indptr, self._indices, rows)
        counts = self._counts - np.bincount(lost, minlength=self.n_points)
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
        covered = self._field.query_ball(as_point(position), self._rs)
        self._insert(key, covered)
        return covered.copy()

    def add_sensor_with_cover(self, key: int, covered: np.ndarray) -> None:
        """Register a sensor with an externally computed cover set.

        For heterogeneous fleets the covering radius varies per sensor; the
        caller (e.g. :mod:`repro.core.mixed`) supplies the exact field-point
        indices the sensor covers.  Bookkeeping (counts, removal) behaves
        exactly as for :meth:`add_sensor`.
        """
        cov = np.asarray(covered, dtype=np.intp).reshape(-1)
        if cov.size and (cov.min() < 0 or cov.max() >= self.n_points):
            raise CoverageError("cover set references unknown field points")
        if sorted_unique(cov).size != cov.size:
            raise CoverageError("cover set contains duplicate points")
        self._insert(key, cov)

    def _insert(self, key: int, covered: np.ndarray) -> None:
        """Register the integer ``key`` with row ``covered`` (distinct points)."""
        slot = int(np.searchsorted(self._keys, operator.index(key)))
        if slot < self._keys.size and self._keys[slot] == key:
            raise CoverageError(f"sensor key {key} already registered")
        start = self._indptr[slot]
        self._keys = np.concatenate((self._keys[:slot], [key], self._keys[slot:]))
        self._indptr = np.concatenate(
            (self._indptr[:slot + 1], self._indptr[slot:] + covered.size)
        )
        self._indices = np.concatenate(
            (self._indices[:start], covered, self._indices[start:]), dtype=np.int32
        )
        self._counts[covered] += 1

    def remove_sensor(self, key: int) -> np.ndarray:
        """Unregister a sensor (failure); returns the points it covered."""
        return self._drop(np.array([self._row_of(key)])).astype(np.intp)

    def remove_sensors(self, keys) -> None:
        """Unregister several sensors at once.  An unknown or repeated key
        raises :class:`CoverageError` before any sensor is removed."""
        keys = np.asarray(keys, dtype=np.intp).reshape(-1)
        rows = self._rows_of(keys)
        if sorted_unique(rows).size != rows.size:
            raise CoverageError("removing the same sensor key more than once")
        self._drop(rows)

    def _drop(self, rows: np.ndarray) -> np.ndarray:
        """Unregister the sensors at (distinct) row positions ``rows``;
        returns the points they covered, row after row."""
        keep = np.ones(self._keys.size, dtype=bool)
        keep[rows] = False
        kept = np.flatnonzero(keep)
        _, lost = _take_rows(self._indptr, self._indices, rows)
        self._counts -= np.bincount(lost, minlength=self.n_points)
        self._indptr, self._indices = _take_rows(self._indptr, self._indices, kept)
        self._keys = self._keys[kept]
        return lost

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def recomputed_counts(self) -> np.ndarray:
        """Counts recomputed from the stored rows (one ``bincount``).

        Tests assert this equals :attr:`counts` after arbitrary add/remove
        interleavings — the incremental-equals-batch invariant.
        """
        return np.bincount(self._indices, minlength=self.n_points).astype(np.int64)

    def validate(self) -> None:
        """Raise :class:`CoverageError` if the incremental counts drifted."""
        if not np.array_equal(self._counts, self.recomputed_counts()):
            raise CoverageError("incremental coverage counts are inconsistent")

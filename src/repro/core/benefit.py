"""Sparse incremental implementation of the DECOR benefit function.

The paper's Eq. (1) scores a candidate location ``p`` by::

    b(p) = sum over p' with d(p', p) <= rs  of  max(k - k_{p'}, 0)

Candidates are the field points themselves, so with ``A`` the 0/1 adjacency
of field points within ``rs`` (diagonal included) and ``d`` the deficiency
vector ``max(k - counts, 0)``, the whole benefit vector is the sparse
mat-vec ``b = A_benefit @ d``.

The hot loop never recomputes that product.  Placing a node at point ``i``
covers the points in row ``i`` of the *coverage* adjacency; only the covered
points that were still deficient lose one unit of deficiency, and each such
point subtracts 1 from the benefit of its own benefit-row — a handful of
scattered updates per placement instead of an O(nnz) recompute (the
"vectorise + update in place" guidance; the ablation benchmark
``bench_ablation_kernel`` measures the gap against the naive recompute).

The two adjacencies are distinguished because the distributed variants
restrict *benefit knowledge* but not physics: a node always covers every
field point within ``rs`` (coverage adjacency = full), but a grid leader
only credits points of its own cell (benefit adjacency = same-cell pairs).
"""

from __future__ import annotations

import numpy as np

from repro.errors import CoverageError, PlacementError
from repro.field import Adjacency, FieldModel, as_field_model
from repro.field.csr import sorted_unique
from repro.field.model import same_cell_adjacency_of
from repro.geometry.points import as_point, read_only
from repro.network.coverage import CoverageState
from repro.obs import OBS

__all__ = ["BenefitEngine", "same_cell_benefit_adjacency"]


def _is_symmetric(matrix: Adjacency) -> bool:
    """Whether a CSR structure equals its transpose: the sorted distinct
    keys ``row * n + col`` of its entries and of their mirrors agree.
    Only ``shape``, ``indptr`` and ``indices`` are read, so any CSR
    matrix works.

    >>> _is_symmetric(Adjacency.from_keys(np.array([1, 2]), 2))  # (0,1), (1,0)
    True
    >>> _is_symmetric(Adjacency.from_keys(np.array([1]), 2))     # (0,1) only
    False
    """
    n, m = matrix.shape
    if n != m:
        return False
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(matrix.indptr))
    cols = np.asarray(matrix.indices, dtype=np.int64)
    return bool(
        np.array_equal(sorted_unique(rows * n + cols), sorted_unique(cols * n + rows))
    )


#: Filter an adjacency to same-cell pairs: the grid leader's information
#: horizon, crediting benefit only toward points of its own cell (§3.3).
#: Prefer the memoised :meth:`repro.field.FieldModel.same_cell_adjacency`.
same_cell_benefit_adjacency = same_cell_adjacency_of


class BenefitEngine:
    """Incrementally maintained coverage counts and benefit vector.

    Parameters
    ----------
    field_points:
        ``(n, 2)`` field approximation (candidates are exactly these
        points), or a shared :class:`~repro.field.FieldModel` over it —
        engines built on the same model reuse one cached ``rs`` adjacency
        and neighbour index instead of rebuilding them.
    sensing_radius:
        ``rs``.
    k:
        Coverage requirement.
    initial_counts:
        Optional starting coverage counts (e.g. from surviving sensors).
    benefit_adjacency:
        Optional adjacency replacing the full adjacency in the benefit sum
        (see :func:`same_cell_benefit_adjacency`): an
        :class:`~repro.field.Adjacency`, symmetric and with the same shape
        as the coverage adjacency.
    benefit_mode:
        ``"deficiency"`` (paper Eq. 1: weight ``max(k - k_p, 0)``) or
        ``"binary"`` (weight 1 for any still-deficient point) — the ablation
        of the deficiency weighting (DESIGN.md §6.3).

    The engine records each accounted sensor's covered-point row, in call
    order: the rows become the result's coverage (:meth:`coverage_state`)
    and let a failure undo exactly the failed rows (:meth:`remove_rows`),
    which keeps a restoration session's engine warm across epochs.  It also
    keeps a running count of k-covered points, so :meth:`is_fully_covered`
    and :meth:`covered_fraction` (without ``k``) cost O(1) per placement.
    While :data:`~repro.obs.OBS` records, :attr:`delta_updates` counts the
    benefit entries the deltas move; the run that owns the engine
    publishes it once as ``benefit_delta_updates_total``.

    Examples
    --------
    >>> import numpy as np
    >>> eng = BenefitEngine(np.array([[0.0, 0.0], [1.0, 0.0], [9.0, 0.0]]),
    ...                     sensing_radius=2.0, k=1)
    >>> eng.benefit.tolist()          # points 0,1 are mutual neighbours
    [2.0, 2.0, 1.0]
    >>> int(eng.argmax())
    0
    >>> _ = eng.place_at(0)
    >>> eng.benefit.tolist()          # only the far point still deficient
    [0.0, 0.0, 1.0]
    """

    def __init__(
        self,
        field_points: np.ndarray | FieldModel,
        sensing_radius: float,
        k: int | np.ndarray,
        *,
        initial_counts: np.ndarray | None = None,
        benefit_adjacency: Adjacency | None = None,
        benefit_mode: str = "deficiency",
    ):
        with OBS.span("benefit-init"):
            if benefit_mode not in ("deficiency", "binary"):
                raise CoverageError(
                    f"benefit_mode must be 'deficiency' or 'binary', got {benefit_mode!r}"
                )
            self._mode = benefit_mode
            self._rows: list[np.ndarray] = []
            self._field = as_field_model(field_points)
            self._points = self._field.points
            self._rs = float(sensing_radius)
            n = self._points.shape[0]
            # k may be a scalar (the paper's uniform requirement) or a per-point
            # array (differentiated reliability zones); stored as an array, with
            # the scalar remembered for the .k property
            k_arr = np.asarray(k, dtype=np.int64)
            if k_arr.ndim == 0:
                if int(k_arr) < 1:
                    raise CoverageError(
                        f"coverage requirement k must be >= 1, got {int(k_arr)}"
                    )
                self._k_scalar: int | None = int(k_arr)
                self._karr = np.full(n, int(k_arr), dtype=np.int64)
            else:
                if k_arr.shape != (n,):
                    raise CoverageError(
                        f"per-point k must have shape ({n},), got {k_arr.shape}"
                    )
                if k_arr.min(initial=0) < 0:
                    raise CoverageError("per-point k must be non-negative")
                if not np.any(k_arr >= 1):
                    raise CoverageError("at least one point must require coverage")
                self._k_scalar = None
                self._karr = k_arr.copy()
            self._cov = self._field.adjacency(self._rs)
            if benefit_adjacency is None:
                self._ben = self._cov
            else:
                self._ben = self._validated_benefit_adjacency(benefit_adjacency, n)
            self._cov_rows = self._cov.rows()
            self._ben_rows = self._ben.rows()
            if initial_counts is None:
                self._counts = np.zeros(n, dtype=np.int64)
            else:
                counts = np.asarray(initial_counts, dtype=np.int64)
                if counts.shape != (n,) or counts.min(initial=0) < 0:
                    raise CoverageError("invalid initial counts")
                self._counts = counts.copy()
            self._n_kcovered = int(np.count_nonzero(self._counts >= self._karr))
            self._benefit = self._ben @ self._weights(self._counts, self._karr)
            # both arrays only ever change in place, so one read-only view
            # of each stays current
            self._counts_view = read_only(self._counts)
            self._benefit_view = read_only(self._benefit)
            #: Benefit entries moved while recording, not yet published.
            self.delta_updates = 0

    @staticmethod
    def _validated_benefit_adjacency(ben: Adjacency, n: int) -> Adjacency:
        """Check a caller-supplied benefit adjacency once, at the boundary.
        Only an :class:`~repro.field.Adjacency` is taken: it stores no
        values, so each entry counts once, as the incremental update (one
        unit of benefit per entry) needs to stay equal to Eq. 1."""
        if not isinstance(ben, Adjacency):
            raise CoverageError(
                f"benefit_adjacency must be an Adjacency, got {type(ben).__name__}"
            )
        if ben.shape != (n, n):
            raise CoverageError(
                f"benefit adjacency shape {ben.shape} != ({n}, {n}); it must "
                "match the coverage adjacency over the field points"
            )
        if not _is_symmetric(ben):
            raise CoverageError(
                "benefit adjacency must be symmetric (the benefit sum of "
                "Eq. 1 is over an undirected neighbourhood); see "
                "same_cell_benefit_adjacency for a valid construction"
            )
        return ben

    def _weights(self, counts: np.ndarray, need: np.ndarray | int) -> np.ndarray:
        """Weight in the benefit sum of points with ``counts`` and
        requirement ``need``, by mode."""
        if self._mode == "binary":
            return (counts < need).astype(np.float64)
        return np.maximum(need - counts, 0).astype(np.float64)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        """The uniform coverage requirement (raises for per-point k)."""
        if self._k_scalar is None:
            raise CoverageError(
                "this engine uses a per-point requirement; see .k_per_point"
            )
        return self._k_scalar

    @property
    def k_per_point(self) -> np.ndarray:
        """The per-point coverage requirement vector (read-only view)."""
        return read_only(self._karr)

    @property
    def n_points(self) -> int:
        return self._points.shape[0]

    @property
    def counts(self) -> np.ndarray:
        """Current coverage count of each field point (read-only)."""
        return self._counts_view

    @property
    def benefit(self) -> np.ndarray:
        """Current benefit of placing a sensor at each field point (read-only)."""
        return self._benefit_view

    @property
    def coverage_adjacency(self) -> Adjacency:
        return self._cov

    @property
    def benefit_adjacency(self) -> Adjacency:
        """The adjacency used in the benefit sum (== coverage adjacency
        unless a restricted one, e.g. same-cell, was supplied)."""
        return self._ben

    @property
    def sensing_radius(self) -> float:
        return self._rs

    @property
    def benefit_mode(self) -> str:
        return self._mode

    @property
    def field(self) -> FieldModel:
        """The shared spatial model of the field approximation."""
        return self._field

    def deficiency(self) -> np.ndarray:
        return np.maximum(self._karr - self._counts, 0)

    def total_deficiency(self) -> int:
        return int(self.deficiency().sum())

    @property
    def n_kcovered(self) -> int:
        """Number of field points currently meeting their requirement."""
        return self._n_kcovered

    def is_fully_covered(self) -> bool:
        return self._n_kcovered == self.n_points

    def deficient_indices(self) -> np.ndarray:
        return np.nonzero(self._counts < self._karr)[0]

    def covered_fraction(self, k: int | None = None) -> float:
        if k is None:
            return self._n_kcovered / self.n_points
        return float(np.count_nonzero(self._counts >= k)) / self.n_points

    # ------------------------------------------------------------------
    # selection
    # ------------------------------------------------------------------
    def argmax(self, candidates: np.ndarray | None = None) -> int:
        """Field-point index of maximum benefit.

        ``candidates`` optionally restricts the search to an index subset (a
        leader's own cell, a node's Voronoi cell).  Ties break toward the
        lowest index, deterministically — candidate sets are sorted before
        the search so an unsorted input cannot skew the tie-break.
        """
        if candidates is None:
            return int(np.argmax(self._benefit))
        cand = np.asarray(candidates, dtype=np.intp)
        if cand.size == 0:
            raise PlacementError("argmax over an empty candidate set")
        if cand.size > 1 and np.any(cand[1:] < cand[:-1]):
            # the lowest-index tie-break contract requires a sorted slice
            cand = np.sort(cand)
        return int(cand[np.argmax(self._benefit[cand])])

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def _apply_delta(self, covered: np.ndarray) -> None:
        """Count one more sensor on ``covered`` (distinct points); the
        benefit rows of the points whose weight dropped lose one unit each
        (the single-placement path; :meth:`_apply_rows` does the rest)."""
        counts = self._counts
        before = counts[covered]
        need = self._karr[covered] if self._k_scalar is None else self._k_scalar
        # points crossing into k-covered; binary weights drop 1 -> 0 there
        crossing = before == need - 1
        counts[covered] = before + 1
        self._n_kcovered += int(np.count_nonzero(crossing))
        changed = covered[crossing if self._mode == "binary" else before < need]
        if changed.size:
            self._move_benefit(changed, -1.0)

    def _apply_rows(self, rows: list[np.ndarray], sign: int) -> np.ndarray:
        """Apply several sensors' +-1 coverage rows as one delta; returns
        the sorted distinct points they cover.

        The rows are sorted into distinct points with multiplicities, so
        each point's count moves once, from ``before`` to ``after``, and the
        benefit moves by ``A_ben @ (w(after) - w(before))`` in one weighted
        add.  That equals applying the rows one by one bit for bit: every
        weight and benefit value is an integer-valued float64 far below
        2**53, so each addition is exact in any order.  Nothing is mutated
        when a count would become negative.
        """
        pts = np.sort(np.concatenate(rows))
        if pts.size == 0:
            return pts
        first = np.flatnonzero(np.concatenate(([True], pts[1:] != pts[:-1])))
        mult = np.diff(first, append=pts.size)
        pts = pts[first]
        before = self._counts[pts]
        after = before + mult if sign == +1 else before - mult
        if sign == -1 and after.min() < 0:
            raise CoverageError("coverage count would become negative")
        need = self._karr[pts] if self._k_scalar is None else self._k_scalar
        self._n_kcovered += int(np.count_nonzero(after >= need)) - int(
            np.count_nonzero(before >= need)
        )
        self._counts[pts] = after
        delta = self._weights(after, need) - self._weights(before, need)
        moved = delta.nonzero()[0]
        if moved.size:
            changed = pts[moved]
            indptr = self._ben.indptr
            self._move_benefit(changed, delta[moved].repeat(indptr[changed + 1] - indptr[changed]))
        return pts

    def _move_benefit(self, changed: np.ndarray, weights: np.ndarray | float) -> None:
        """Add ``weights`` (a scalar, or one value per entry) to the benefit
        of every point in the benefit rows of ``changed``."""
        ben_rows = self._ben_rows
        touched = np.concatenate([ben_rows[i] for i in changed.tolist()])
        np.add.at(self._benefit, touched, weights)
        if OBS.enabled:
            self.delta_updates += touched.size

    def place_at(self, point_index: int) -> np.ndarray:
        """Place a sensor at field point ``point_index``; returns the covered
        indices (the adjacency's read-only row, shared, not copied)."""
        if not (0 <= point_index < self.n_points):
            raise PlacementError(f"point index {point_index} out of range")
        covered = self._cov_rows[point_index]
        self._apply_delta(covered)
        self._rows.append(covered)
        return covered

    def add_sensor_at_position(
        self, position: np.ndarray, *, covered: np.ndarray | None = None
    ) -> np.ndarray:
        """Account for a sensor at an arbitrary position (initial deployment).

        ``covered`` optionally supplies the sensor's ball query, i.e. the
        field points within ``rs`` of ``position`` (callers placing many
        sensors query them in one batch).  It must equal that query up to
        order: rows are index sets (grid-hash rows come back cell by cell,
        batch kd-tree rows sorted, single-point ones in tree order) and
        nothing downstream depends on their order.  ``REPRO_CHECKS=1``
        compares the result's rows with a recount.

        Returns the covered field-point indices (keep them if the sensor may
        later fail, for :meth:`remove_covered`).
        """
        if covered is None:
            covered = self._field.query_ball(as_point(position), self._rs)
        covered = np.asarray(covered, dtype=np.intp)
        self._apply_delta(covered)
        self._rows.append(covered)
        return covered

    def add_sensors(self, positions: np.ndarray) -> None:
        """:meth:`add_sensor_at_position` for each of ``positions``, with
        one batched ball query and one multi-row delta."""
        rows = [
            np.asarray(row, dtype=np.intp)
            for row in self._field.query_ball_many(positions, self._rs)
        ]
        if rows:
            self._apply_rows(rows, +1)
            self._rows.extend(rows)

    def remove_covered(self, covered: np.ndarray) -> None:
        """Undo a sensor's coverage given the point list it covered (its
        recorded row stays; such callers keep their own bookkeeping)."""
        self._apply_rows([np.asarray(covered, dtype=np.intp)], -1)

    # ------------------------------------------------------------------
    # per-sensor rows (result coverage, warm restoration)
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        """Number of recorded sensor rows (== sensors currently accounted)."""
        return len(self._rows)

    def coverage_state(self, keys: np.ndarray) -> CoverageState:
        """The accounted sensors' coverage, row ``i`` keyed ``keys[i]`` (the
        state keeps one concatenated copy of the rows; no ball query is
        made)."""
        return CoverageState.from_rows(self._field, self._rs, keys, self._rows)

    def remove_rows(self, row_indices: np.ndarray) -> np.ndarray:
        """Apply a failure: undo exactly the given sensors' coverage rows.

        ``row_indices`` name sensors in accounting order — under a
        :class:`~repro.core.restoration.RestorationSession` row ``i`` is
        the ``i``-th alive node of the deployment, so a
        :class:`~repro.network.failures.FailureEvent` maps 1:1 onto rows.
        The surviving rows are compacted (keeping their relative order) so
        they again line up with the survivors' new 0-based ids.

        The rows are undone as one delta, checked before anything
        changes: a row whose coverage is no longer counted (undone by
        :meth:`remove_covered`) raises :class:`CoverageError` and leaves
        the engine as it was.

        Returns the failure's coverage footprint: the sorted unique field
        points that lost at least one unit of coverage.
        """
        idx = np.asarray(row_indices, dtype=np.intp)
        if idx.size == 0:
            return np.empty(0, dtype=np.intp)
        if idx.min() < 0 or idx.max() >= len(self._rows):
            raise CoverageError(
                f"row indices out of range [0, {len(self._rows)})"
            )
        if sorted_unique(idx).size != idx.size:
            raise CoverageError("duplicate row indices in remove_rows")
        failed = idx.tolist()
        rows = self._rows
        footprint = self._apply_rows([rows[i] for i in failed], -1)
        gone = set(failed)
        self._rows = [row for i, row in enumerate(rows) if i not in gone]
        return footprint

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def recomputed_benefit(self) -> np.ndarray:
        """Benefit recomputed from scratch (tests: incremental == batch)."""
        return self._ben @ self._weights(self._counts, self._karr)

    def validate(self) -> None:
        if not np.allclose(self._benefit, self.recomputed_benefit()):
            raise CoverageError("incremental benefit vector is inconsistent")

"""Tests for the benefit engine — the paper's Eq. (1) and its incremental
maintenance."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BenefitEngine
from repro.core.benefit import same_cell_benefit_adjacency
from repro.errors import CoverageError, PlacementError
from repro.field import Adjacency
from repro.geometry import GridPartition, Rect


@pytest.fixture
def line_engine() -> BenefitEngine:
    """Points at x = 0, 1, 9; rs = 2; k = 1."""
    return BenefitEngine(
        np.array([[0.0, 0.0], [1.0, 0.0], [9.0, 0.0]]), sensing_radius=2.0, k=1
    )


class TestInitialBenefit:
    def test_eq1_by_hand(self, line_engine):
        """b(p) = sum of deficiencies within rs: points 0, 1 see each other."""
        assert line_engine.benefit.tolist() == [2.0, 2.0, 1.0]

    def test_k_scales_deficiency(self):
        eng = BenefitEngine(np.array([[0.0, 0.0], [1.0, 0.0]]), 2.0, k=3)
        assert eng.benefit.tolist() == [6.0, 6.0]

    def test_initial_counts_respected(self):
        eng = BenefitEngine(
            np.array([[0.0, 0.0], [5.0, 0.0]]),
            2.0,
            k=2,
            initial_counts=np.array([1, 0]),
        )
        assert eng.benefit.tolist() == [1.0, 2.0]

    def test_bad_k(self):
        with pytest.raises(CoverageError):
            BenefitEngine(np.array([[0.0, 0.0]]), 1.0, k=0)

    def test_bad_initial_counts(self):
        with pytest.raises(CoverageError):
            BenefitEngine(
                np.array([[0.0, 0.0]]), 1.0, k=1, initial_counts=np.array([-1])
            )


class TestPlacement:
    def test_place_covers_and_updates(self, line_engine):
        covered = line_engine.place_at(0)
        assert sorted(covered) == [0, 1]
        assert line_engine.counts.tolist() == [1, 1, 0]
        assert line_engine.benefit.tolist() == [0.0, 0.0, 1.0]

    def test_saturated_points_stop_contributing(self):
        eng = BenefitEngine(np.array([[0.0, 0.0], [1.0, 0.0]]), 2.0, k=2)
        eng.place_at(0)
        assert eng.benefit.tolist() == [2.0, 2.0]
        eng.place_at(1)
        assert eng.benefit.tolist() == [0.0, 0.0]
        eng.place_at(0)  # over-covering changes nothing in the benefit
        assert eng.benefit.tolist() == [0.0, 0.0]

    def test_argmax_global_and_restricted(self, line_engine):
        assert line_engine.argmax() == 0  # tie 0/1 breaks low
        assert line_engine.argmax(candidates=np.array([2])) == 2

    def test_argmax_empty_candidates(self, line_engine):
        with pytest.raises(PlacementError):
            line_engine.argmax(candidates=np.array([], dtype=np.intp))

    def test_place_out_of_range(self, line_engine):
        with pytest.raises(PlacementError):
            line_engine.place_at(17)

    def test_is_fully_covered_transition(self, line_engine):
        assert not line_engine.is_fully_covered()
        line_engine.place_at(0)
        line_engine.place_at(2)
        assert line_engine.is_fully_covered()
        assert line_engine.total_deficiency() == 0


class TestExternalSensors:
    def test_off_grid_position(self, line_engine):
        covered = line_engine.add_sensor_at_position([0.5, 0.0])
        assert sorted(covered) == [0, 1]
        line_engine.validate()

    def test_remove_covered_roundtrip(self, line_engine):
        covered = line_engine.add_sensor_at_position([0.5, 0.0])
        line_engine.remove_covered(covered)
        assert line_engine.counts.tolist() == [0, 0, 0]
        line_engine.validate()

    def test_remove_below_zero_rejected(self, line_engine):
        with pytest.raises(CoverageError):
            line_engine.remove_covered(np.array([0]))


class TestRestrictedBenefitAdjacency:
    def test_same_cell_filter(self):
        region = Rect.square(10.0)
        pts = np.array([[1.0, 1.0], [4.0, 1.0], [6.0, 1.0]])  # cells 0, 0, 1
        partition = GridPartition.square_cells(region, 5.0)
        # keys row * 3 + col: the diagonal, (0, 1) at exactly rs and (1, 2)
        cov = Adjacency.from_keys(np.array([0, 1, 3, 4, 5, 7, 8]), 3)
        ben = same_cell_benefit_adjacency(cov, partition.cell_of(pts))
        eng = BenefitEngine(pts, 3.0, k=1, benefit_adjacency=ben)
        # point 1 is within rs of point 2 but they are in different cells:
        # its benefit only counts itself and point 0
        assert eng.benefit.tolist() == [2.0, 2.0, 1.0]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(CoverageError):
            BenefitEngine(
                np.array([[0.0, 0.0]]),
                1.0,
                k=1,
                benefit_adjacency=Adjacency.from_keys(np.array([0, 4, 8]), 3),
            )

    @pytest.mark.parametrize("stored", ["twos", "explicit-zeros"])
    def test_values_other_than_one_rejected(self, stored):
        """The incremental update moves benefit by one unit per stored
        entry, so a stored 2 or an explicit 0 would let it drift from the
        Eq. 1 mat-vec: only a value-free ``Adjacency`` is taken, and a
        scipy matrix is rejected at construction, whatever it stores."""
        from scipy import sparse

        pts = np.array([[0.0, 0.0], [1.0, 0.0], [9.0, 0.0]])
        if stored == "twos":
            ben = sparse.csr_matrix(2.0 * np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]]))
        else:
            ben = sparse.csr_matrix(
                (np.array([0.0, 0.0, 1.0, 1.0, 1.0]),
                 (np.array([0, 1, 0, 1, 2]), np.array([1, 0, 0, 1, 2]))),
                shape=(3, 3),
            )
            assert ben.nnz == 5  # the zeros are stored
        with pytest.raises(CoverageError, match="must be an Adjacency"):
            BenefitEngine(pts, 2.0, k=1, benefit_adjacency=ben)


def _dense_eq1(points, sensors, rs, need, mode):
    """Counts and Eq. 1 benefit from plain pairwise distances, sharing no
    code with the engine: ``sensors`` are the positions still accounted."""
    rs2 = rs * rs
    counts = np.zeros(len(points), dtype=np.int64)
    if sensors:
        pos = np.asarray(sensors)
        d2 = ((points[:, None, :] - pos[None, :, :]) ** 2).sum(axis=-1)
        counts = (d2 <= rs2).sum(axis=1)
    if mode == "binary":
        weight = (counts < need).astype(np.float64)
    else:
        weight = np.maximum(need - counts, 0).astype(np.float64)
    near = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1) <= rs2
    return counts, near.astype(np.float64) @ weight


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(2, 60),
    k=st.integers(1, 4),
    n_ops=st.integers(1, 40),
    seed=st.integers(0, 2**31),
    mode=st.sampled_from(["deficiency", "binary"]),
    per_point=st.booleans(),
)
def test_incremental_benefit_equals_recompute(n, k, n_ops, seed, mode, per_point):
    """Property: after every operation of an arbitrary mix of one-row
    (place, add, remove_covered) and batched (add_sensors, remove_rows
    over overlapping rows) updates, the counts, the benefit vector and the
    running k-covered count behind ``covered_fraction`` and
    ``is_fully_covered`` equal exactly Eq. 1 evaluated from dense pairwise
    distances — with a uniform or a per-point requirement (some points
    requiring nothing), in both benefit modes."""
    rng = np.random.default_rng(seed)
    rs = 1.5
    pts = rng.random((n, 2)) * 8
    if per_point:
        need = rng.integers(0, k + 1, size=n)
        need[rng.integers(n)] = k  # at least one point requires coverage
    else:
        need = np.full(n, k)
    eng = BenefitEngine(pts, rs, k=need if per_point else k, benefit_mode=mode)
    # the test's own record of the engine's sensors, one per row: where
    # each sits, its covered row, and whether it is still accounted (False
    # once remove_covered undid it; the engine keeps such rows)
    where: list[np.ndarray] = []
    rows: list[np.ndarray] = []
    live: list[bool] = []
    for _ in range(n_ops):
        r = rng.random()
        applied = [i for i, ok in enumerate(live) if ok]
        if r < 0.3:
            i = int(rng.integers(n))
            rows.append(eng.place_at(i).copy())
            where.append(pts[i])
            live.append(True)
        elif r < 0.45 or not applied:
            pos = rng.random(2) * 8
            rows.append(eng.add_sensor_at_position(pos).copy())
            where.append(pos)
            live.append(True)
        elif r < 0.6:
            # a batch that repeats positions and reuses placed ones
            batch = rng.random((int(rng.integers(1, 5)), 2)) * 8
            batch = np.concatenate([batch, batch[:1], pts[rng.integers(n, size=2)]])
            eng.add_sensors(batch)
            where.extend(batch)
            rows.extend(np.flatnonzero(((pts - p) ** 2).sum(axis=1) <= rs * rs) for p in batch)
            live.extend([True] * len(batch))
        elif r < 0.75:
            i = int(rng.choice(applied))
            eng.remove_covered(rows[i])
            live[i] = False
        else:
            size = int(rng.integers(1, len(applied) + 1))
            drop = rng.choice(applied, size=size, replace=False)
            eng.remove_rows(drop)
            dropped = set(drop.tolist())
            keep = [i for i in range(len(live)) if i not in dropped]
            where = [where[i] for i in keep]
            rows = [rows[i] for i in keep]
            live = [live[i] for i in keep]
        assert eng.n_rows == len(live)
        counts, benefit = _dense_eq1(
            pts, [p for p, ok in zip(where, live) if ok], rs, need, mode
        )
        np.testing.assert_array_equal(eng.counts, counts)
        np.testing.assert_array_equal(eng.benefit, benefit)
        met = counts >= need
        assert eng.covered_fraction() == np.count_nonzero(met) / n
        assert eng.is_fully_covered() == bool(met.all())


@pytest.mark.parametrize("mode", ["deficiency", "binary"])
def test_remove_rows_naming_an_undone_row_changes_nothing(mode):
    """``remove_rows`` validates the whole batch before mutating: a batch
    naming a valid row and a row already undone by ``remove_covered``
    raises and leaves counts, benefit, rows and coverage as they were."""
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [9.0, 0.0]])
    eng = BenefitEngine(pts, 1.5, k=2, benefit_mode=mode)
    eng.place_at(3)
    row_i = eng.place_at(0)
    eng.place_at(1)  # row j = 2 overlaps row i = 1
    eng.remove_covered(row_i)
    before = (eng.counts.copy(), eng.benefit.copy(), eng.n_rows, eng.covered_fraction())
    with pytest.raises(CoverageError, match="negative"):
        eng.remove_rows(np.array([2, 1]))
    after = (eng.counts, eng.benefit, eng.n_rows, eng.covered_fraction())
    np.testing.assert_array_equal(after[0], before[0])
    np.testing.assert_array_equal(after[1], before[1])
    assert after[2:] == before[2:]
    eng.validate()


class TestArgmaxCandidateOrder:
    """Regression: the tie-break must not depend on candidate ordering."""

    def _tied_engine(self) -> BenefitEngine:
        # isolated points -> every benefit equals k, all candidates tie
        pts = np.array([[float(10 * i), 0.0] for i in range(6)])
        return BenefitEngine(pts, 1.0, k=2)

    def test_reversed_candidates_same_winner(self):
        eng = self._tied_engine()
        fwd = eng.argmax(candidates=np.array([1, 3, 4]))
        rev = eng.argmax(candidates=np.array([4, 3, 1]))
        assert fwd == rev == 1  # lowest index wins the tie either way

    def test_sorted_input_not_copied_semantics(self):
        eng = self._tied_engine()
        cand = np.array([0, 2, 5])
        assert eng.argmax(candidates=cand) == 0
        np.testing.assert_array_equal(cand, [0, 2, 5])  # input untouched


class TestSymmetryValidation:
    def test_is_symmetric_matches_subtraction_test(self, rng):
        from scipy import sparse

        from repro.core.benefit import _is_symmetric

        for trial in range(20):
            a = sparse.random(
                30, 30, density=0.1, rng=np.random.default_rng(trial)
            ).tocsr()
            sym = (a + a.T).tocsr()
            assert _is_symmetric(sym) == ((sym - sym.T).nnz == 0)
            assert _is_symmetric(a) == ((a - a.T).nnz == 0)

    def test_non_canonical_duplicates_handled(self):
        from scipy import sparse

        from repro.core.benefit import _is_symmetric

        # duplicate entries that only sum to a symmetric matrix
        row = np.array([0, 0, 1])
        col = np.array([1, 1, 0])
        data = np.array([1.0, 1.0, 2.0])
        coo = sparse.coo_matrix((data, (row, col)), shape=(2, 2))
        assert _is_symmetric(coo.tocsr())

    def test_rectangular_is_not_symmetric(self):
        from scipy import sparse

        from repro.core.benefit import _is_symmetric

        assert not _is_symmetric(sparse.csr_matrix(np.ones((2, 3))))

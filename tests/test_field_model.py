"""Tests for the shared FieldModel layer: grid-hash parity with the kd-tree
reference, memoisation, consumer sharing, and the build-counter regression
over an experiment sweep."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.benefit import BenefitEngine, same_cell_benefit_adjacency
from repro.errors import CoverageError, GeometryError
from repro.experiments.runner import DeploymentCache, field_model_for_seed
from repro.experiments.setup import ExperimentSetup
from repro.field import (
    Adjacency,
    FieldModel,
    as_field_model,
    same_cell_adjacency_of,
)
from repro.field.backends import KDTreeBackend
from repro.geometry import Rect
from repro.network.coverage import CoverageState


def random_points(seed: int, n: int = 60, side: float = 10.0) -> np.ndarray:
    return np.random.default_rng(seed).random((n, 2)) * side


# ----------------------------------------------------------------------
# grid-hash parity with the kd-tree reference (property tests)
# ----------------------------------------------------------------------
class TestBackendParity:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        radius=st.floats(0.0, 6.0, allow_nan=False, allow_infinity=False),
    )
    def test_cached_adjacency_matches_fresh_build(self, seed, radius):
        pts = random_points(seed)
        fm = FieldModel(pts)
        cached = fm.adjacency(radius)
        fresh = KDTreeBackend(pts).adjacency(radius)
        assert np.array_equal(cached.indptr, fresh.indptr)
        assert np.array_equal(cached.indices, fresh.indices)
        # second lookup is the identical object, not an equal rebuild
        assert fm.adjacency(radius) is cached

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        radius=st.floats(0.1, 6.0, allow_nan=False, allow_infinity=False),
    )
    def test_backends_agree_on_query_ball(self, seed, radius):
        pts = random_points(seed)
        fm, kdtree = FieldModel(pts), KDTreeBackend(pts)
        probes = random_points(seed + 1, n=10)
        for probe in probes:
            hits = sorted(fm.query_ball(probe, radius))
            assert hits == sorted(kdtree.query_ball(probe, radius))

    def test_backends_agree_on_boundary_distances(self):
        # integer coordinates at exactly radius distance: closed-ball
        # semantics must match the kd-tree's
        pts = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0], [3.0, 4.0]])
        for radius in (3.0, 4.0, 5.0):
            mat = FieldModel(pts).adjacency(radius).toarray()
            assert np.array_equal(mat, KDTreeBackend(pts).adjacency(radius).toarray())
            # d <= r is inclusive: the pair at exactly `radius` is adjacent
            assert mat.sum() > pts.shape[0]


# ----------------------------------------------------------------------
# model basics and memoisation
# ----------------------------------------------------------------------
class TestFieldModel:
    def test_points_are_frozen_and_copied(self):
        raw = random_points(3)
        fm = FieldModel(raw)
        raw[0] = 99.0  # later caller mutation must not leak in
        assert fm.points[0, 0] != 99.0
        with pytest.raises(ValueError):
            fm.points[0] = 0.0  # checks: ignore[ALIAS001] -- raise is the point

    def test_negative_radius_raises(self):
        with pytest.raises(GeometryError):
            FieldModel(random_points(0)).adjacency(-1.0)

    def test_as_field_model_passthrough(self):
        fm = FieldModel(random_points(0))
        assert as_field_model(fm) is fm
        assert isinstance(as_field_model(random_points(0)), FieldModel)

    def test_counters_track_builds_and_hits(self):
        fm = FieldModel(random_points(0))
        fm.adjacency(2.0)
        fm.adjacency(2.0)
        fm.adjacency(3.0)
        assert fm.stats.build_count("adjacency") == 2
        assert fm.stats.hit_count("adjacency") == 1
        assert fm.stats.build_count("index") == 1
        fm.stats.reset()
        assert fm.stats.build_count("adjacency") == 0

    def test_snapshot_diff_isolates_deltas(self):
        fm = FieldModel(random_points(0))
        fm.adjacency(2.0)  # build index + adjacency before the snapshot
        before = fm.stats.snapshot()
        fm.adjacency(2.0)  # hit
        fm.adjacency(3.0)  # second adjacency build
        delta = fm.stats.diff(before)
        assert delta.build_count("adjacency") == 1
        assert delta.hit_count("adjacency") == 1
        assert delta.build_count("index") == 0
        # the live counters keep their full totals (no clobbering)
        assert fm.stats.build_count("adjacency") == 2
        assert fm.stats.build_count("index") == 1

    def test_snapshot_is_immutable_copy(self):
        fm = FieldModel(random_points(0))
        fm.adjacency(2.0)
        snap = fm.stats.snapshot()
        fm.adjacency(3.0)
        assert snap.build_count("adjacency") == 1  # unaffected by later work
        # a diff against a later snapshot clamps rather than going negative
        later = fm.stats.snapshot()
        assert later.diff(later).build_count("adjacency") == 0
        assert snap.diff(later).build_count("adjacency") == 0

    def test_grid_artifacts_memoised(self):
        fm = FieldModel(random_points(0))
        region = Rect.square(10.0)
        assert fm.grid_partition(region, 2.0) is fm.grid_partition(region, 2.0)
        assert fm.cell_of(region, 2.0) is fm.cell_of(region, 2.0)
        assert fm.points_by_cell(region, 2.0) is fm.points_by_cell(region, 2.0)
        a = fm.same_cell_adjacency(1.5, region, 2.0)
        assert fm.same_cell_adjacency(1.5, region, 2.0) is a
        assert fm.stats.build_count("same_cell_adjacency") == 1

    def test_probe_grid_layout_and_memoisation(self):
        fm = FieldModel(random_points(0))
        region = Rect.square(10.0)
        probes = fm.probe_grid(region, 4)
        assert probes.shape == (16, 2)
        assert probes[0] == pytest.approx([1.25, 1.25])  # bottom-left center
        assert fm.probe_grid(region, 4) is probes
        with pytest.raises(GeometryError):
            fm.probe_grid(region, 0)

    def test_pickle_carries_only_points_and_backend(self):
        """Every pooled result references its field model: a pickle of a
        paper-scale model with its index, adjacencies and partitions built
        is its points alone plus a header, and the copy rebuilds on
        demand."""
        import pickle

        setup = ExperimentSetup.paper()
        fm = field_model_for_seed(setup, 0)
        for cell in (setup.cell_small, setup.cell_big):
            fm.points_by_cell(setup.region, cell)
            fm.same_cell_adjacency(setup.rs, setup.region, cell)
        fm.adjacency(setup.rs).rows()
        fm.query_ball(fm.points[0], setup.rs)
        blob = pickle.dumps(fm, pickle.HIGHEST_PROTOCOL)
        assert len(blob) <= fm.points.nbytes + 1024
        clone = pickle.loads(blob)
        assert np.array_equal(clone.points, fm.points)
        assert not clone.points.flags.writeable
        assert not clone.stats.builds and not clone.stats.hits
        rebuilt, original = clone.adjacency(setup.rs), fm.adjacency(setup.rs)
        assert np.array_equal(rebuilt.indptr, original.indptr)
        assert np.array_equal(rebuilt.indices, original.indices)
        assert clone.stats.build_count("adjacency") == 1


class TestAdjacencyRows:
    def test_rows_are_cached_read_only_intp_slices(self):
        adj = FieldModel(random_points(4)).adjacency(2.0)
        rows = adj.rows()
        assert len(rows) == adj.shape[0]
        for i, row in enumerate(rows):
            expected = adj.indices[adj.indptr[i]:adj.indptr[i + 1]]
            assert row.dtype == np.intp
            assert np.array_equal(row, expected)
            assert not row.flags.writeable
        assert adj.rows() is rows

    def test_row_cache_stays_out_of_pickles(self):
        """Pooled results pickle their field model: the row views must not
        ride along (or a worker's payload and memory grow)."""
        import pickle

        adj = FieldModel(random_points(5)).adjacency(2.0)
        size = len(pickle.dumps(adj))
        adj.rows()
        assert len(pickle.dumps(adj)) == size
        clone = pickle.loads(pickle.dumps(adj))
        assert np.array_equal(clone.indices, adj.indices)
        assert np.array_equal(clone.indptr, adj.indptr) and clone.shape == adj.shape
        assert all(np.array_equal(a, b) for a, b in zip(clone.rows(), adj.rows()))


# ----------------------------------------------------------------------
# same-cell masking (satellite: CSR fast path)
# ----------------------------------------------------------------------
class TestSameCellAdjacency:
    def _setup(self, seed: int):
        pts = random_points(seed)
        model = FieldModel(pts)
        return model.adjacency(2.0), model.cell_of(Rect.square(10.0), 2.5)

    def test_csr_fast_path_matches_coo_path(self):
        # the CSR mask equals the dense same-cell mask of the adjacency
        adj, cell_of = self._setup(7)
        out = same_cell_adjacency_of(adj, cell_of)
        same_cell = cell_of[:, None] == cell_of[None, :]
        assert np.array_equal(out.toarray(), adj.toarray() * same_cell)
        assert isinstance(out, Adjacency)

    def test_output_symmetric(self):
        adj, cell_of = self._setup(8)
        dense = same_cell_benefit_adjacency(adj, cell_of).toarray()
        assert np.array_equal(dense, dense.T)

    def test_wrong_cell_vector_length(self):
        adj, cell_of = self._setup(9)
        with pytest.raises(GeometryError):
            same_cell_adjacency_of(adj, cell_of[:-1])


# ----------------------------------------------------------------------
# consumer sharing
# ----------------------------------------------------------------------
class TestConsumerSharing:
    def test_coverage_and_benefit_share_one_adjacency(self):
        fm = FieldModel(random_points(1))
        engine_a = BenefitEngine(fm, sensing_radius=2.0, k=1)
        engine_b = BenefitEngine(fm, sensing_radius=2.0, k=3)
        cov = CoverageState(fm, sensing_radius=2.0)
        assert engine_a.coverage_adjacency is engine_b.coverage_adjacency
        assert cov.field is fm
        assert fm.stats.build_count("adjacency") == 1
        assert fm.stats.hit_count("adjacency") == 1

    def test_coverage_state_accepts_model_or_points(self):
        pts = random_points(2)
        from_pts = CoverageState(pts, 2.0)
        from_model = CoverageState(FieldModel(pts), 2.0)
        from_pts.add_sensor(0, pts[0])
        from_model.add_sensor(0, pts[0])
        assert from_pts.counts.tolist() == from_model.counts.tolist()


# ----------------------------------------------------------------------
# benefit-adjacency validation (satellite)
# ----------------------------------------------------------------------
class TestBenefitAdjacencyValidation:
    def test_dense_array_rejected(self):
        pts = random_points(4, n=10)
        with pytest.raises(CoverageError, match="must be an Adjacency"):
            BenefitEngine(pts, 2.0, 1, benefit_adjacency=np.eye(10))

    def test_wrong_shape_rejected(self):
        pts = random_points(4, n=10)
        identity9 = Adjacency.from_keys(np.arange(9) * 10, 9)  # keys i * 9 + i
        with pytest.raises(CoverageError, match="shape"):
            BenefitEngine(pts, 2.0, 1, benefit_adjacency=identity9)

    def test_asymmetric_rejected(self):
        pts = random_points(4, n=10)
        # the diagonal and (0, 1), with no mirror entry (1, 0)
        bad = Adjacency.from_keys(np.sort(np.append(np.arange(10) * 11, 1)), 10)
        with pytest.raises(CoverageError, match="symmetric"):
            BenefitEngine(pts, 2.0, 1, benefit_adjacency=bad)

    def test_valid_adjacency_accepted(self):
        pts = random_points(4, n=10)
        good = KDTreeBackend(pts).adjacency(2.0)
        eng = BenefitEngine(pts, 2.0, 1, benefit_adjacency=good)
        eng.validate()


# ----------------------------------------------------------------------
# experiment-sweep regression: each index built at most once per field
# ----------------------------------------------------------------------
TINY = ExperimentSetup(
    field_side=30.0,
    n_points=80,
    n_initial=10,
    n_seeds=1,
    k_values=(1, 2),
)


class TestSweepReuse:
    def test_runner_builds_each_index_at_most_once(self):
        """Across all six series and the whole k sweep, the shared per-seed
        model builds the neighbour index once, the rs adjacency once, and
        one same-cell adjacency per distinct cell size."""
        cache = DeploymentCache(TINY)
        from repro.experiments.figures import fig08_nodes_vs_k, fig14_restoration

        fig08_nodes_vs_k(TINY, cache)
        fig14_restoration(TINY, cache)
        assert len(cache._fields) == TINY.n_seeds
        for fm in cache._fields.values():
            builds = fm.stats.builds
            assert builds["index"] == 1
            assert builds["adjacency"] == 1  # one rs shared by all series
            assert builds["same_cell_adjacency"] == 2  # small + big cells
            assert builds["partition"] == 2
            # and the cache actually got exercised
            assert fm.stats.hit_count("adjacency") > 0
            assert fm.stats.hit_count("index") > 0

    def test_empty_cache_is_not_discarded_by_figures(self):
        """An empty DeploymentCache is falsy (it has __len__); figure
        functions must still use it rather than silently building a
        private one."""
        from repro.experiments.figures import fig08_nodes_vs_k

        cache = DeploymentCache(TINY)
        assert not cache  # precondition: empty caches are falsy
        fig08_nodes_vs_k(TINY, cache)
        assert len(cache) > 0

    def test_field_model_for_seed_matches_cache_points(self):
        cache = DeploymentCache(TINY)
        fresh = field_model_for_seed(TINY, 0)
        assert np.array_equal(fresh.points, cache.field(0).points)
        assert cache.field(0) is cache.field(0)

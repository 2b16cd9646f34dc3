"""Tests for repro.geometry.neighbors — the grid hash pinned by dense
distances, and the KD-tree vs grid-hash cross-check (two independent
implementations must agree)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GeometryError
from repro.field.backends import KDTreeBackend
from repro.geometry import UniformGridIndex
from repro.geometry.neighbors import radius_pairs
from repro.geometry.points import distances_to
from tests.kdtree import ball_counts, nearest, radius_adjacency
from tests.oracles import dense_cover


class TestNeighborIndex:
    """The kd-tree reference's ball, count and nearest-neighbour queries
    (``KDTreeBackend`` and ``tests/kdtree.py``): what the scipy-backed
    ``NeighborIndex`` answered before the grid hash took every query in
    ``repro`` over."""

    def test_query_ball_basic(self):
        idx = KDTreeBackend([[0.0, 0.0], [3.0, 0.0], [10.0, 0.0]])
        assert sorted(idx.query_ball([1.0, 0.0], 2.5)) == [0, 1]

    def test_query_ball_closed(self):
        idx = KDTreeBackend([[0.0, 0.0], [2.0, 0.0]])
        assert sorted(idx.query_ball([0.0, 0.0], 2.0)) == [0, 1]

    def test_query_ball_empty_index(self):
        idx = KDTreeBackend(np.empty((0, 2)))
        assert idx.query_ball([0.0, 0.0], 1.0).size == 0

    def test_negative_radius_raises(self):
        with pytest.raises(GeometryError):
            KDTreeBackend([[0.0, 0.0]]).query_ball([0.0, 0.0], -1.0)

    def test_query_ball_many(self, rng):
        pts = rng.random((50, 2)) * 10
        idx = KDTreeBackend(pts)
        results = idx.query_ball_many(pts[:5], 2.0)
        assert len(results) == 5
        for i, r in enumerate(results):
            assert sorted(r) == sorted(idx.query_ball(pts[i], 2.0))

    def test_count_in_balls(self, rng):
        pts = rng.random((60, 2)) * 10
        idx = KDTreeBackend(pts)
        probes = rng.random((9, 2)) * 10
        counts = ball_counts(pts, probes, 1.5)
        for p, c in zip(probes, counts):
            assert c == idx.query_ball(p, 1.5).size

    def test_nearest(self):
        d, i = nearest([[0.0, 0.0], [10.0, 0.0]], [[1.0, 0.0], [9.0, 0.0]])
        np.testing.assert_allclose(d, [1.0, 1.0])
        assert i.tolist() == [0, 1]

    def test_nearest_empty_raises(self):
        with pytest.raises(GeometryError):
            nearest(np.empty((0, 2)), [[0.0, 0.0]])


class TestUniformGridIndex:
    def test_matches_brute_force(self, rng):
        pts = rng.random((80, 2)) * 20
        grid = UniformGridIndex(pts, radius=3.0)
        for probe in rng.random((10, 2)) * 20:
            got = sorted(grid.query_ball(probe))
            want = sorted(np.nonzero(distances_to(pts, probe) <= 3.0 + 1e-12)[0])
            assert got == want

    def test_radius_above_build_raises(self):
        grid = UniformGridIndex([[0.0, 0.0]], radius=1.0)
        with pytest.raises(GeometryError):
            grid.query_ball([0.0, 0.0], 2.0)

    def test_smaller_query_radius_ok(self):
        grid = UniformGridIndex([[0.0, 0.0], [0.8, 0.0]], radius=1.0)
        assert sorted(grid.query_ball([0.0, 0.0], 0.5)) == [0]

    def test_empty(self):
        grid = UniformGridIndex(np.empty((0, 2)), radius=1.0)
        assert grid.query_ball([0.0, 0.0]).size == 0

    def test_nonpositive_radius_raises(self):
        with pytest.raises(GeometryError):
            UniformGridIndex([[0.0, 0.0]], radius=0.0)


def _ball_counts(points, probes, radius):
    """Per-probe ball counts, as the coverage raster and the intruder's
    detector counts take them."""
    return UniformGridIndex(points, radius).ball_counts(probes)


def _dense_pairs(points, radius):
    """Pairs ``i < j`` within ``radius``, ascending, from dense distances."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    return np.argwhere(np.triu(dense_cover(pts, pts, radius), k=1))


# integer coordinates at exactly 3, 4 and 5 apart, and a coincident pair
_BOUNDARY = [[0.0, 0.0], [3.0, 0.0], [0.0, 4.0], [3.0, 4.0], [3.0, 4.0]]


class TestBallCounts:
    def test_matches_dense(self, rng):
        pts = rng.random((70, 2)) * 12
        probes = rng.random((40, 2)) * 14 - 1
        for radius in (0.5, 2.0, 3.5):
            want = dense_cover(probes, pts, radius).sum(axis=0)
            assert _ball_counts(pts, probes, radius).tolist() == want.tolist()

    def test_blocks_join_up(self, rng):
        # more probes than one join block: the blocks' counts line up
        pts = rng.random((50, 2)) * 10
        probes = rng.random((9000, 2)) * 10
        want = dense_cover(probes, pts, 1.5).sum(axis=0)
        assert _ball_counts(pts, probes, 1.5).tolist() == want.tolist()

    @pytest.mark.parametrize("radius", [3.0, 4.0, 5.0])
    def test_closed_ball_and_coincident(self, radius):
        pts = np.array(_BOUNDARY)
        want = dense_cover(pts, pts, radius).sum(axis=0)
        got = _ball_counts(pts, pts, radius)
        assert got.tolist() == want.tolist()
        assert got.tolist() == ball_counts(pts, pts, radius).tolist()

    def test_empty_points_and_probes(self):
        assert _ball_counts(np.empty((0, 2)), [[0.0, 0.0], [1.0, 1.0]], 1.0).tolist() == [0, 0]
        assert _ball_counts([[0.0, 0.0]], np.empty((0, 2)), 1.0).size == 0

    def test_one_point(self):
        assert _ball_counts([[1.0, 1.0]], [[1.0, 2.0], [1.0, 2.5]], 1.0).tolist() == [1, 0]


class TestRadiusPairs:
    def test_matches_dense(self, rng):
        pts = rng.random((90, 2)) * 15
        for radius in (0.7, 2.5, 6.0):
            assert radius_pairs(pts, radius).tolist() == _dense_pairs(pts, radius).tolist()

    @pytest.mark.parametrize("radius", [0.0, 3.0, 4.0, 5.0])
    def test_closed_ball_and_coincident(self, radius):
        got = radius_pairs(_BOUNDARY, radius)
        assert got.tolist() == _dense_pairs(_BOUNDARY, radius).tolist()
        assert [3, 4] in got.tolist()  # the coincident pair, at any radius

    def test_ascending_upper_pairs(self, rng):
        pairs = radius_pairs(rng.random((200, 2)) * 20, 3.0)
        assert np.all(pairs[:, 0] < pairs[:, 1])
        keys = pairs[:, 0] * 200 + pairs[:, 1]
        assert np.all(np.diff(keys) > 0)

    @pytest.mark.parametrize("points", [np.empty((0, 2)), [[2.0, 3.0]]], ids=["empty", "one"])
    def test_fewer_than_two_points(self, points):
        pairs = radius_pairs(points, 1.0)
        assert pairs.shape == (0, 2) and pairs.dtype == np.intp

    def test_negative_radius_raises(self):
        with pytest.raises(GeometryError):
            radius_pairs([[0.0, 0.0], [1.0, 0.0]], -1.0)


class TestRadiusAdjacency:
    """The tests' scipy-CSR reference adjacency (``tests/kdtree.py``)."""

    def test_diagonal_present(self, rng):
        pts = rng.random((30, 2)) * 10
        adj = radius_adjacency(pts, 1.0)
        np.testing.assert_allclose(adj.diagonal(), 1.0)

    def test_symmetric(self, rng):
        pts = rng.random((40, 2)) * 10
        adj = radius_adjacency(pts, 2.0)
        assert (adj != adj.T).nnz == 0

    def test_matches_dense(self, rng):
        pts = rng.random((25, 2)) * 5
        adj = radius_adjacency(pts, 1.5).toarray()
        from repro.geometry.points import pairwise_distances

        dense = (pairwise_distances(pts) <= 1.5).astype(float)
        np.testing.assert_allclose(adj, dense)

    def test_empty(self):
        adj = radius_adjacency(np.empty((0, 2)), 1.0)
        assert adj.shape == (0, 0)

    def test_negative_radius_raises(self):
        with pytest.raises(GeometryError):
            radius_adjacency([[0.0, 0.0]], -1.0)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 60),
    radius=st.floats(0.05, 5.0),
    seed=st.integers(0, 2**31),
)
def test_kdtree_and_gridhash_agree(n, radius, seed):
    """Property: the two independent spatial indexes return identical balls."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2)) * 10
    kd = KDTreeBackend(pts)
    gh = UniformGridIndex(pts, radius=radius)
    for probe in pts[: min(n, 5)]:
        assert sorted(kd.query_ball(probe, radius)) == sorted(gh.query_ball(probe))

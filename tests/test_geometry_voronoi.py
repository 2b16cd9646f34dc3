"""Tests for repro.geometry.voronoi — incremental ownership vs brute force."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GeometryError
from repro.geometry import Rect, VoronoiOwnership, nearest_owner


class TestNearestOwner:
    def test_basic(self):
        pts = np.array([[0.0, 0.0], [9.0, 0.0]])
        sites = np.array([[1.0, 0.0], [8.0, 0.0]])
        assert nearest_owner(pts, sites).tolist() == [0, 1]

    def test_tie_breaks_low_index(self):
        pts = np.array([[5.0, 0.0]])
        sites = np.array([[4.0, 0.0], [6.0, 0.0]])
        assert nearest_owner(pts, sites)[0] == 0

    def test_no_sites_raises(self):
        with pytest.raises(GeometryError):
            nearest_owner(np.array([[0.0, 0.0]]), np.empty((0, 2)))

    def test_memory_is_bounded_by_point_blocks(self):
        """2000 points x 1000 sites as one dense temporary would be 16 MB
        (three of them at once); blocks of points keep the peak small."""
        rng = np.random.default_rng(0)
        pts = rng.random((2000, 2)) * 100.0
        sites = rng.random((1000, 2)) * 100.0
        tracemalloc.start()
        try:
            nearest_owner(pts, sites)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    def test_blocks_match_dense_argmin_with_ties(self):
        """Lattice points midway between lattice sites tie exactly, and
        duplicated sites tie at distance 0; across block boundaries every
        point still gets the lowest-index nearest site."""
        g = np.arange(0.0, 40.0)
        pts = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
        sites = pts[(pts % 2 == 0).all(axis=1)]
        sites = np.vstack([sites, sites[::3]])
        assert len(pts) > 2 * ((1 << 16) // len(sites))  # several blocks
        d2 = ((pts[:, None, :] - sites[None, :, :]) ** 2).sum(axis=-1)
        np.testing.assert_array_equal(
            nearest_owner(pts, sites), np.argmin(d2, axis=1)
        )


class TestVoronoiOwnership:
    @pytest.fixture
    def ownership(self, rng):
        pts = Rect.square(10.0).sample(100, rng)
        sites = Rect.square(10.0).sample(4, rng)
        return pts, sites, VoronoiOwnership(pts, sites)

    def test_initial_assignment_is_nearest(self, ownership):
        pts, sites, vo = ownership
        np.testing.assert_array_equal(vo.owner, nearest_owner(pts, sites))

    def test_requires_a_site(self, rng):
        with pytest.raises(GeometryError):
            VoronoiOwnership(Rect.square(1.0).sample(5, rng), np.empty((0, 2)))

    def test_add_site_steals_strictly_closer(self, ownership, rng):
        pts, sites, vo = ownership
        new = Rect.square(10.0).sample(1, rng)[0]
        sid, stolen = vo.add_site(new)
        assert sid == 4
        # every stolen point is now closer to the new site
        for p in stolen:
            d_new = np.linalg.norm(pts[p] - new)
            d_olds = [np.linalg.norm(pts[p] - s) for s in sites]
            assert d_new < min(d_olds) + 1e-12
        vo.validate()

    def test_add_many_sites_stays_consistent(self, ownership, rng):
        pts, _, vo = ownership
        for _ in range(20):
            vo.add_site(Rect.square(10.0).sample(1, rng)[0])
        vo.validate()

    def test_owned_points_partition(self, ownership):
        pts, _, vo = ownership
        owned = [vo.owned_points(s) for s in vo.alive_sites()]
        together = np.sort(np.concatenate(owned))
        np.testing.assert_array_equal(together, np.arange(len(pts)))

    def test_cell_sizes(self, ownership):
        pts, _, vo = ownership
        assert vo.cell_sizes().sum() == len(pts)

    def test_remove_site_reassigns_orphans(self, ownership):
        pts, _, vo = ownership
        orphans = vo.remove_site(0)
        assert not vo.is_alive(0)
        assert bool(np.all(vo.owner[orphans] != 0))
        vo.validate()

    def test_remove_last_site_raises(self, rng):
        pts = Rect.square(5.0).sample(10, rng)
        vo = VoronoiOwnership(pts, np.array([[2.0, 2.0]]))
        with pytest.raises(GeometryError):
            vo.remove_site(0)

    def test_double_remove_raises(self, ownership):
        _, _, vo = ownership
        vo.remove_site(1)
        with pytest.raises(GeometryError):
            vo.remove_site(1)

    def test_unknown_site_raises(self, ownership):
        _, _, vo = ownership
        with pytest.raises(GeometryError):
            vo.owned_points(99)

    def test_cells_shrink_as_sites_are_added(self, ownership, rng):
        """The paper's dynamics: deploying nodes shrinks existing cells."""
        pts, _, vo = ownership
        before = vo.cell_sizes()[: vo.n_sites].copy()
        for _ in range(10):
            vo.add_site(Rect.square(10.0).sample(1, rng)[0])
        after = vo.cell_sizes()[: len(before)]
        assert bool(np.all(after <= before))


@settings(max_examples=20, deadline=None)
@given(
    n_pts=st.integers(5, 80),
    n_sites=st.integers(1, 10),
    n_ops=st.integers(0, 15),
    seed=st.integers(0, 2**31),
)
def test_incremental_matches_brute_force(n_pts, n_sites, n_ops, seed):
    """Property: after arbitrary add/remove interleavings, ownership equals
    the brute-force nearest-alive-site assignment (by distance)."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n_pts, 2)) * 20
    sites = rng.random((n_sites, 2)) * 20
    vo = VoronoiOwnership(pts, sites)
    for _ in range(n_ops):
        if rng.random() < 0.7 or len(vo.alive_sites()) <= 1:
            vo.add_site(rng.random(2) * 20)
        else:
            victim = int(rng.choice(vo.alive_sites()))
            vo.remove_site(victim)
    vo.validate()

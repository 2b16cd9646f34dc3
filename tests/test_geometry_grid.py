"""Tests for repro.geometry.grid."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GeometryError
from repro.experiments import ExperimentSetup
from repro.experiments.runner import field_model_for_seed
from repro.geometry import GridPartition, Rect


def reached_by_rect_distance(
    grid: GridPartition, centers: np.ndarray, r: float
) -> list[list[int]]:
    """For each centre, the ids of the cells whose rectangle lies within
    ``r`` of it (``1e-12`` slack on ``r**2``), ascending: the distance to
    every cell's rectangle, one centre at a time."""
    rects = [grid.cell_rect(c) for c in range(grid.n_cells)]
    x0, y0, x1, y1 = (np.array([getattr(q, a) for q in rects]) for a in ("x0", "y0", "x1", "y1"))
    rows = []
    for cx, cy in np.asarray(centers).tolist():
        dx = np.maximum(np.maximum(x0 - cx, 0.0), cx - x1)
        dy = np.maximum(np.maximum(y0 - cy, 0.0), cy - y1)
        rows.append(np.flatnonzero(dx * dx + dy * dy <= r * r + 1e-12).tolist())
    return rows


@pytest.fixture
def paper_grid() -> GridPartition:
    """The paper's 5x5 cells on the 100x100 field."""
    return GridPartition.square_cells(Rect.square(100.0), 5.0)


class TestShape:
    def test_paper_grid_has_400_cells(self, paper_grid):
        assert (paper_grid.nx, paper_grid.ny) == (20, 20)
        assert paper_grid.n_cells == 400

    def test_big_cells(self):
        g = GridPartition.square_cells(Rect.square(100.0), 10.0)
        assert g.n_cells == 100

    def test_truncated_last_cells(self):
        g = GridPartition.square_cells(Rect.square(10.0), 4.0)
        assert (g.nx, g.ny) == (3, 3)
        last = g.cell_rect(g.n_cells - 1)
        assert last.width == pytest.approx(2.0)
        assert last.height == pytest.approx(2.0)

    def test_bad_cell_size(self):
        with pytest.raises(GeometryError):
            GridPartition.square_cells(Rect.square(10.0), 0.0)

    def test_cell_rect_out_of_range(self, paper_grid):
        with pytest.raises(GeometryError):
            paper_grid.cell_rect(400)

    def test_cells_tile_region(self, paper_grid):
        total = sum(paper_grid.cell_rect(c).area for c in range(paper_grid.n_cells))
        assert total == pytest.approx(10000.0)


class TestAssignment:
    def test_cell_of_matches_rects(self, paper_grid, rng):
        pts = Rect.square(100.0).sample(200, rng)
        cids = paper_grid.cell_of(pts)
        for p, c in zip(pts, cids):
            assert bool(paper_grid.cell_rect(int(c)).contains(p.reshape(1, 2))[0])

    def test_outside_raises(self, paper_grid):
        with pytest.raises(GeometryError):
            paper_grid.cell_of(np.array([[101.0, 5.0]]))

    def test_far_boundary_clamped(self, paper_grid):
        cid = paper_grid.cell_of(np.array([[100.0, 100.0]]))[0]
        assert cid == paper_grid.n_cells - 1

    def test_points_by_cell_partition(self, paper_grid, rng):
        pts = Rect.square(100.0).sample(300, rng)
        groups = paper_grid.points_by_cell(pts)
        assert len(groups) == paper_grid.n_cells
        all_idx = np.sort(np.concatenate(groups))
        np.testing.assert_array_equal(all_idx, np.arange(300))
        cids = paper_grid.cell_of(pts)
        for c, g in enumerate(groups):
            assert bool(np.all(cids[g] == c))


class TestNeighbors:
    def test_interior_has_8(self, paper_grid):
        interior = 21  # (1, 1)
        assert paper_grid.neighbors_of(interior).size == 8

    def test_corner_has_3(self, paper_grid):
        assert paper_grid.neighbors_of(0).size == 3

    def test_edge_has_5(self, paper_grid):
        assert paper_grid.neighbors_of(1).size == 5

    def test_von_neumann_only(self, paper_grid):
        assert paper_grid.neighbors_of(21, diagonal=False).size == 4

    def test_symmetry(self, paper_grid):
        for c in (0, 5, 21, 399):
            for n in paper_grid.neighbors_of(c):
                assert c in paper_grid.neighbors_of(int(n))


def first_row(grid, center, radius):
    """Row 0 of the batched predicate: the cells one disc reaches."""
    indptr, cells = grid.cells_intersecting_disks(center, radius)
    return cells[indptr[0]:indptr[1]]


class TestDiskIntersection:
    def test_center_of_small_cell_reaches_neighbors(self, paper_grid):
        # rs = 4 from the center of a 5x5 cell reaches all 4 edge neighbours
        center = paper_grid.cell_rect(21).center
        cells = first_row(paper_grid, center, 4.0)
        assert 21 in cells
        assert cells.size >= 5

    def test_tiny_disk_stays_home(self, paper_grid):
        center = paper_grid.cell_rect(21).center
        cells = first_row(paper_grid, center, 1.0)
        assert cells.tolist() == [21]

    def test_disk_off_field_corner(self, paper_grid):
        cells = first_row(paper_grid, np.array([0.0, 0.0]), 4.0)
        assert 0 in cells
        assert bool(np.all(cells < paper_grid.n_cells))

    def test_exhaustive_against_rect_distance(self, paper_grid, rng):
        """Centres on cell corners and edges, at the field corners, at cell
        centres, one radius off a cell line and at random, radii 0 to 12,
        against a brute force over every cell's rectangle — on the paper
        grid and on one whose last column and row are truncated (23 x 17
        in 5-cells).  The batched predicate, given each centre alone and
        all centres in one call per radius, must give the same rows, in the
        same order."""

        def axis(lo: float, hi: float, size: float, n: int) -> list[float]:
            picks = sorted({0, 1, n // 2, n - 1})
            lines = [lo + i * size for i in picks] + [hi]
            mids = [(lo + i * size + min(lo + (i + 1) * size, hi)) / 2 for i in picks]
            return lines + mids

        truncated = GridPartition.square_cells(Rect(0.0, 0.0, 23.0, 17.0), 5.0)
        for grid in (paper_grid, truncated):
            reg = grid.region
            xs = axis(reg.x0, reg.x1, grid.cell_width, grid.nx)
            ys = axis(reg.y0, reg.y1, grid.cell_height, grid.ny)
            for r in (0.0, 0.3, 1.0, 4.0, 4.1, 12.0):
                # discs whose edge meets a cell line up to rounding
                off = [x + d for x in xs for d in (-r, r) if reg.x0 <= x + d <= reg.x1]
                centers = [(x, y) for x in xs + off for y in ys] + [
                    tuple(p) for p in reg.sample(3, rng)
                ]
                want = reached_by_rect_distance(grid, np.array(centers), r)
                for (cx, cy), row in zip(centers, want):
                    got = first_row(grid, np.array([cx, cy]), r)
                    assert got.tolist() == row, (reg, cx, cy, r)
                indptr, cells = grid.cells_intersecting_disks(np.array(centers), r)
                assert len(indptr) == len(centers) + 1
                got_rows = [cells[a:b].tolist() for a, b in zip(indptr[:-1], indptr[1:])]
                assert got_rows == want, (reg, r)

    @pytest.mark.parametrize("scale", ["smoke", "paper"])
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("cell", [5.0, 10.0])
    def test_field_table_against_rect_distance(self, scale, seed, cell):
        """The field's per-point table of reached cells, as grid DECOR reads
        it, equals the brute force row for row."""
        setup = getattr(ExperimentSetup, scale)()
        field = field_model_for_seed(setup, seed)
        grid = field.grid_partition(setup.region, cell)
        indptr, cells = field.disk_cells(setup.rs, setup.region, cell)
        want = reached_by_rect_distance(grid, field.points, setup.rs)
        got = [cells[a:b].tolist() for a, b in zip(indptr[:-1], indptr[1:])]
        assert got == want
        assert field.disk_cells(setup.rs, setup.region, cell)[1] is cells

    def test_negative_radius_raises(self, paper_grid):
        with pytest.raises(GeometryError):
            paper_grid.cells_intersecting_disks(np.array([[5.0, 5.0]]), -1.0)


def test_max_leader_distance_matches_paper():
    """The paper motivates rc = 10 sqrt(2) as the max leader distance for
    5x5 cells."""
    g = GridPartition.square_cells(Rect.square(100.0), 5.0)
    assert g.max_leader_distance() == pytest.approx(10.0 * math.sqrt(2.0))


@settings(max_examples=25, deadline=None)
@given(
    side=st.floats(5.0, 200.0),
    cell=st.floats(1.0, 50.0),
    seed=st.integers(0, 2**31),
)
def test_cell_of_always_in_range(side, cell, seed):
    g = GridPartition.square_cells(Rect.square(side), cell)
    pts = Rect.square(side).sample(50, np.random.default_rng(seed))
    cids = g.cell_of(pts)
    assert bool(np.all((cids >= 0) & (cids < g.n_cells)))

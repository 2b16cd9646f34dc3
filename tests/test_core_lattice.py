"""Tests for the hexagonal lattice baseline."""

import math

import numpy as np
import pytest

from repro.core import hexagonal_lattice, lattice_placement
from repro.errors import PlacementError
from repro.field import FieldModel
from repro.geometry import Rect
from repro.geometry.points import distances_to


class TestHexagonalLattice:
    def test_covers_every_interior_point(self, rng):
        region = Rect.square(30.0)
        rs = 4.0
        sites = hexagonal_lattice(region, rs)
        probes = region.sample(500, rng)
        for p in probes:
            assert distances_to(sites, p).min() <= rs + 1e-9

    def test_pitch_geometry(self):
        sites = hexagonal_lattice(Rect.square(20.0), 2.0)
        # nearest-neighbour distance is the pitch sqrt(3) * rs
        pitch = math.sqrt(3.0) * 2.0
        pair = distances_to(sites[1:], sites[0])
        assert pytest.approx(pair.min(), rel=1e-6) == pitch

    def test_offsets_shift_the_lattice(self):
        a = hexagonal_lattice(Rect.square(10.0), 2.0, offset=(0.0, 0.0))
        b = hexagonal_lattice(Rect.square(10.0), 2.0, offset=(0.5, 0.5))
        assert not np.allclose(a[: min(len(a), len(b))], b[: min(len(a), len(b))])

    def test_bad_radius(self):
        with pytest.raises(PlacementError):
            hexagonal_lattice(Rect.square(10.0), 0.0)


class TestLatticePlacement:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_reaches_k_coverage(self, field, region, spec, k):
        result = lattice_placement(field, spec, k, region=region)
        assert result.final_covered_fraction() == 1.0
        assert result.method == "lattice"

    def test_layers_recorded(self, field, region, spec):
        result = lattice_placement(field, spec, 2, region=region)
        layers = set(result.trace.proposer.tolist())
        assert {0, 1} <= layers  # both lattice layers placed something

    def test_no_dead_sites(self, field, region, spec):
        """Every lattice node covers at least one field point (margin sites
        are filtered)."""
        result = lattice_placement(field, spec, 1, region=region)
        for key in result.coverage.sensor_keys():
            assert result.coverage.points_covered_by(key).size > 0

    def test_one_ball_query_per_lattice_site(self, field, region, spec,
                                             monkeypatch):
        """The skip test's ball query is the row the engine accounts, so
        each lattice site, kept or skipped, costs one query."""
        calls = []
        query_ball = FieldModel.query_ball

        def counted(self, center, radius):
            calls.append(radius)
            return query_ball(self, center, radius)

        monkeypatch.setattr(FieldModel, "query_ball", counted)
        lattice_placement(field, spec, 2, region=region)
        sites = sum(
            len(hexagonal_lattice(region, spec.rs, offset=(phase, phase)))
            for phase in (0.0, 0.5)
        )
        assert len(calls) == sites

    def test_near_optimal_density_at_k1(self, big_field, big_region, spec):
        """Hexagonal covering density is 1.209x the bound; including
        boundary effects the lattice should stay within ~1.8x."""
        from repro.geometry import minimum_disks_lower_bound

        result = lattice_placement(big_field, spec, 1, region=big_region)
        bound = minimum_disks_lower_bound(big_region.area, spec.rs, 1)
        assert result.added_count <= 1.8 * bound

    def test_k_layers_scale_linearly(self, field, region, spec):
        n1 = lattice_placement(field, spec, 1, region=region).added_count
        n3 = lattice_placement(field, spec, 3, region=region).added_count
        assert 2.5 * n1 <= n3 <= 3.6 * n1

    def test_default_region_from_field(self, field, spec):
        result = lattice_placement(field, spec, 1)
        assert result.final_covered_fraction() == 1.0

    def test_bad_k(self, field, spec, region):
        with pytest.raises(PlacementError):
            lattice_placement(field, spec, 0, region=region)

    def test_redundancy_spread_beats_stacking(self, field, region, spec):
        """The shifted layers avoid co-located nodes (the paper's §2
        argument): no two nodes share a position."""
        result = lattice_placement(field, spec, 3, region=region)
        pos = result.deployment.alive_positions()
        rounded = {(round(x, 6), round(y, 6)) for x, y in pos}
        assert len(rounded) == len(pos)

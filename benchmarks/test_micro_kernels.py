"""Microbenchmarks of the geometry/coverage kernels under the algorithms.

These are the operations the profiler attributes placement time to; keeping
them visible in the benchmark suite guards against regressions (the guides:
no optimisation without measurement).
"""

import numpy as np
import pytest

from repro.core import centralized_greedy, voronoi_decor
from repro.discrepancy import halton
from repro.experiments.runner import field_for_seed
from repro.geometry.voronoi import VoronoiOwnership
from repro.network import CoverageState, SensorSpec


@pytest.fixture(scope="module")
def paper_like_field(setup):
    return field_for_seed(setup, 0)


def test_halton_generation(benchmark, setup):
    benchmark(lambda: halton(setup.n_points))


def test_coverage_state_adds(benchmark, setup, paper_like_field, rng=None):
    rng = np.random.default_rng(0)
    sensors = setup.region.sample(200, rng)

    def run():
        state = CoverageState(paper_like_field, setup.rs)
        for i, pos in enumerate(sensors):
            state.add_sensor(i, pos)
        return state.covered_fraction(1)

    benchmark(run)


def test_voronoi_ownership_adds(benchmark, setup, paper_like_field):
    rng = np.random.default_rng(0)
    sites = setup.region.sample(200, rng)

    def run():
        vo = VoronoiOwnership(paper_like_field, sites[:1])
        for s in sites[1:]:
            vo.add_site(s)
        return vo.cell_sizes().max()

    benchmark(run)


def test_centralized_end_to_end(benchmark, setup, paper_like_field):
    spec = SensorSpec(setup.rs, setup.rc_small)
    benchmark.pedantic(
        lambda: centralized_greedy(paper_like_field, spec, 2).added_count,
        rounds=1, iterations=1,
    )


def test_voronoi_end_to_end(benchmark, setup, paper_like_field):
    spec = SensorSpec(setup.rs, setup.rc_small)
    benchmark.pedantic(
        lambda: voronoi_decor(paper_like_field, spec, 2).added_count,
        rounds=1, iterations=1,
    )


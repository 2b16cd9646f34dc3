"""FieldModel microbenchmarks: shared vs per-consumer index construction,
and the field's grid hash head-to-head with the tests' kd-tree reference.

The tentpole claim of the ``repro.field`` layer is that one model per
(field, seed) amortises every spatial index over all six series and the
whole k sweep.  Two views of that claim:

* ``test_index_construction_*`` — the field-layer cost alone: the set of
  artifacts a fig08-style sweep touches (neighbour index, rs adjacency,
  both grid decompositions with their same-cell adjacencies), built once on
  a shared model vs rebuilt per consumer run as the pre-refactor code did.
  This is where the measured wall-clock reduction shows up directly.
* ``test_sweep_*`` — the full fig08-style sweep end-to-end.  Placement
  dominates there, so the delta is small; the build/hit counters recorded
  in ``extra_info`` are the interesting output (each index built at most
  once per field with the shared cache).
"""

import numpy as np
import pytest

from repro.experiments.runner import DeploymentCache, field_for_seed, run_series
from repro.experiments.setup import SERIES
from repro.field import FieldModel
from repro.field.backends import GridHashBackend, KDTreeBackend


def _touch_artifacts(fm, setup):
    """Every spatial artifact a fig08-style sweep needs from the field."""
    fm.neighbor_index()
    fm.adjacency(setup.rs)
    for cell in (setup.cell_small, setup.cell_big):
        fm.grid_partition(setup.region, cell)
        fm.cell_of(setup.region, cell)
        fm.points_by_cell(setup.region, cell)
        fm.same_cell_adjacency(setup.rs, setup.region, cell)


def test_index_construction_shared(benchmark, setup):
    """One model: first run builds, the other 29 sweep slots hit the cache."""
    pts = field_for_seed(setup, 0)
    n_runs = len(SERIES) * len(setup.k_values)
    state = {}

    def run():
        fm = FieldModel(pts)
        for _ in range(n_runs):
            _touch_artifacts(fm, setup)
        state["stats"] = fm.stats
        return fm.stats.build_count("index")

    assert benchmark(run) == 1
    benchmark.extra_info["builds"] = dict(state["stats"].builds)
    benchmark.extra_info["hits"] = dict(state["stats"].hits)


def test_index_construction_per_consumer(benchmark, setup):
    """Fresh model per run: every sweep slot rebuilds everything."""
    pts = field_for_seed(setup, 0)
    n_runs = len(SERIES) * len(setup.k_values)

    def run():
        builds = 0
        for _ in range(n_runs):
            fm = FieldModel(pts)
            _touch_artifacts(fm, setup)
            builds += fm.stats.build_count("index")
        return builds

    assert benchmark(run) == n_runs
    benchmark.extra_info["index_builds"] = n_runs


def _sweep(setup, cache=None):
    """fig08-style pass: every series at every k, one seed."""
    totals = 0
    for series in SERIES:
        for k in setup.k_values:
            if cache is None:
                result = run_series(setup, series, k, 0, use_initial=False)
            else:
                result = cache.get(series, k, 0)
            totals += result.total_alive
    return totals


def test_sweep_shared_model(benchmark, setup):
    """One DeploymentCache => one FieldModel for the whole sweep."""
    state = {}

    def run():
        cache = DeploymentCache(setup)
        out = _sweep(setup, cache)
        state["stats"] = cache.field(0).stats
        return out

    benchmark.pedantic(run, rounds=1, iterations=1)
    stats = state["stats"]
    assert stats.build_count("index") == 1
    assert stats.build_count("adjacency") == 1
    benchmark.extra_info["builds"] = dict(stats.builds)
    benchmark.extra_info["hits"] = dict(stats.hits)


def test_sweep_per_consumer(benchmark, setup):
    """No shared cache: every run rebuilds its own indices (the old shape)."""
    n_runs = len(SERIES) * len(setup.k_values)
    benchmark.pedantic(lambda: _sweep(setup, None), rounds=1, iterations=1)
    # each uncached run constructs a fresh throwaway model
    benchmark.extra_info["index_builds_at_least"] = n_runs


INDEXES = pytest.mark.parametrize(
    "index", [GridHashBackend, KDTreeBackend], ids=["gridhash", "kdtree"]
)


@INDEXES
def test_adjacency_build_backend(benchmark, setup, index):
    """Head-to-head adjacency construction, index build included."""
    pts = np.random.default_rng(0).random((setup.n_points, 2)) * setup.field_side

    def run():
        return index(pts).adjacency(setup.rs).nnz

    nnz = benchmark(run)
    other = KDTreeBackend if index is GridHashBackend else GridHashBackend
    assert nnz == other(pts).adjacency(setup.rs).nnz


@INDEXES
def test_query_ball_backend(benchmark, setup, index):
    """Head-to-head single ball queries (warm index)."""
    pts = np.random.default_rng(0).random((setup.n_points, 2)) * setup.field_side
    built = index(pts)
    built.query_ball(pts[0], setup.rs)  # build outside the timed region
    probes = pts[:: max(1, len(pts) // 100)]

    def run():
        return sum(built.query_ball(p, setup.rs).size for p in probes)

    benchmark(run)

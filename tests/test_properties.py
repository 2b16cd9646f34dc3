"""Cross-module property-based tests of the paper's core invariants.

Each property here spans multiple subsystems — the per-module property
tests live next to their modules; these are the system-level laws.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    centralized_greedy,
    grid_decor,
    redundant_nodes,
    voronoi_decor,
)
from repro.discrepancy import field_points
from repro.geometry import Rect
from repro.network import CoverageState, SensorSpec
from tests.oracles import dense_cover

SPEC = SensorSpec(3.0, 6.0)


def _random_field(seed: int, n: int, side: float) -> np.ndarray:
    return Rect.square(side).sample(n, np.random.default_rng(seed))


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    k=st.integers(1, 3),
    n=st.integers(20, 120),
)
def test_all_methods_reach_exact_k_coverage(seed, k, n):
    """Law: every placement method terminates with every field point
    k-covered, whatever the field (counted from dense distances, not from
    the result's own coverage)."""
    region = Rect.square(20.0)
    pts = _random_field(seed, n, 20.0)
    results = [
        centralized_greedy(pts, SPEC, k),
        grid_decor(pts, SPEC, k, region, 5.0),
        voronoi_decor(pts, SPEC, k),
    ]
    for result in results:
        alive = result.deployment.alive_positions()
        counts = dense_cover(pts, alive, SPEC.sensing_radius).sum(axis=0)
        assert bool(np.all(counts >= k)), result.method


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**31), k=st.integers(1, 3))
def test_distributed_stays_near_centralized(seed, k):
    """Statistical law: the distributed variants stay within a bounded
    factor of the centralized greedy.  (A strict >= does NOT hold: greedy
    is not optimal, so a myopic variant can occasionally luck into a
    slightly better placement — observed at small scales.)"""
    pts = _random_field(seed, 180, 25.0)
    region = Rect.square(25.0)
    cent = centralized_greedy(pts, SPEC, k).added_count
    assert 0.85 * cent <= grid_decor(pts, SPEC, k, region, 5.0).added_count <= 2.0 * cent
    assert 0.85 * cent <= voronoi_decor(pts, SPEC, k).added_count <= 2.0 * cent


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**31), k=st.integers(1, 3))
def test_coverage_state_agrees_with_engine(seed, k):
    """Law: the returned CoverageState, assembled from the engine's rows,
    equals an independent recount of the deployment and certifies exactly
    what the incremental engine claimed."""
    pts = _random_field(seed, 80, 15.0)
    result = centralized_greedy(pts, SPEC, k)
    result.coverage.validate()
    recount = CoverageState.from_deployment(
        pts, SPEC.sensing_radius, result.deployment
    )
    assert np.array_equal(result.coverage.counts, recount.counts)
    assert result.coverage.is_fully_covered(k)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_monotone_coverage_along_trace(seed):
    """Law: adding nodes never reduces the covered fraction (the trace is a
    monotone staircase)."""
    pts = _random_field(seed, 100, 20.0)
    result = voronoi_decor(pts, SPEC, 2)
    ys = result.trace.covered_fraction
    assert bool(np.all(np.diff(ys) >= -1e-12))


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**31), k=st.integers(1, 3))
def test_pruned_deployment_is_irreducible(seed, k):
    """Law: after removing the reported redundant set, no single remaining
    sensor is removable — the scan returns a maximal removable set."""
    pts = _random_field(seed, 60, 12.0)
    result = centralized_greedy(pts, SPEC, k)
    cov = result.coverage
    for key in redundant_nodes(cov, k):
        cov.remove_sensor(int(key))
    assert redundant_nodes(cov, k).size == 0


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    frac=st.floats(0.0, 0.9),
)
def test_failure_then_restore_roundtrip(seed, frac):
    """Law: whatever random fraction of nodes fails, restoration returns
    the field to full coverage and never touches the original deployment."""
    from repro.core import restore
    from repro.network import random_failures

    pts = _random_field(seed, 80, 15.0)
    result = centralized_greedy(pts, SPEC, 2)
    rng = np.random.default_rng(seed)
    event = random_failures(result.deployment, rng, fraction=frac)
    report = restore(pts, SPEC, result.deployment, event, 2, centralized_greedy)
    assert report.covered_after_repair == pytest.approx(1.0)
    assert result.deployment.n_failed == 0


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_connectivity_corollary_on_decor_output(seed):
    """Law (§2): with rc >= 2 rs, DECOR's full 1-coverage implies a
    connected communication graph."""
    from repro.network.connectivity import is_connected

    pts = field_points(Rect.square(20.0), 120, "halton")
    result = voronoi_decor(pts, SPEC, 1)
    assert SPEC.guarantees_connectivity
    assert is_connected(result.deployment.alive_positions(), SPEC.rc)

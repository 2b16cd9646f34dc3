"""Independent oracles for coverage taken from the benefit engine's rows.

A placement result's coverage is assembled from the rows its
:class:`~repro.core.benefit.BenefitEngine` recorded: CSR adjacency rows
for sensors placed on field points, ball queries for sensors at arbitrary
positions.  That is only sound if the two agree, so the first property
pins ``adjacency(rs)`` row ``i`` to ``sorted(query_ball(points[i], rs))``
on adversarial fields (duplicate points, pairs at exactly ``rs``), and
the ball queries and adjacency of both backends are checked against dense
distances, also for probes on bin edges or outside the field and for radii
of 0 and beyond the field's span.  On
the same fields the centralized greedy's trace is replayed against a naive
Eq. 1 evaluated from dense distances, and Voronoi DECOR's trace against
the proposing site's knowledge-limited Eq. 1, with cells, knowledge and
notifications recomputed from dense distances.  The restoration reports
are then checked against a brute-force dense-distance k-coverage count
that shares no ``FieldModel`` or ``CoverageState`` code, and a work count
pins that a warm epoch makes no per-sensor ball queries.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.checks import CHECKS
from repro.core import DecorPlanner, centralized_greedy, voronoi_decor
from repro.experiments import epoch_failure
from repro.field import FieldModel
from repro.geometry import Rect
from repro.network import SensorSpec

RS = 4.0


def brute_fraction(points: np.ndarray, positions: np.ndarray, k: int) -> float:
    """k-covered fraction of ``points`` by sensors at ``positions``, from
    plain pairwise distances."""
    if len(positions) == 0:
        return 0.0
    d2 = ((points[:, None, :] - positions[None, :, :]) ** 2).sum(axis=-1)
    counts = (d2 <= RS * RS).sum(axis=1)
    return float(np.count_nonzero(counts >= k)) / len(points)


# exact-distance partner offsets, as multiples of rs (exact for rs in 5, 10)
_UNIT_OFFSETS = [(1.0, 0.0), (0.0, -1.0), (0.6, 0.8), (-0.8, 0.6)]


@st.composite
def adversarial_fields(draw, long_offsets: bool = False):
    """Integer-lattice fields with duplicates and pairs at exactly ``rs``;
    with ``long_offsets``, partners also sit at 0.6, 1.6 and 2 ``rs``."""
    rs = draw(st.sampled_from([5.0, 10.0]))
    base = draw(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 30)),
            min_size=1, max_size=30,
        )
    )
    pts = [(float(x), float(y)) for x, y in base]
    pts += draw(st.lists(st.sampled_from(pts), max_size=6))
    scales = st.sampled_from([0.6, 1.0, 1.6, 2.0] if long_offsets else [1.0])
    partners = draw(
        st.lists(
            st.tuples(st.sampled_from(pts), st.sampled_from(_UNIT_OFFSETS), scales),
            max_size=8,
        )
    )
    pts += [(x + dx * a * rs, y + dy * a * rs) for (x, y), (dx, dy), a in partners]
    return np.array(pts), rs


@pytest.mark.parametrize("backend", ["kdtree", "gridhash"])
@settings(max_examples=40, deadline=None)
@given(case=adversarial_fields())
def test_adjacency_rows_equal_sorted_ball_queries(backend, case):
    points, rs = case
    model = FieldModel(points, backend=backend)
    adj = model.adjacency(rs)
    for i, center in enumerate(points):
        row = adj.indices[adj.indptr[i]:adj.indptr[i + 1]]
        ball = np.sort(model.query_ball(center, rs))
        assert np.array_equal(row, ball), (i, row, ball)
        # the closed ball: exact-distance pairs and duplicates are in
        d2 = ((points - center) ** 2).sum(axis=1)
        assert np.array_equal(ball, np.nonzero(d2 <= rs * rs)[0])


@st.composite
def ball_join_cases(draw):
    """An adversarial field, a radius (``rs``, 0, or more than the field's
    span) and probes: the field points, points on the lines of a grid of
    side ``r`` anchored at the field's lower-left corner (bin edges), and
    points outside the field's bounding box."""
    points, rs = draw(adversarial_fields())
    lo, hi = points.min(axis=0), points.max(axis=0)
    r = draw(st.sampled_from([rs, 0.0, 2.0 * float((hi - lo).max()) + 1.0]))
    step = r or 1.0
    lattice = draw(
        st.lists(
            st.tuples(st.integers(-3, 8), st.integers(-3, 8)), min_size=1, max_size=8
        )
    )
    edges = lo + step * np.array(lattice, dtype=np.float64)
    outside = np.array(
        [lo - 3.0 * step, hi + 3.0 * step, [lo[0] - step, hi[1] + step], [1e9, -1e9]]
    )
    return points, r, np.concatenate([points, edges, outside])


@settings(max_examples=60, deadline=None)
@given(case=ball_join_cases())
def test_ball_join_matches_dense_distances(case):
    """Grid-hash ball queries and adjacency equal the dense ``d² <= r²``
    sets; the kd-tree backend, an independent index, agrees."""
    points, r, probes = case
    grid = FieldModel(points, backend="gridhash")
    kdtree = FieldModel(points, backend="kdtree")
    d2 = ((probes[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1)
    within = d2 <= r * r
    batch = grid.query_ball_many(probes, r)
    kd_batch = kdtree.query_ball_many(probes, r)
    for i, probe in enumerate(probes):
        expected = np.nonzero(within[i])[0]
        assert np.array_equal(np.sort(batch[i]), expected), i
        assert np.array_equal(np.sort(grid.query_ball(probe, r)), expected), i
        assert np.array_equal(np.sort(kd_batch[i]), expected), i
    adj = grid.adjacency(r)
    dense = adj.toarray()
    assert np.array_equal(dense, within[: len(points)])
    assert np.array_equal(dense, dense.T)
    assert (np.diag(dense) == 1).all()
    for i in range(len(points)):
        row = adj.indices[adj.indptr[i]:adj.indptr[i + 1]]
        assert (np.diff(row) > 0).all(), i
    kd_adj = kdtree.adjacency(r)
    assert np.array_equal(kd_adj.indptr, adj.indptr)
    assert np.array_equal(kd_adj.indices, adj.indices)


def naive_eq1(
    points: np.ndarray, placed: np.ndarray, rs: float, k: int, mode: str
) -> np.ndarray:
    """Eq. 1 for every field point as the candidate, from dense distances.

    ``b(p)`` sums, over the points within ``rs`` of ``p``, the weight
    ``max(k - k_q, 0)`` (``"deficiency"``) or ``[k_q < k]`` (``"binary"``),
    where ``k_q`` counts the ``placed`` sensors within ``rs`` of ``q``.
    """
    r2 = rs * rs
    near = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1) <= r2
    hits = ((points[:, None, :] - placed[None, :, :]) ** 2).sum(axis=-1) <= r2
    counts = hits.sum(axis=1)
    if mode == "binary":
        weight = (counts < k).astype(np.int64)
    else:
        weight = np.maximum(k - counts, 0)
    return near.astype(np.int64) @ weight


@pytest.mark.parametrize("mode", ["deficiency", "binary"])
@settings(max_examples=40, deadline=None)
@given(case=adversarial_fields(), k=st.integers(1, 3))
def test_centralized_trace_follows_naive_eq1(mode, case, k):
    """Each greedy step places at the lowest-index maximiser of Eq. 1 given
    the sensors placed before it, and records that maximum."""
    points, rs = case
    result = centralized_greedy(
        points, SensorSpec(rs, 2.0 * rs), k, benefit_mode=mode
    )
    placed = result.trace.positions
    recorded = result.trace.benefits
    for step in range(len(placed)):
        gains = naive_eq1(points, placed[:step], rs, k, mode)
        best = int(np.flatnonzero(gains == gains.max())[0])
        assert np.array_equal(placed[step], points[best]), step
        np.testing.assert_array_equal(recorded[step], gains[best])
    # the loop stops exactly when no candidate has positive benefit left
    assert not naive_eq1(points, placed, rs, k, mode).any()


@st.composite
def voronoi_cases(draw):
    """An adversarial field with partners up to ``2 rs`` apart, ``rc`` in
    ``{1, 1.6, 2, 3} rs``, ``k`` in 1..3 and optional initial sites (field
    points or lattice points, duplicates included)."""
    points, rs = draw(adversarial_fields(long_offsets=True))
    rc = rs * draw(st.sampled_from([1.0, 1.6, 2.0, 3.0]))
    k = draw(st.integers(1, 3))
    pool = st.one_of(
        st.sampled_from([tuple(p) for p in points]),
        st.tuples(st.integers(0, 30), st.integers(0, 30)).map(
            lambda xy: (float(xy[0]), float(xy[1]))
        ),
    )
    initial = draw(st.lists(pool, max_size=4))
    initial += draw(st.lists(st.sampled_from(initial), max_size=2)) if initial else []
    return points, rs, rc, k, np.array(initial, dtype=float).reshape(-1, 2)


def _line(xs: list[float]) -> np.ndarray:
    return np.array([(x, 0.0) for x in xs])


# rs = 5, rc = 10: the proposer at 0, candidate 5 at exactly rc - rs, row
# point 10 at exactly rc (known by distance alone: site 17 owns it); the
# candidate ties the deficient point -6 and wins on the lower index
_AT_REACH = (_line([5.0, 10.0, -6.0]), 5.0, 10.0, 1, _line([0.0, 17.0]))
# rs = 5, rc = 8: candidate 3.002 is just beyond rc - rs = 3 and its disc
# holds 8.001, deficient and unknown (beyond rc, owned by site 14); crediting
# it would let the candidate tie -6 and win on the lower index
_BEYOND_REACH = (_line([3.002, 8.001, -6.0]), 5.0, 8.0, 1, _line([0.0, 14.0]))


@settings(max_examples=200, deadline=None)
@example(case=_AT_REACH)
@example(case=_BEYOND_REACH)
@given(case=voronoi_cases())
def test_voronoi_trace_follows_knowledge_limited_eq1(case):
    """Replay Voronoi DECOR against dense distances.  Before each step the
    sites own their nearest points (ties to the lowest site id); the
    proposer knows the points within ``rc`` of itself and the points it
    owns; it places at the lowest-index owned point maximising Eq. 1 over
    known points, records that maximum, and notifies every earlier site
    within ``rc`` of the new sensor."""
    points, rs, rc, k, initial = case
    result = voronoi_decor(points, SensorSpec(rs, rc), k, initial_positions=initial)
    positions = result.trace.positions
    sites = list(initial)
    start = 0
    if not len(initial):
        # the bootstrap seed: the global Eq. 1 maximiser, with no proposer
        gains = naive_eq1(points, np.empty((0, 2)), rs, k, "deficiency")
        assert np.array_equal(positions[0], points[int(np.argmax(gains))])
        assert result.trace.proposer[0] == -1
        sites.append(positions[0])
        start = 1
    near = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1) <= rs * rs
    for step in range(start, len(positions)):
        placed = np.array(sites)
        d2 = ((points[:, None, :] - placed[None, :, :]) ** 2).sum(axis=-1)
        owner = np.argmin(d2, axis=1)
        deficiency = np.maximum(k - (d2 <= rs * rs).sum(axis=1), 0)
        site = int(result.trace.proposer[step])
        known = (d2[:, site] <= rc * rc + 1e-12) | (owner == site)
        gains = near.astype(np.int64) @ (deficiency * known)
        owned = np.flatnonzero(owner == site)
        best = int(owned[np.argmax(gains[owned])])
        chosen = [i for i, p in enumerate(points) if np.array_equal(p, positions[step])]
        assert (owner[chosen] == site).any(), step
        assert np.array_equal(positions[step], points[best]), step
        np.testing.assert_array_equal(result.trace.benefits[step], gains[best])
        d2_sites = ((placed - positions[step]) ** 2).sum(axis=1)
        assert result.trace.messages[step] == np.count_nonzero(
            d2_sites <= rc * rc + 1e-12
        ), step
        sites.append(positions[step])
    d2 = ((points[:, None, :] - np.array(sites)[None, :, :]) ** 2).sum(axis=-1)
    assert ((d2 <= rs * rs).sum(axis=1) >= k).all()


def _planner(seed: int = 3) -> DecorPlanner:
    return DecorPlanner(
        Rect.square(30.0), SensorSpec(RS, 8.0), n_points=250, seed=seed
    )


@pytest.mark.parametrize("warm", [True, False])
@pytest.mark.parametrize("method", ["centralized", "grid", "voronoi"])
def test_restoration_reports_match_brute_force(method, warm):
    k = 2
    planner = _planner()
    points = np.array(planner.field.points)
    result = planner.deploy(k, method=method, cell_size=5.0)
    assert result.final_covered_fraction() == brute_fraction(
        points, result.deployment.alive_positions(), k
    )
    session = planner.session(result, method=method, warm=warm, cell_size=5.0)
    for epoch in range(5):
        dep = session.deployment
        event = epoch_failure(dep, planner.region, epoch, 0, radius=7.0)
        alive = dep.alive_ids()
        survivors = dep.positions[alive[~np.isin(alive, event.node_ids)]]
        report = session.restore(event)
        assert report.covered_before == brute_fraction(
            points, dep.alive_positions(), k
        )
        assert report.covered_after_failure == brute_fraction(
            points, survivors, k
        )
        assert report.covered_after_repair == brute_fraction(
            points, report.repair.deployment.alive_positions(), k
        )


@pytest.mark.parametrize("method", ["centralized", "grid", "voronoi"])
def test_warm_epoch_makes_no_per_sensor_ball_queries(method, monkeypatch):
    """An unrecorded warm epoch never touches the neighbour index, however
    many sensors are alive: the ``dirty_region`` footprint query runs only
    for the recorded ``fail`` flight event."""
    monkeypatch.setattr(CHECKS, "enabled", False)  # the sanitizer recounts
    planner = _planner()
    result = planner.deploy(2, method=method, cell_size=5.0)
    session = planner.session(result, method=method, warm=True, cell_size=5.0)
    stats = planner.field.stats
    deltas = []
    for epoch in range(6):
        event = epoch_failure(
            session.deployment, planner.region, epoch, 0, radius=7.0
        )
        before = stats.hit_count("index")
        session.restore(event)
        deltas.append(stats.hit_count("index") - before)
    assert deltas == [0] * len(deltas)

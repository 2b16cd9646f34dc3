"""Independent oracles for coverage taken from the benefit engine's rows.

A placement result's coverage is assembled from the rows its
:class:`~repro.core.benefit.BenefitEngine` recorded: CSR adjacency rows
for sensors placed on field points, ball queries for sensors at arbitrary
positions.  That is only sound if the two agree, so the first property
pins ``adjacency(rs)`` row ``i`` to ``sorted(query_ball(points[i], rs))``
on adversarial fields (duplicate points, pairs at exactly ``rs``), and
the ball queries and adjacency of the field's grid hash and of the
kd-tree reference are checked against dense distances, also for probes
on bin edges or outside the field and for radii of 0 and beyond the
field's span.  On the same fields the centralized greedy's trace is
replayed against a naive Eq. 1 evaluated from dense distances, Voronoi
DECOR's trace against the proposing site's knowledge-limited Eq. 1, with
cells, knowledge and notifications recomputed from dense distances, and
grid DECOR's trace against Eq. 1 restricted to the proposing cell, with
cells and border messages recomputed by floor division and
point-to-rectangle distances.  The columns each loop builds after it
are pinned for every method, random and lattice placement included: the
trace's covered fraction after each row, the deployment's added rows and
the messages per proposing cell or site.  Every method's result coverage (each
sensor's covered points and the counts) and the restoration reports are
then checked against a brute-force dense-distance count
(:func:`tests.oracles.dense_cover`) that shares no ``FieldModel`` or
``CoverageState`` code, and a work count pins that a warm epoch makes no
per-sensor ball queries.  Edge fields close the set: ``rs`` larger than
the field, a restoration from an empty deployment and epochs that fail
every alive node.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.checks import CHECKS
from repro.core import (
    DecorPlanner,
    RestorationSession,
    centralized_greedy,
    grid_decor,
    lattice_placement,
    random_placement,
    restore,
    voronoi_decor,
)
from repro.experiments import epoch_failure
from repro.field import FieldModel
from repro.field.backends import KDTreeBackend
from repro.geometry import Rect
from repro.network import Deployment, FailureEvent, SensorSpec
from tests.oracles import dense_cover

RS = 4.0


def brute_fraction(points: np.ndarray, positions: np.ndarray, k: int) -> float:
    """k-covered fraction of ``points`` by sensors at ``positions``, from
    plain pairwise distances."""
    return brute_fraction_at(points, positions, RS, k)


def brute_fraction_at(
    points: np.ndarray, positions: np.ndarray, rs: float, k: int
) -> float:
    """:func:`brute_fraction` for sensing radius ``rs``."""
    counts = dense_cover(points, positions, rs).sum(axis=0)
    return float(np.count_nonzero(counts >= k)) / len(points)


def assert_columns_follow_dense(
    points: np.ndarray, result, rs: float, k: int, initial: np.ndarray
) -> None:
    """The columns a placement loop builds after it: the deployment's added
    rows are the trace's positions, and row ``j``'s covered fraction is the
    k-covered fraction, by dense distances, of the initial sensors plus
    the first ``j + 1`` added ones."""
    trace = result.trace
    positions = trace.positions
    assert np.array_equal(result.deployment.positions[result.added_ids], positions)
    sensors = np.concatenate([np.reshape(initial, (-1, 2)), positions])
    counts = np.cumsum(dense_cover(points, sensors, rs), axis=0)
    after = counts[len(sensors) - len(positions):]
    expected = np.count_nonzero(after >= k, axis=1) / len(points)
    np.testing.assert_array_equal(trace.covered_fraction, expected)


def messages_by_proposer(trace, n: int) -> np.ndarray:
    """The trace's messages summed per proposing cell or site (rows
    without a proposer send none)."""
    proposer, messages = trace.proposer, trace.messages
    assert not messages[proposer < 0].any()
    out = np.zeros(n, dtype=np.int64)
    np.add.at(out, proposer[proposer >= 0], messages[proposer >= 0])
    return out


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


@pytest.mark.parametrize(
    "index", [KDTreeBackend, FieldModel], ids=["kdtree", "gridhash"]
)
@settings(max_examples=40, deadline=None)
@given(case=adversarial_fields())
def test_adjacency_rows_equal_sorted_ball_queries(index, case):
    points, rs = case
    model = index(points)
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
    sets; the kd-tree reference, an independent index, agrees."""
    points, r, probes = case
    grid = FieldModel(points)
    kdtree = KDTreeBackend(points)
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
    assert_columns_follow_dense(points, result, rs, k, np.empty((0, 2)))


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
    assert_columns_follow_dense(points, result, rs, k, initial)
    # one entry per node, initial and added alike
    assert np.array_equal(
        result.messages.per_cell,
        messages_by_proposer(result.trace, len(initial) + len(positions)),
    )


@st.composite
def grid_cases(draw):
    """An adversarial field in an integer region padded around it, a cell
    side, ``k`` in 1..3 and optional initial sensors on lattice points."""
    points, rs = draw(adversarial_fields())
    lo, hi = points.min(axis=0), points.max(axis=0)
    pad = st.sampled_from([0.0, 1.0, 3.0])
    bounds = (
        lo[0] - draw(pad), lo[1] - draw(pad),
        hi[0] + 1.0 + draw(pad), hi[1] + 1.0 + draw(pad),
    )
    cell = draw(st.sampled_from([3.0, 5.0, 7.0, 10.0]))
    k = draw(st.integers(1, 3))
    initial = draw(
        st.lists(st.tuples(st.integers(-5, 35), st.integers(-5, 35)), max_size=4)
    )
    return points, rs, bounds, cell, k, np.array(initial, dtype=float).reshape(-1, 2)


@settings(max_examples=60, deadline=None)
@given(case=grid_cases())
def test_grid_trace_follows_cell_restricted_eq1(case):
    """Replay grid DECOR against dense distances.  A point's cell is the
    floor division of its offset by the cell side, clamped to the grid.
    Each round, the cells holding a deficient point at the round's start
    propose in ascending id order, skipping a cell with no deficient
    point left when its turn comes.  The proposer places at the
    lowest-index point of its cell maximising Eq. 1 over the points of
    its own cell, records that maximum, and messages every other cell
    whose rectangle lies within ``rs`` of the new sensor."""
    points, rs, bounds, cell, k, initial = case
    result = grid_decor(
        points, SensorSpec(rs, 2.0 * rs), k, Rect(*bounds), cell,
        initial_positions=initial,
    )
    bx0, by0, bx1, by1 = bounds
    nx = max(1, math.ceil((bx1 - bx0) / cell))
    ny = max(1, math.ceil((by1 - by0) / cell))
    ix = np.clip(np.floor((points[:, 0] - bx0) / cell).astype(np.intp), 0, nx - 1)
    iy = np.clip(np.floor((points[:, 1] - by0) / cell).astype(np.intp), 0, ny - 1)
    cell_of = iy * nx + ix
    # every cell's rectangle, truncated at the region's far edges
    gx, gy = np.meshgrid(np.arange(nx), np.arange(ny))
    x0, y0 = bx0 + gx.ravel() * cell, by0 + gy.ravel() * cell
    x1, y1 = np.minimum(x0 + cell, bx1), np.minimum(y0 + cell, by1)
    near = dense_cover(points, points, rs)
    same_cell = near & (cell_of[:, None] == cell_of[None, :])
    counts = dense_cover(points, initial, rs).sum(axis=0)
    steps = []
    while (counts < k).any():
        for cid in np.unique(cell_of[counts < k]).tolist():
            members = np.flatnonzero(cell_of == cid)
            if (counts[members] >= k).all():
                continue
            gains = same_cell[members].astype(np.int64) @ np.maximum(k - counts, 0)
            best = int(members[np.argmax(gains)])
            px, py = points[best]
            dx = np.maximum(np.maximum(x0 - px, 0.0), px - x1)
            dy = np.maximum(np.maximum(y0 - py, 0.0), py - y1)
            reached = np.flatnonzero(dx * dx + dy * dy <= rs * rs)
            steps.append((cid, best, int(gains.max()), int(np.count_nonzero(reached != cid))))
            counts = counts + near[best]
    trace = result.trace
    assert len(trace) == len(steps)
    for step, (cid, best, gain, messages) in enumerate(steps):
        assert trace.proposer[step] == cid, step
        assert np.array_equal(trace.positions[step], points[best]), step
        np.testing.assert_array_equal(trace.benefits[step], gain)
        assert trace.messages[step] == messages, step
    assert_columns_follow_dense(points, result, rs, k, initial)
    assert np.array_equal(result.messages.per_cell, messages_by_proposer(trace, nx * ny))


@settings(max_examples=40, deadline=None)
@given(
    case=adversarial_fields(),
    k=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    n_initial=st.integers(0, 4),
)
def test_random_trace_follows_dense_coverage(case, k, seed, n_initial):
    """Random placement keeps every drop until one completes k-coverage,
    and stops there: the covered fraction, by dense distances, reaches 1
    exactly at the trace's last row."""
    points, rs = case
    region = Rect(*(points.min(axis=0) - rs), *(points.max(axis=0) + rs))
    initial = region.sample(n_initial, np.random.default_rng(seed + 1))
    result = random_placement(
        points, SensorSpec(rs, 2.0 * rs), k, np.random.default_rng(seed),
        region=region, initial_positions=initial,
    )
    assert_columns_follow_dense(points, result, rs, k, initial)
    fraction = result.trace.covered_fraction
    if len(fraction):
        assert fraction[-1] == 1.0
        assert (fraction[:-1] < 1.0).all()
    else:
        assert brute_fraction_at(points, initial, rs, k) == 1.0
    assert not result.trace.benefits.any()
    assert (result.trace.proposer == -1).all()


@settings(max_examples=40, deadline=None)
@given(case=adversarial_fields(), k=st.integers(1, 3))
def test_lattice_trace_follows_dense_coverage(case, k):
    """Lattice placement: ``k`` layers of sites (proposer = layer, no
    benefit), then greedy top-ups (proposer -1) until full k-coverage."""
    points, rs = case
    region = Rect(*(points.min(axis=0) - 1.0), *(points.max(axis=0) + 1.0))
    result = lattice_placement(points, SensorSpec(rs, 2.0 * rs), k, region=region)
    assert_columns_follow_dense(points, result, rs, k, np.empty((0, 2)))
    trace = result.trace
    topup = result.params["topup"]
    sites = len(trace) - topup
    assert trace.covered_fraction[-1] == 1.0
    assert (np.diff(trace.proposer[:sites]) >= 0).all()
    assert set(trace.proposer[:sites].tolist()) <= set(range(k))
    assert np.isnan(trace.benefits[:sites]).all()
    assert (trace.proposer[sites:] == -1).all()
    assert (trace.benefits[sites:] > 0).all()


def _planner(seed: int = 3) -> DecorPlanner:
    return DecorPlanner(
        Rect.square(30.0), SensorSpec(RS, 8.0), n_points=250, seed=seed
    )


def assert_coverage_is_dense(points: np.ndarray, result) -> None:
    """A result's coverage, sensor by sensor, equals dense distances to
    the alive sensors' positions, and its counts equal the rows' sum."""
    coverage = result.coverage
    keys = coverage.sensor_keys()
    assert keys == result.deployment.alive_ids().tolist()
    cover = dense_cover(points, result.deployment.positions[keys], RS)
    for key, row in zip(keys, cover):
        covered = np.sort(coverage.points_covered_by(key))
        assert np.array_equal(covered, np.flatnonzero(row)), key
    assert np.array_equal(coverage.counts, cover.sum(axis=0))


@pytest.mark.parametrize("method", ["centralized", "grid", "voronoi", "random"])
def test_result_coverage_matches_dense_distances(method):
    """Sensors placed on field points (adjacency rows), initial sensors
    anywhere (ball queries) and a warm repair's survivors (rows compacted
    by the failure) all report the points dense distances give."""
    planner = _planner()
    points = np.array(planner.field.points)
    initial = np.random.default_rng(5).random((12, 2)) * 30.0
    result = planner.deploy(
        2, method=method, cell_size=5.0, initial_positions=initial
    )
    assert_coverage_is_dense(points, result)
    session = planner.session(result, method=method, cell_size=5.0)
    event = epoch_failure(session.deployment, planner.region, 0, 0, radius=7.0)
    assert event.node_ids.size
    assert_coverage_is_dense(points, session.restore(event).repair)


@pytest.mark.parametrize("carry_engine", [True, False])
@pytest.mark.parametrize("method", ["centralized", "grid", "voronoi"])
def test_restoration_reports_match_brute_force(method, carry_engine):
    """Five epochs of reports equal brute force, both from the one-shot
    ``restore`` chained from the deployment, which builds a fresh engine
    each epoch, and from a session, which carries its engine across them;
    the session's reports and deployments equal the chained ones too."""
    k = 2
    planner = _planner()
    points = np.array(planner.field.points)
    result = planner.deploy(k, method=method, cell_size=5.0)
    assert result.final_covered_fraction() == brute_fraction(
        points, result.deployment.alive_positions(), k
    )
    session = planner.session(result, method=method, cell_size=5.0)
    chained = result
    for epoch in range(5):
        dep = session.deployment if carry_engine else chained.deployment
        event = epoch_failure(dep, planner.region, epoch, 0, radius=7.0)
        alive = dep.alive_ids()
        survivors = dep.positions[alive[~np.isin(alive, event.node_ids)]]
        report = one_shot = restore(
            planner.field, planner.spec, chained, event, k, method,
            region=planner.region, cell_size=5.0,
        )
        chained = one_shot.repair
        if carry_engine:
            report = session.restore(event)
            assert (
                one_shot.covered_before,
                one_shot.covered_after_failure,
                one_shot.covered_after_repair,
                one_shot.extra_nodes,
            ) == (
                report.covered_before,
                report.covered_after_failure,
                report.covered_after_repair,
                report.extra_nodes,
            ), epoch
            assert np.array_equal(
                one_shot.repair.deployment.positions,
                report.repair.deployment.positions,
            ), epoch
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
    session = planner.session(result, method=method, cell_size=5.0)
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


METHODS = ["centralized", "grid", "voronoi", "random"]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("method", METHODS)
def test_sensing_disc_larger_than_field(method, k):
    """With ``rs`` 20 on a 10 x 10 field every sensor covers every point,
    so each method places exactly k sensors."""
    planner = DecorPlanner(Rect.square(10.0), SensorSpec(20.0, 40.0), n_points=100)
    result = planner.deploy(k, method=method, cell_size=5.0)
    positions = result.deployment.alive_positions()
    assert len(positions) == k
    counts = dense_cover(np.array(planner.field.points), positions, 20.0).sum(axis=0)
    assert (counts == k).all()


@pytest.mark.parametrize("method", METHODS)
def test_restore_from_empty_deployment(method):
    """An empty network with an empty failure is repaired to full
    k-coverage; centralized places what it places from scratch."""
    k = 2
    planner = _planner()
    points = np.array(planner.field.points)
    nothing = FailureEvent(np.empty(0, dtype=np.intp), "random")
    report = restore(
        planner.field, planner.spec, Deployment(), nothing, k, method,
        region=planner.region, rng=np.random.default_rng(1), cell_size=5.0,
    )
    assert report.covered_before == report.covered_after_failure == 0.0
    assert report.covered_after_repair == 1.0
    positions = report.repair.deployment.alive_positions()
    assert brute_fraction(points, positions, k) == 1.0
    if method == "centralized":
        scratch = centralized_greedy(planner.field, planner.spec, k)
        assert np.array_equal(positions, scratch.deployment.alive_positions())


@pytest.mark.parametrize("method", METHODS)
def test_failing_every_node_warm_equals_cold(method):
    """Three epochs that each fail every alive node: a session and the
    one-shot ``restore`` chained from the same deployment report alike,
    coverage drops to 0 and is repaired to 1."""
    k = 2
    planner = _planner()
    points = np.array(planner.field.points)
    result = planner.deploy(k, method=method, cell_size=5.0)
    session = RestorationSession(
        planner.field, planner.spec, result, k, method,
        region=planner.region, rng=np.random.default_rng(7), cell_size=5.0,
    )
    rng = np.random.default_rng(7)
    chained = result
    for epoch in range(3):
        everyone = FailureEvent(session.deployment.alive_ids(), "random")
        warm = session.restore(everyone)
        everyone = FailureEvent(chained.deployment.alive_ids(), "random")
        cold = restore(
            planner.field, planner.spec, chained, everyone, k, method,
            region=planner.region, rng=rng, cell_size=5.0,
        )
        chained = cold.repair
        nobody = brute_fraction(points, np.empty((0, 2)), k)
        for report in (warm, cold):
            assert report.covered_after_failure == nobody == 0.0, epoch
            positions = report.repair.deployment.alive_positions()
            assert report.covered_after_repair == 1.0, epoch
            assert brute_fraction(points, positions, k) == 1.0, epoch
        assert np.array_equal(warm.failure.node_ids, cold.failure.node_ids), epoch
        assert warm.covered_before == cold.covered_before, epoch
        assert warm.extra_nodes == cold.extra_nodes, epoch
        assert np.array_equal(
            warm.repair.deployment.positions, cold.repair.deployment.positions
        ), epoch
        assert np.array_equal(
            warm.repair.deployment.alive_mask, cold.repair.deployment.alive_mask
        ), epoch

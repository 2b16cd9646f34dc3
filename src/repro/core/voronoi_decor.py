"""Voronoi-based DECOR (paper §3.1 Definition 1, §3.3).

Every node owns its *local Voronoi cell* — the field points closer to it
than to any other node — and repairs deficiencies inside that cell.  A node's
knowledge horizon is its communication radius ``rc``: when scoring a
candidate location it can only credit points it knows about, i.e. points
within ``rc`` of itself plus the points of its own cell (the paper notes a
node "can accurately estimate the coverage of each of its points" because
``rs <= rc``).  A small ``rc`` therefore means myopic decisions and more
redundant nodes; a large ``rc`` approaches the centralized benefit — exactly
the trend of Figure 9.

Newly placed nodes immediately become cell owners themselves: they steal the
points nearest to them and take part in subsequent rounds, which is how
coverage "gradually" expands into large uncovered regions (§3.2).

Messages: a node placing a new sensor must inform every alive node within
``rc`` of the new position so they can shrink their cells (§3.1); Figure 10's
Voronoi series counts exactly these notifications per (placing) node.
"""

from __future__ import annotations

import numpy as np

from repro.checks import greedy_checker
from repro.core._common import finalize, init_run, placement_budget, placement_trace
from repro.core.benefit import BenefitEngine
from repro.core.result import DeploymentResult, MessageStats
from repro.errors import PlacementError
from repro.field.csr import sorted_unique
from repro.geometry.voronoi import VoronoiOwnership
from repro.network.spec import SensorSpec
from repro.obs import OBS

__all__ = ["voronoi_decor", "local_voronoi_benefit"]


def local_voronoi_benefit(
    engine: BenefitEngine,
    ownership: VoronoiOwnership,
    rc: float,
    site: int,
    site_pos: np.ndarray,
    candidates: np.ndarray,
) -> np.ndarray:
    """Eq. (1) as seen by one Voronoi node (knowledge-limited).

    The node credits a candidate only for deficient points it can know
    about: points within ``rc`` of itself, plus the points of its own cell
    (whose coverage it tracks exactly, §3.3); ``candidates`` lie in that
    cell.  Shared by the analytic round model and the packet-level protocol
    so the two provably score identically.

    A candidate within ``reach = rc - rs`` of its site covers only points
    within ``rc`` of it (triangle inequality), so it keeps the engine's
    exact Eq. 1; only the others are re-scored by a masked gather of their
    rows.  Near means ``owner_distance2 <= (reach * (1 - 1e-9))**2`` and
    ``reach > 1e-6 * rc``.  Rounding: a computed ``dx*dx + dy*dy`` is within
    a relative ``4u`` (``u = 2**-53``) of exact, so a near candidate lies
    within ``(rc - rs) * (1 - 1e-9) * (1 + 5u)`` of its site and its row
    points within ``rs * (1 + 2.5u)`` of it; ``(rc - rs) * 1e-9 > 1e-15 * rc``
    exceeds the ``7.5u * rc`` margin the "known" test ``<= rc**2 + 1e-12``
    needs, at any ``rc``.
    """
    full = engine.benefit_adjacency is engine.coverage_adjacency
    if not full or engine.benefit_mode != "deficiency":
        raise PlacementError("the Voronoi benefit needs a full-adjacency deficiency engine")
    benefit = engine.benefit[candidates]
    reach = rc - engine.sensing_radius
    far_at = slice(None)  # every candidate, unless the reach is positive
    if reach > 1e-6 * rc:
        limit = reach * (1.0 - 1e-9)
        far_at = (ownership.owner_distance2[candidates] > limit * limit).nonzero()[0]
    far = candidates[far_at]
    if far.size == 0:
        return benefit
    adjacency = engine.coverage_adjacency
    cov_rows = adjacency.rows()
    rows = np.concatenate([cov_rows[i] for i in far.tolist()])
    lens = adjacency.indptr[far + 1] - adjacency.indptr[far]
    diff = engine.field.points[rows] - site_pos
    diff *= diff
    known = diff[:, 0] + diff[:, 1] <= rc**2 + 1e-12
    known |= ownership.owner[rows] == site
    contrib = np.maximum(engine.k - engine.counts[rows], 0) * known
    seg = np.arange(far.size).repeat(lens)
    benefit[far_at] = np.bincount(seg, weights=contrib, minlength=far.size)
    return benefit


def voronoi_decor(
    field_points: np.ndarray,
    spec: SensorSpec,
    k: int,
    *,
    initial_positions: np.ndarray | None = None,
    max_nodes: int | None = None,
    engine=None,
    stop_at_budget: bool = False,
) -> DeploymentResult:
    """k-cover the field with per-node local-Voronoi greedy placement.

    Parameters
    ----------
    field_points:
        ``(n, 2)`` field approximation, or a shared
        :class:`~repro.field.FieldModel` over it.
    spec:
        Sensor radii; ``rc`` is the knowledge/notification horizon (paper
        sweeps ``rc = 8`` vs ``rc = 10 * sqrt(2)``).
    k:
        Coverage requirement.
    initial_positions:
        Pre-existing sensors.  If none are given the run is bootstrapped
        with a single seed node at the globally best field point (the paper
        always starts from a partial deployment; the seed models the base
        station dropping the first sensor).
    engine:
        Optional pre-warmed :class:`~repro.core.benefit.BenefitEngine`
        already accounting ``initial_positions`` (the warm-restoration
        seam); built fresh when omitted.
    stop_at_budget:
        Return the (partial) deployment when ``max_nodes`` is exhausted
        instead of raising — used by :func:`repro.core.restoration.restore`
        to report truncated repairs.

    Returns
    -------
    DeploymentResult
        ``method == "voronoi"``; ``messages.per_cell`` has one entry per
        node that placed at least one sensor... per *added or initial* node
        id, since in this architecture every node is its own cell.
    """
    field, deployment, engine = init_run(
        field_points, spec, k, initial_positions, engine=engine
    )
    pts = field.points
    n_initial = deployment.n_total
    chosen: list[int] = []
    benefits: list[float] = []
    kcovered: list[int] = []
    proposers: list[int] = []
    sent: list[int] = []

    if deployment.n_alive == 0:
        seed_idx = engine.argmax()
        engine.place_at(seed_idx)
        deployment.add(pts[seed_idx])
        chosen.append(seed_idx)
        benefits.append(float("nan"))
        kcovered.append(engine.n_kcovered)
        proposers.append(-1)
        sent.append(0)
    seeded = deployment.n_total - n_initial  # 1 after a bootstrap seed

    # site ids in the ownership structure correspond 1:1 to deployment node
    # ids: the sites start as the (all alive) nodes so far, and the loop's
    # nodes join the deployment after it in site order
    ownership = VoronoiOwnership(pts, deployment.alive_positions())

    rc = spec.communication_radius
    budget = placement_budget(engine.n_points, k, max_nodes)
    checker = greedy_checker(engine, method="voronoi")

    rounds = 0
    truncated = False
    with OBS.span(
        "placement", method="voronoi", k=k, rc=float(spec.communication_radius)
    ) as span, OBS.run(
        "voronoi_decor", k=int(k), rc=float(spec.communication_radius)
    ) as frun:
        progress = True
        owner = ownership.owner
        counts = engine.counts
        while progress and not truncated:
            progress = False
            rounds += 1
            # only sites owning a deficient point at the round's start can
            # place in it: cells only shrink within a round (sites added now
            # join the next one) and coverage only grows, so a site's cell is
            # its start-of-round cell filtered by the current owner
            active = sorted_unique(owner[engine.deficient_indices()])
            order = np.argsort(owner, kind="stable")
            los, his = np.searchsorted(owner[order], (active, active + 1)).tolist()
            for site, lo, hi in zip(active.tolist(), los, his):
                owned = order[lo:hi]
                owned = owned[owner[owned] == site]
                if not (counts[owned] < k).any():
                    continue
                if len(chosen) >= budget:
                    if stop_at_budget:
                        truncated = True
                        break
                    raise PlacementError(
                        f"Voronoi DECOR exceeded its budget of {budget} nodes"
                    )
                scores = local_voronoi_benefit(
                    engine, ownership, rc, site, ownership.site_position(site), owned
                )
                best = int(scores.argmax())
                benefit = float(scores[best])
                if benefit <= 0.0:
                    # a deficient owned point scores at least its own deficiency
                    raise PlacementError(
                        f"site {site} has deficient points but zero benefit"
                    )
                idx = int(owned[best])
                engine.place_at(idx)
                pos = pts[idx]
                sid, stolen = ownership.add_site(pos)
                # notify the alive nodes within rc of the new sensor (sites
                # are the deployment's nodes 1:1); the count includes it
                n_msgs = ownership.count_alive_within(sid, rc) - 1
                chosen.append(idx)
                benefits.append(benefit)
                kcovered.append(engine.n_kcovered)
                proposers.append(site)
                sent.append(n_msgs)
                checker.after_step(len(chosen) - 1, idx, pos)
                progress = True
                if OBS.enabled:
                    # analytic rounds stand in for sim time; the acting
                    # "node" is the placing Voronoi site
                    OBS.flight.emit(
                        "placement", int(site), t=float(rounds), cause=None,
                        point=idx, benefit=benefit, messages=n_msgs,
                    )
                    OBS.flight.emit(
                        "handoff", sid, t=float(rounds), cause=None,
                        from_site=int(site),
                        points_owned=int(stolen.size),
                    )
        span.set(placed=len(chosen), rounds=rounds, messages=sum(sent))
        frun.set(placed=len(chosen), rounds=rounds)

    if not truncated and not engine.is_fully_covered():  # pragma: no cover - defensive
        raise PlacementError("Voronoi DECOR stalled before reaching full coverage")

    positions = pts[chosen]
    deployment.add_many(positions[seeded:])
    # the notifications each node sent, one entry per node (every node is
    # its own cell)
    msgs = np.zeros(deployment.n_total, dtype=np.int64)
    np.add.at(msgs, proposers[seeded:], sent[seeded:])
    messages = MessageStats(
        per_cell=msgs, nodes_per_cell=np.ones_like(msgs)
    )
    return finalize(
        method="voronoi",
        k=k,
        engine=engine,
        deployment=deployment,
        added_ids=np.arange(n_initial, deployment.n_total, dtype=np.intp),
        trace=placement_trace(
            positions, benefits, kcovered, engine.n_points, proposers, sent
        ),
        messages=messages,
        params={"rc": float(spec.communication_radius)},
    )

"""Domain health gauges: live network state distilled into a few numbers.

The paper's premise is *continuous monitoring of network health to trigger
restoration*; this module is the monitoring half.  Each ``record_*`` helper
reads live domain state (a :class:`~repro.network.coverage.CoverageState`,
the sim's energy/radio accounting, a cell of protocol nodes) and sets the
corresponding ``health_*`` gauges in the global metrics registry — which the
time-series sampler (:mod:`repro.obs.sampler`) then turns into trajectories.

Gauge catalogue (all unlabelled; one series each):

====================================  =========================================
``health_coverage_fraction``          fraction of field points with >= k sensors
``health_k_deficient_points``         points below the k target
``health_open_holes``                 connected deficient components
                                      (:func:`repro.analysis.holes.find_holes`)
``health_min_coverage``               the weakest point's sensor count
``health_node_energy_min``            lowest per-node energy spend so far
``health_node_energy_mean``           mean per-node energy spend
``health_suspected_nodes``            neighbours currently suspected failed
``health_election_churn``             leadership changes beyond the first
                                      election, summed over cells
====================================  =========================================

Every helper is a *touchpoint* in the OBS001/OBS004 sense: callers outside
``repro.obs`` must guard with ``if OBS.enabled:`` so the disabled path never
pays for hole detection or energy profiling.  The helpers only observe —
they never mutate domain state — so enabling them cannot change results.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.obs.runtime import OBS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs <- analysis)
    from repro.network.coverage import CoverageState
    from repro.sim.heartbeat import HeartbeatNode
    from repro.sim.radio import RadioStats
    from repro.sim.stats import EnergyModel

__all__ = [
    "coverage_health",
    "record_coverage_health",
    "record_energy_health",
    "record_protocol_health",
]


def coverage_health(coverage: "CoverageState", k: int) -> dict[str, float]:
    """Pure computation of the coverage gauges (no registry writes).

    Hole detection short-circuits: a fully covered field has no deficient
    points, so :func:`~repro.analysis.holes.find_holes` returns immediately
    and the steady-state cost is two vectorised passes over the counts.
    """
    from repro.analysis.holes import find_holes

    deficient = int(coverage.deficient_indices(k).size)
    holes = len(find_holes(coverage, k)) if deficient else 0
    return {
        "health_coverage_fraction": coverage.covered_fraction(k),
        "health_k_deficient_points": float(deficient),
        "health_open_holes": float(holes),
        "health_min_coverage": float(coverage.min_coverage()),
    }


def record_coverage_health(coverage: "CoverageState", k: int) -> None:
    """Set the coverage gauges from a live coverage state."""
    for name, value in coverage_health(coverage, k).items():
        OBS.metrics.gauge(name).set(value)


def record_energy_health(
    energy: "EnergyModel", stats: "RadioStats"
) -> None:
    """Set the energy gauges from one radio run's per-node accounting."""
    profile = energy.energy_profile(stats)
    if not profile:
        return
    values = list(profile.values())
    OBS.metrics.gauge("health_node_energy_min").set(min(values))
    OBS.metrics.gauge("health_node_energy_mean").set(
        sum(values) / len(values)
    )


def record_protocol_health(
    heartbeats: Iterable["HeartbeatNode"] = (),
    elections: Iterable[object] = (),
) -> None:
    """Set the liveness gauges from a run's protocol nodes.

    ``heartbeats`` contribute the union of currently suspected neighbours;
    ``elections`` (anything with a ``leadership_history`` list, e.g.
    :class:`~repro.sim.election.CellElectionNode`) contribute churn — the
    number of leadership changes beyond each cell's first election.
    """
    suspected: set[int] = set()
    for node in heartbeats:
        suspected |= node.suspected()
    OBS.metrics.gauge("health_suspected_nodes").set(float(len(suspected)))
    churn = 0
    seen = False
    for cell in elections:
        history: list[int] = getattr(cell, "leadership_history", [])
        seen = True
        last: int | None = None
        for leader in history:
            if last is not None and leader != last:
                churn += 1
            last = leader
    if seen:
        OBS.metrics.gauge("health_election_churn").set(float(churn))

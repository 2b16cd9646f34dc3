#!/usr/bin/env python
"""Quickstart: k-cover a field, inspect the deployment, repair a failure.

Walks the library's main loop in ~40 lines:

1. translate a user reliability requirement into a coverage degree k,
2. approximate the monitored area with Halton points,
3. deploy with distributed (Voronoi) DECOR,
4. evaluate the deployment,
5. break it with a disaster and restore it,
6. read the built-in trace of where the time went.

Run:  python examples/quickstart.py
"""

from repro import DecorPlanner, Rect, SensorSpec, area_failure, required_k
from repro.analysis import evaluate_deployment
from repro.experiments.summary import summarize_trace
from repro.obs import OBS


def main() -> None:
    # 0. record what the run does (spans and counters); everything
    #    below behaves bit-identically with this line removed
    OBS.enable(fresh=True)
    # 1. the user wants points monitored with 99.9% reliability when each
    #    sensor independently fails with probability 10%
    k = required_k(target_reliability=0.999, q=0.10)
    print(f"reliability target 0.999 at q=0.1  ->  k = {k}")

    # 2.-3. a 60x60 m field, sensing radius 4 m, radio range 8 m
    planner = DecorPlanner(
        Rect.square(60.0),
        SensorSpec(sensing_radius=4.0, communication_radius=8.0),
        n_points=720,           # same point density as the paper's setup
        seed=7,
    )
    result = planner.deploy(k, method="voronoi")
    print(f"deployed {result.total_alive} nodes "
          f"({result.final_covered_fraction():.0%} of points {k}-covered)")

    # 4. quality report
    metrics = evaluate_deployment(result, area=planner.region.area)
    print(f"disc-packing lower bound: {metrics.lower_bound} nodes "
          f"(overprovision {metrics.overprovision:.2f}x, "
          f"redundancy {metrics.redundancy:.1%})")

    # 5. a disaster wipes out everything within 12 m of the field center
    event = area_failure(result.deployment, planner.region.center, 12.0)
    report = planner.restore_after(result, event, method="voronoi")
    print(f"disaster killed {event.n_failed} nodes, coverage fell to "
          f"{report.covered_after_failure:.0%}")
    print(f"restoration added {report.extra_nodes} nodes, coverage back to "
          f"{report.covered_after_repair:.0%}")

    # 6. the observability layer watched all of it
    OBS.disable()
    print()
    print(summarize_trace(OBS.tracer).format())
    placed = OBS.metrics.value("decor_placements_total", method="voronoi")
    print(f"metrics: {placed} voronoi placements recorded")
    OBS.reset()


if __name__ == "__main__":
    main()

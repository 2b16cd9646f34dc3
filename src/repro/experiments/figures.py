"""One function per figure of the paper's evaluation (§4, Figures 7-14).

Every function takes an :class:`~repro.experiments.setup.ExperimentSetup`
(and optionally a shared :class:`~repro.experiments.runner.DeploymentCache`)
and returns a :class:`FigureResult` holding the seed-averaged series — the
same x/y data the paper plots.  The benchmark suite regenerates each figure
and asserts its qualitative shape; ``decor figure N`` prints it as a table.

Figure map
----------
=====  ================================================================
Fig 7  k-covered fraction vs number of deployed nodes (k = 3)
Fig 8  nodes needed for 100% k-coverage vs k
Fig 9  percentage of redundant nodes vs k
Fig 10 messages per cell vs k (the four distributed variants)
Fig 11 3-covered fraction vs fraction of random node failures
Fig 12 max failure fraction keeping 1-coverage of >= 90% of the area
Fig 13 k-covered fraction right after a disaster disc (radius 0.24 side)
Fig 14 extra nodes needed to restore full k-coverage after the disaster
=====  ================================================================
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.survival import (
    max_tolerable_failure_fraction,
    removal_survival_curve,
)
from repro.core.redundancy import redundancy_fraction, redundant_nodes
from repro.core.restoration import restore
from repro.errors import ExperimentError
from repro.experiments.runner import DeploymentCache
from repro.experiments.setup import DECOR_SERIES, SERIES, ExperimentSetup
from repro.network.failures import area_failure
from repro.obs import OBS

__all__ = [
    "FigureResult",
    "fig07_coverage_vs_nodes",
    "fig08_nodes_vs_k",
    "fig09_redundancy",
    "fig10_messages",
    "fig11_random_failures",
    "fig12_max_failures",
    "fig13_area_failure",
    "fig14_restoration",
    "FIGURES",
    "cells_for_figure",
    "run_figure",
]


@dataclass
class FigureResult:
    """Seed-averaged data of one figure.

    Attributes
    ----------
    figure_id / title / xlabel / ylabel:
        Presentation metadata matching the paper's figure.
    series:
        ``name -> (x, y)`` arrays, one entry per plotted line.
    meta:
        Auxiliary measurements referenced by EXPERIMENTS.md (per-node
        message counts, absolute redundant node counts, ...).
    """

    figure_id: str
    title: str
    xlabel: str
    ylabel: str
    series: dict[str, tuple[np.ndarray, np.ndarray]]
    meta: dict = field(default_factory=dict)

    def series_names(self) -> list[str]:
        return list(self.series)

    def y_of(self, name: str) -> np.ndarray:
        return self.series[name][1]


def _figure_span(figure_id: str):
    """Wrap a figure function in an ``OBS.span("figure", ...)``.

    Applied at definition so direct calls produce the figure → series → k
    hierarchy; :func:`run_figure` opens the span itself, around the
    parallel prefill too, and calls the wrapped function inside it.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with OBS.span("figure", figure=figure_id):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


def _seeds(setup: ExperimentSetup) -> range:
    return range(setup.n_seeds)


def _mean_over_seeds(values: list[np.ndarray]) -> np.ndarray:
    return np.mean(np.vstack(values), axis=0)


def _effective_k(setup: ExperimentSetup, k: int) -> int:
    """Clamp a figure's fixed k (the paper uses 3) into the setup's range."""
    return min(k, max(setup.k_values))


# ----------------------------------------------------------------------
# Figure 7
# ----------------------------------------------------------------------
@_figure_span("fig07")
def fig07_coverage_vs_nodes(
    setup: ExperimentSetup,
    cache: DeploymentCache | None = None,
    *,
    k: int = 3,
    n_grid: int = 40,
) -> FigureResult:
    """Percentage of k-covered points vs number of deployed nodes (Fig 7)."""
    cache = cache if cache is not None else DeploymentCache(setup)
    k = _effective_k(setup, k)
    # common node-count grid spanning all series (random reaches furthest)
    per_series_curves: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
    xmax = 0
    for series in SERIES:
        for seed in _seeds(setup):
            result = cache.get(series, k, seed)
            xs, ys = result.coverage_trajectory()
            per_series_curves.setdefault(series.name, []).append((xs, ys))
            xmax = max(xmax, int(xs[-1]) if xs.size else 0)
    grid = np.unique(np.linspace(0, xmax, n_grid).astype(int))
    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for name, curves in per_series_curves.items():
        ys_all = []
        for xs, ys in curves:
            if xs.size == 0:
                ys_all.append(np.ones_like(grid, dtype=float))
                continue
            ys_all.append(np.interp(grid, xs, ys, left=0.0, right=ys[-1]))
        out[name] = (grid.astype(float), 100.0 * _mean_over_seeds(ys_all))
    return FigureResult(
        "fig07",
        f"Coverage achieved with different number of sensors, k = {k}",
        "number of nodes",
        "percentage of k-covered points",
        out,
        meta={"k": k},
    )


# ----------------------------------------------------------------------
# Figure 8
# ----------------------------------------------------------------------
@_figure_span("fig08")
def fig08_nodes_vs_k(
    setup: ExperimentSetup, cache: DeploymentCache | None = None
) -> FigureResult:
    """Nodes needed for 100% k-coverage vs k (Fig 8)."""
    cache = cache if cache is not None else DeploymentCache(setup)
    ks = np.asarray(setup.k_values, dtype=float)
    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for series in SERIES:
        ys = []
        for k in setup.k_values:
            totals = [cache.get(series, k, seed).total_alive for seed in _seeds(setup)]
            ys.append(float(np.mean(totals)))
        out[series.name] = (ks.copy(), np.asarray(ys))
    return FigureResult(
        "fig08",
        "Number of nodes needed for k-coverage of the area vs. k",
        "coverage requirement k",
        "nodes needed for 100% coverage",
        out,
    )


# ----------------------------------------------------------------------
# Figure 9
# ----------------------------------------------------------------------
@_figure_span("fig09")
def fig09_redundancy(
    setup: ExperimentSetup, cache: DeploymentCache | None = None
) -> FigureResult:
    """Percentage of redundant nodes vs k (Fig 9)."""
    cache = cache if cache is not None else DeploymentCache(setup)
    ks = np.asarray(setup.k_values, dtype=float)
    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    absolute: dict[str, list[float]] = {}
    for series in SERIES:
        ys = []
        abs_counts = []
        for k in setup.k_values:
            fracs, counts = [], []
            for seed in _seeds(setup):
                result = cache.get(series, k, seed)
                fracs.append(redundancy_fraction(result.coverage, k))
                counts.append(len(redundant_nodes(result.coverage, k)))
            ys.append(100.0 * float(np.mean(fracs)))
            abs_counts.append(float(np.mean(counts)))
        out[series.name] = (ks.copy(), np.asarray(ys))
        absolute[series.name] = abs_counts
    return FigureResult(
        "fig09",
        "Percentage of redundant nodes vs. k",
        "coverage requirement k",
        "percentage of redundant nodes",
        out,
        meta={"absolute_redundant": absolute},
    )


# ----------------------------------------------------------------------
# Figure 10
# ----------------------------------------------------------------------
@_figure_span("fig10")
def fig10_messages(
    setup: ExperimentSetup, cache: DeploymentCache | None = None
) -> FigureResult:
    """Message overhead of the four distributed variants vs k (Fig 10)."""
    cache = cache if cache is not None else DeploymentCache(setup)
    ks = np.asarray(setup.k_values, dtype=float)
    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    per_node: dict[str, list[float]] = {}
    for series in SERIES:
        if series.name not in DECOR_SERIES:
            continue
        ys, rot = [], []
        for k in setup.k_values:
            cell_vals, node_vals = [], []
            for seed in _seeds(setup):
                stats = cache.get(series, k, seed).messages
                if stats is None:
                    raise ExperimentError(f"series {series.name} has no messages")
                cell_vals.append(stats.mean_per_cell)
                node_vals.append(stats.mean_per_node_with_rotation)
            ys.append(float(np.mean(cell_vals)))
            rot.append(float(np.mean(node_vals)))
        out[series.name] = (ks.copy(), np.asarray(ys))
        per_node[series.name] = rot
    return FigureResult(
        "fig10",
        "Message overhead of DECOR",
        "coverage requirement k",
        "number of messages / cell",
        out,
        meta={"per_node_with_rotation": per_node},
    )


# ----------------------------------------------------------------------
# Figure 11
# ----------------------------------------------------------------------
@_figure_span("fig11")
def fig11_random_failures(
    setup: ExperimentSetup,
    cache: DeploymentCache | None = None,
    *,
    k: int = 3,
    max_fraction: float = 0.30,
    n_fractions: int = 7,
) -> FigureResult:
    """k-covered fraction vs fraction of random node failures (Fig 11)."""
    cache = cache if cache is not None else DeploymentCache(setup)
    k = _effective_k(setup, k)
    fractions = np.linspace(0.0, max_fraction, n_fractions)
    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for series in SERIES:
        ys_all = []
        for seed in _seeds(setup):
            result = cache.get(series, k, seed)
            coverage = result.coverage
            rng = np.random.default_rng(40_000 + seed)
            keys = np.asarray(coverage.sensor_keys(), dtype=np.intp)
            order = rng.permutation(keys)
            curve = removal_survival_curve(coverage, order, k)
            kills = np.round(fractions * keys.size).astype(int)
            ys_all.append(curve[kills])
        out[series.name] = (
            100.0 * fractions,
            100.0 * _mean_over_seeds(ys_all),
        )
    return FigureResult(
        "fig11",
        f"{k}-coverage under random failures",
        "percentage of nodes failed",
        "percentage of k-covered points",
        out,
        meta={"k": k},
    )


# ----------------------------------------------------------------------
# Figure 12
# ----------------------------------------------------------------------
@_figure_span("fig12")
def fig12_max_failures(
    setup: ExperimentSetup,
    cache: DeploymentCache | None = None,
    *,
    target_fraction: float = 0.9,
) -> FigureResult:
    """Max failure fraction keeping 1-coverage of >= 90% of the area (Fig 12)."""
    cache = cache if cache is not None else DeploymentCache(setup)
    ks = np.asarray(setup.k_values, dtype=float)
    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for series in SERIES:
        ys = []
        for k in setup.k_values:
            vals = []
            for seed in _seeds(setup):
                result = cache.get(series, k, seed)
                rng = np.random.default_rng(50_000 + seed)
                vals.append(
                    max_tolerable_failure_fraction(
                        result.coverage, rng, k=1, target_fraction=target_fraction
                    )
                )
            ys.append(100.0 * float(np.mean(vals)))
        out[series.name] = (ks.copy(), np.asarray(ys))
    return FigureResult(
        "fig12",
        "Maximum allowed failures for 1-coverage of 90% of the area",
        "coverage requirement k",
        "maximum percentage of failed nodes",
        out,
        meta={"target_fraction": target_fraction},
    )


# ----------------------------------------------------------------------
# Figures 13 & 14 (area failure)
# ----------------------------------------------------------------------
def _disaster(setup: ExperimentSetup, result):
    center = setup.region.center
    return area_failure(result.deployment, center, setup.disaster_radius)


@_figure_span("fig13")
def fig13_area_failure(
    setup: ExperimentSetup, cache: DeploymentCache | None = None
) -> FigureResult:
    """k-covered fraction right after the disaster disc (Fig 13)."""
    cache = cache if cache is not None else DeploymentCache(setup)
    ks = np.asarray(setup.k_values, dtype=float)
    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for series in SERIES:
        ys = []
        for k in setup.k_values:
            vals = []
            for seed in _seeds(setup):
                result = cache.get(series, k, seed)
                event = _disaster(setup, result)
                vals.append(
                    result.coverage.covered_fraction_without(event.node_ids, k)
                )
            ys.append(100.0 * float(np.mean(vals)))
        out[series.name] = (ks.copy(), np.asarray(ys))
    return FigureResult(
        "fig13",
        "k-covered points after an area failure",
        "coverage requirement k",
        "percentage of k-covered points",
        out,
        meta={"disaster_radius": setup.disaster_radius},
    )


@_figure_span("fig14")
def fig14_restoration(
    setup: ExperimentSetup, cache: DeploymentCache | None = None
) -> FigureResult:
    """Extra nodes needed to restore coverage after the disaster (Fig 14)."""
    cache = cache if cache is not None else DeploymentCache(setup)
    ks = np.asarray(setup.k_values, dtype=float)
    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for series in SERIES:
        ys = []
        for k in setup.k_values:
            vals = []
            for seed in _seeds(setup):
                result = cache.get(series, k, seed)
                event = _disaster(setup, result)
                pts = cache.field(seed)
                # dispatch by name through run_method: region/rng/cell_size
                # are wired uniformly (unused ones are ignored)
                report = restore(
                    pts,
                    setup.spec_for(series),
                    result,
                    event,
                    k,
                    series.method,
                    region=setup.region,
                    rng=np.random.default_rng(60_000 + seed),
                    cell_size=setup.cell_size_for(series),
                )
                vals.append(report.extra_nodes)
            ys.append(float(np.mean(vals)))
        out[series.name] = (ks.copy(), np.asarray(ys))
    return FigureResult(
        "fig14",
        "Number of nodes required to recover coverage of a failure area",
        "coverage requirement k",
        "extra nodes needed",
        out,
        meta={"disaster_radius": setup.disaster_radius},
    )


#: Figure number -> generator, for the CLI and benchmarks.
FIGURES = {
    7: fig07_coverage_vs_nodes,
    8: fig08_nodes_vs_k,
    9: fig09_redundancy,
    10: fig10_messages,
    11: fig11_random_failures,
    12: fig12_max_failures,
    13: fig13_area_failure,
    14: fig14_restoration,
}


def cells_for_figure(setup: ExperimentSetup, number: int) -> list[tuple[str, int, int]]:
    """The ``(series, k, seed)`` deployment cells figure ``number`` reads.

    This is the fan-out plan for :func:`repro.parallel.prefill_cache`: the
    figure functions themselves stay serial and order-sensitive, so a
    parallel run computes exactly these cells up front and the figure code
    then sees only cache hits.  Figures 7 and 11 pin k (paper: 3, clamped
    into the setup's range); Figure 10 reads only the DECOR series; the
    rest sweep every series over the full k range.
    """
    if number not in FIGURES:
        raise ExperimentError(f"unknown figure {number}; know {sorted(FIGURES)}")
    if number in (7, 11):
        k_values: list[int] = [_effective_k(setup, 3)]
    else:
        k_values = list(setup.k_values)
    series_names = [
        s.name
        for s in SERIES
        if number != 10 or s.name in DECOR_SERIES
    ]
    return [
        (name, int(k), int(seed))
        for name in series_names
        for k in k_values
        for seed in _seeds(setup)
    ]


def run_figure(
    setup: ExperimentSetup,
    number: int,
    cache: DeploymentCache | None = None,
    *,
    workers: int | None = None,
) -> FigureResult:
    """Generate one figure, optionally prefilling its cells in parallel.

    With ``workers`` ``None``/``<= 1`` this is exactly
    ``FIGURES[number](setup, cache)``; otherwise the figure's deployment
    cells are computed across worker processes first (deterministic merge,
    bit-identical results) on a pool closed before the serial figure code
    runs on the warm cache.  One ``figure`` span covers the prefill and
    the figure code.
    """
    if number not in FIGURES:
        raise ExperimentError(f"unknown figure {number}; know {sorted(FIGURES)}")
    cache = cache if cache is not None else DeploymentCache(setup)
    with OBS.span("figure", figure=f"fig{number:02d}"):
        if workers is not None and workers > 1:
            cache.prefill(cells_for_figure(setup, number), workers=workers)
        return FIGURES[number].__wrapped__(setup, cache)

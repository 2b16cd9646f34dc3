"""Tests for the figure experiments (shape assertions at micro scale).

These run every figure generator on a tiny setup and assert the paper's
qualitative orderings; the benchmarks repeat them at smoke/paper scale.
One test regenerates smoke-scale figures and compares them byte for byte
with the committed ``benchmarks/results/smoke`` JSON.
"""

import pathlib

import numpy as np
import pytest

from repro.experiments import (
    DeploymentCache,
    ExperimentSetup,
    figure_to_json,
    fig07_coverage_vs_nodes,
    fig08_nodes_vs_k,
    fig09_redundancy,
    fig10_messages,
    fig11_random_failures,
    fig12_max_failures,
    fig13_area_failure,
    fig14_restoration,
    FIGURES,
)
from repro.experiments.figures import run_figure

SMOKE_RESULTS = (
    pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "results" / "smoke"
)


@pytest.fixture(scope="module")
def setup() -> ExperimentSetup:
    return ExperimentSetup(
        field_side=30.0, n_points=200, n_initial=0, n_seeds=2, k_values=(1, 2)
    )


@pytest.fixture(scope="module")
def cache(setup) -> DeploymentCache:
    return DeploymentCache(setup)


ALL_SERIES = {
    "grid-small", "grid-big", "voronoi-small", "voronoi-big",
    "centralized", "random",
}


class TestFig07:
    def test_series_and_monotonicity(self, setup, cache):
        fig = fig07_coverage_vs_nodes(setup, cache, k=2)
        assert set(fig.series_names()) == ALL_SERIES
        for name in fig.series_names():
            xs, ys = fig.series[name]
            assert bool(np.all(np.diff(ys) >= -1e-9))
            assert ys[-1] == pytest.approx(100.0, abs=1e-6)
            assert bool(np.all((ys >= 0.0) & (ys <= 100.0)))

    def test_informed_methods_rise_faster_than_random(self, setup, cache):
        fig = fig07_coverage_vs_nodes(setup, cache, k=2)
        xs, y_cent = fig.series["centralized"]
        _, y_rand = fig.series["random"]
        mid = len(xs) // 4
        assert y_cent[mid] > y_rand[mid]


class TestFig08:
    def test_paper_orderings(self, setup, cache):
        fig = fig08_nodes_vs_k(setup, cache)
        for name in ALL_SERIES:
            assert bool(np.all(np.diff(fig.y_of(name)) > 0)), "grows with k"
        # centralized <= each DECOR variant <= random
        for name in ALL_SERIES - {"centralized"}:
            assert bool(np.all(fig.y_of("centralized") <= fig.y_of(name) + 1e-9))
        for name in ALL_SERIES - {"random"}:
            assert bool(np.all(fig.y_of(name) < fig.y_of("random")))

    def test_random_about_4x(self, setup, cache):
        fig = fig08_nodes_vs_k(setup, cache)
        ratio = fig.y_of("random") / fig.y_of("centralized")
        assert bool(np.all(ratio > 2.0))


class TestFig09:
    def test_centralized_lowest_random_highest(self, setup, cache):
        fig = fig09_redundancy(setup, cache)
        assert bool(np.all(fig.y_of("centralized") < 10.0))
        assert bool(np.all(fig.y_of("random") > 30.0))
        assert "absolute_redundant" in fig.meta

    def test_percentages(self, setup, cache):
        fig = fig09_redundancy(setup, cache)
        for name in fig.series_names():
            assert bool(np.all((fig.y_of(name) >= 0) & (fig.y_of(name) <= 100)))


class TestFig10:
    def test_only_decor_series(self, setup, cache):
        fig = fig10_messages(setup, cache)
        assert set(fig.series_names()) == ALL_SERIES - {"centralized", "random"}

    def test_voronoi_rc_ordering(self, setup, cache):
        fig = fig10_messages(setup, cache)
        assert bool(
            np.all(fig.y_of("voronoi-big") >= fig.y_of("voronoi-small"))
        )

    def test_rotation_per_node_recorded(self, setup, cache):
        fig = fig10_messages(setup, cache)
        rot = fig.meta["per_node_with_rotation"]
        assert set(rot) == set(fig.series_names())


class TestFig11:
    def test_axes_and_decay(self, setup, cache):
        fig = fig11_random_failures(setup, cache, k=2)
        for name in ALL_SERIES:
            xs, ys = fig.series[name]
            assert xs[0] == 0.0 and xs[-1] == pytest.approx(30.0)
            assert ys[0] == pytest.approx(100.0, abs=1e-6)
            assert bool(np.all(np.diff(ys) <= 1e-9))

    def test_random_tolerates_most(self, setup, cache):
        fig = fig11_random_failures(setup, cache, k=2)
        assert fig.series["random"][1][-1] >= fig.series["centralized"][1][-1]


class TestFig12:
    def test_grows_with_k(self, setup, cache):
        fig = fig12_max_failures(setup, cache)
        for name in ALL_SERIES:
            ys = fig.y_of(name)
            assert ys[-1] >= ys[0]
            assert bool(np.all((ys >= 0) & (ys <= 100)))


class TestFig13:
    def test_same_scale_for_all(self, setup, cache):
        """The paper notes the post-disaster k-coverage is essentially the
        same whatever deployed the network."""
        fig = fig13_area_failure(setup, cache)
        ys = np.vstack([fig.y_of(n) for n in ALL_SERIES])
        assert float(ys.max() - ys.min()) < 30.0
        assert bool(np.all((ys > 40.0) & (ys < 100.0)))


class TestFig14:
    def test_restoration_costs(self, setup, cache):
        fig = fig14_restoration(setup, cache)
        for name in ALL_SERIES:
            assert bool(np.all(fig.y_of(name) > 0))
        # random needs the most extra nodes
        for name in ALL_SERIES - {"random"}:
            assert bool(np.all(fig.y_of(name) <= fig.y_of("random")))


def test_registry_complete():
    assert sorted(FIGURES) == [7, 8, 9, 10, 11, 12, 13, 14]


def test_smoke_figures_match_committed_bytes():
    """Smoke Figures 7, 8 and 10 regenerate byte for byte: together they pin
    every method's per-placement coverage trace, its node counts and the
    grid/Voronoi message counts."""
    setup = ExperimentSetup.smoke()
    cache = DeploymentCache(setup)
    for number in (7, 8, 10):
        expected = (SMOKE_RESULTS / f"fig{number:02d}.json").read_text(encoding="utf-8")
        assert figure_to_json(run_figure(setup, number, cache)) == expected, number


def test_failure_figures_and_repairs_never_recount_coverage(
    setup, cache, monkeypatch
):
    """Figures 13 and 14, the method summary and the planner's one-shot
    repair take the deployment's coverage from its result instead of
    recounting it from the positions."""
    from repro.checks import CHECKS
    from repro.core.planner import DecorPlanner
    from repro.experiments import method_summary
    from repro.geometry import Rect
    from repro.network import SensorSpec, area_failure
    from repro.network.coverage import CoverageState

    recount = CoverageState.from_deployment.__func__
    calls = []

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return recount(cls, *args, **kwargs)

    # the sanitizer's own recount invariant is not what this test counts
    monkeypatch.setattr(CHECKS, "enabled", False)
    monkeypatch.setattr(CoverageState, "from_deployment", classmethod(counted))
    fig13_area_failure(setup, cache)
    fig14_restoration(setup, cache)
    method_summary(setup, 1, cache)
    planner = DecorPlanner(Rect.square(25.0), SensorSpec(4.0, 8.0), n_points=150)
    result = planner.deploy(k=1, method="voronoi")
    event = area_failure(result.deployment, planner.region.center, 6.0)
    planner.restore_after(result, event, method="voronoi")
    assert calls == []

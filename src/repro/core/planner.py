"""High-level facade: named methods and the :class:`DecorPlanner`.

:data:`METHODS` names the four placement algorithms behind a uniform calling
convention, and :func:`run_method` dispatches on the name — the experiment
harness and CLI drive everything through it.  :class:`DecorPlanner` bundles a
field, a sensor spec and an RNG into the object a downstream user actually
wants: *"give me a k-covered deployment of this area, then keep it repaired"*.
"""

from __future__ import annotations

import numpy as np

from repro.core.centralized import centralized_greedy
from repro.core.grid_decor import grid_decor
from repro.core.random_placement import random_placement
from repro.core.restoration import RestorationReport, RestorationSession, restore
from repro.core.result import DeploymentResult
from repro.core.voronoi_decor import voronoi_decor
from repro.discrepancy.sequences import field_points as make_field_points
from repro.errors import ConfigurationError
from repro.field import FieldModel
from repro.geometry.region import Rect
from repro.network.failures import FailureEvent
from repro.network.reliability import required_k
from repro.network.spec import SensorSpec
from repro.obs import OBS, profiled

__all__ = ["METHODS", "run_method", "DecorPlanner"]

#: Names accepted by :func:`run_method`.
METHODS: tuple[str, ...] = ("centralized", "grid", "voronoi", "random")


@profiled("core.run_method")
def run_method(
    name: str,
    field_points: np.ndarray | FieldModel,
    spec: SensorSpec,
    k: int,
    *,
    region: Rect | None = None,
    rng: np.random.Generator | None = None,
    cell_size: float | None = None,
    initial_positions: np.ndarray | None = None,
    max_nodes: int | None = None,
    engine=None,
    stop_at_budget: bool = False,
) -> DeploymentResult:
    """Run a placement method by name with the uniform argument set.

    Parameters
    ----------
    name:
        One of :data:`METHODS`.
    region:
        Required for ``"grid"`` (cell partitioning) and ``"random"``
        (sampling region).
    rng:
        Required for ``"random"``.
    cell_size:
        Required for ``"grid"``.
    engine:
        Optional pre-warmed :class:`~repro.core.benefit.BenefitEngine`
        already accounting ``initial_positions`` — the single seam through
        which warm restoration reaches every method.
    stop_at_budget:
        Tolerate ``max_nodes`` exhaustion (return the partial deployment
        instead of raising).
    """
    common = dict(
        initial_positions=initial_positions, max_nodes=max_nodes,
        engine=engine, stop_at_budget=stop_at_budget,
    )
    if name == "centralized":
        return centralized_greedy(field_points, spec, k, **common)
    if name == "grid":
        if region is None or cell_size is None:
            raise ConfigurationError("grid needs region= and cell_size=")
        return grid_decor(field_points, spec, k, region, cell_size, **common)
    if name == "voronoi":
        return voronoi_decor(field_points, spec, k, **common)
    if name == "random":
        if rng is None:
            raise ConfigurationError("random needs rng=")
        return random_placement(
            field_points, spec, k, rng, region=region, **common
        )
    raise ConfigurationError(f"unknown method {name!r}; known: {METHODS}")


class DecorPlanner:
    """One-stop API for deploying and maintaining a k-covered sensor field.

    Parameters
    ----------
    region:
        The monitored area.
    spec:
        Sensor radii.
    n_points:
        Size of the low-discrepancy field approximation (paper: 2000).
    generator:
        Point generator name ("halton", "hammersley", ...).
    seed:
        Seed for all stochastic choices (random baseline, failure models).
    backend:
        Neighbour-search backend for the planner's shared
        :class:`~repro.field.FieldModel` (``None`` = env/default).

    Examples
    --------
    >>> planner = DecorPlanner(Rect.square(30.0), SensorSpec(4.0, 8.0),
    ...                        n_points=200)
    >>> result = planner.deploy(k=2, method="voronoi")
    >>> result.final_covered_fraction()
    1.0
    """

    def __init__(
        self,
        region: Rect,
        spec: SensorSpec,
        *,
        n_points: int = 2000,
        generator: str = "halton",
        seed: int = 0,
        backend: str | None = None,
    ):
        if n_points < 1:
            raise ConfigurationError(f"n_points must be >= 1, got {n_points}")
        self.region = region
        self.spec = spec
        self.generator = generator
        self.rng = np.random.default_rng(seed)
        # one shared spatial model serves every deploy/restore of this
        # planner: indices and adjacencies are built once, then reused
        self.field = FieldModel(
            make_field_points(region, n_points, generator, self.rng),
            backend=backend,
        )

    @property
    def field_points(self) -> np.ndarray:
        """The field approximation (read-only view of the shared model)."""
        return self.field.points

    # ------------------------------------------------------------------
    def k_for_reliability(self, target_reliability: float, q: float) -> int:
        """Coverage degree needed for the user's reliability target (§2.1)."""
        return required_k(target_reliability, q)

    def scatter_initial(self, n: int) -> np.ndarray:
        """A random initial deployment of ``n`` nodes (paper: up to 200)."""
        return self.region.sample(n, self.rng)

    def deploy(
        self,
        k: int,
        method: str = "voronoi",
        *,
        initial_positions: np.ndarray | None = None,
        cell_size: float | None = None,
        max_nodes: int | None = None,
    ) -> DeploymentResult:
        """Deploy (or restore) to full k-coverage with the named method."""
        with OBS.span("deploy", method=method, k=k):
            return run_method(
                method,
                self.field,
                self.spec,
                k,
                region=self.region,
                rng=self.rng,
                cell_size=cell_size,
                initial_positions=initial_positions,
                max_nodes=max_nodes,
            )

    def restore_after(
        self,
        result: DeploymentResult,
        failure: FailureEvent,
        method: str = "voronoi",
        *,
        cell_size: float | None = None,
        max_nodes: int | None = None,
    ) -> RestorationReport:
        """Repair a previously returned deployment after a failure event.

        Dispatches by name through :func:`restore`/:func:`run_method` — the
        same seam warm restoration uses — so every method gets the
        planner's region/rng wired in uniformly.
        """
        if method == "grid" and cell_size is None:
            raise ConfigurationError("grid restoration needs cell_size=")
        with OBS.span("restore", method=method, k=result.k,
                      failed=failure.n_failed):
            return restore(
                self.field,
                self.spec,
                result.deployment,
                failure,
                result.k,
                method,
                max_nodes=max_nodes,
                region=self.region,
                rng=self.rng,
                cell_size=cell_size,
            )

    def session(
        self,
        result: DeploymentResult,
        method: str = "voronoi",
        *,
        warm: bool = True,
        cell_size: float | None = None,
        max_nodes: int | None = None,
    ) -> RestorationSession:
        """A :class:`RestorationSession` maintaining ``result``'s network.

        The session shares the planner's field model, region and RNG; in
        warm mode (the default; ``warm=False`` is the paper's cold loop) its
        benefit engine persists across failure epochs so each repair
        re-examines only the damaged region.
        """
        return RestorationSession(
            self.field,
            self.spec,
            result,
            result.k,
            method,
            warm=warm,
            region=self.region,
            rng=self.rng,
            cell_size=cell_size,
            max_nodes=max_nodes,
        )

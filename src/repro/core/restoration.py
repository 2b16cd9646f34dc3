"""Failure-then-repair workflows (paper §4.2, Figures 11-14).

:func:`restore` is the end-to-end restoration primitive: given a deployed
network and a :class:`~repro.network.failures.FailureEvent`, it applies the
failure, measures the coverage drop, re-runs a placement method seeded with
the survivors, and reports how many extra nodes the repair needed — the
quantity of Figure 14.

:class:`RestorationSession` lifts that one-shot primitive to a *sequence*
of failure epochs over one network.  Re-running :func:`restore` each
epoch rebuilds all placement state from scratch, so repair cost is
proportional to the field; the session instead keeps one
:class:`~repro.core.benefit.BenefitEngine` across epochs: a failure
removes exactly the failed sensors' recorded coverage rows
(``remove_rows``), so only the damaged region's counts and benefits
change and no survivor is re-accounted, and the repair run receives the
engine through the ``engine=`` seam of
:func:`repro.core.planner.run_method`.
Nor is coverage recounted: a repair result's coverage is its engine's
rows, and the next epoch subtracts the failed rows from it, so an epoch
ball-queries only the damage footprint.  All of it stays
**bit-identical** to chained one-shot :func:`restore` calls: counts and
benefits are exact integer state, and removing the failed rows leaves
precisely the state a fresh engine built from the survivors would hold,
so both walk the same argmax sequence (``tests/test_restoration_session.py``
asserts equal deployments and reports across epochs; the runtime
sanitizer additionally cross-checks the engine against a rebuild from
the survivors every epoch when ``REPRO_CHECKS=1``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.benefit import BenefitEngine
from repro.core.result import DeploymentResult
from repro.errors import ConfigurationError, CoverageError, ExperimentError
from repro.field import FieldModel, as_field_model
from repro.field.csr import sorted_unique
from repro.geometry.region import Rect
from repro.network.coverage import CoverageState
from repro.network.deployment import Deployment
from repro.network.failures import FailureEvent
from repro.network.spec import SensorSpec
from repro.obs import OBS, record_coverage_health

__all__ = [
    "RestorationReport",
    "RestorationSession",
    "restore",
    "coverage_after_failure",
]

@dataclass(frozen=True)
class RestorationReport:
    """Outcome of one failure + repair cycle.

    Attributes
    ----------
    failure:
        The injected failure event.
    covered_before / covered_after_failure / covered_after_repair:
        k-coverage fraction of the field at the three stages.
    extra_nodes:
        Nodes the repair added (Figure 14's y-axis).
    repair:
        The full placement result of the repair run.
    complete:
        Whether the repair restored full k-coverage.  ``False`` only for
        ``max_nodes``-truncated repairs (an un-truncated repair that falls
        short raises :class:`~repro.errors.ExperimentError` instead).
    """

    failure: FailureEvent
    k: int
    covered_before: float
    covered_after_failure: float
    covered_after_repair: float
    extra_nodes: int
    repair: DeploymentResult
    complete: bool = True


def coverage_after_failure(
    field_points: np.ndarray | FieldModel,
    spec: SensorSpec,
    deployment: Deployment,
    failure: FailureEvent,
    k: int,
) -> float:
    """k-coverage fraction right after applying ``failure`` (no repair).

    Read-only: neither the deployment nor any coverage state is mutated.
    This is the measurement behind Figures 11 and 13.
    """
    cov = CoverageState.from_deployment(
        as_field_model(field_points), spec.sensing_radius, deployment
    )
    return cov.covered_fraction_without(failure.node_ids, k)


def restore(
    field_points: np.ndarray | FieldModel,
    spec: SensorSpec,
    deployment: Deployment | DeploymentResult,
    failure: FailureEvent,
    k: int,
    method: Callable[..., DeploymentResult] | str,
    *,
    max_nodes: int | None = None,
    engine: BenefitEngine | None = None,
    **method_kwargs,
) -> RestorationReport:
    """Apply a failure and repair the network back to full k-coverage.

    Parameters
    ----------
    field_points, spec, k:
        The field approximation (points or a shared
        :class:`~repro.field.FieldModel`) and requirement the network must
        satisfy; one model serves the before/after coverage measurements
        and the repair run.
    deployment:
        The network *before* the failure, never mutated: a
        :class:`~repro.network.deployment.Deployment` (its coverage is
        recounted once) or the :class:`DeploymentResult` holding it (its
        ``coverage`` is used as is, nothing is recounted).
    failure:
        Failure event whose node ids refer to ``deployment``.
    method:
        A method name from :data:`repro.core.planner.METHODS` (dispatched
        through :func:`repro.core.planner.run_method`, the single seam all
        restoration flows share), or — for custom algorithms — any
        callable accepting ``(field_points, spec, k, ...)`` plus
        ``initial_positions=`` and returning a :class:`DeploymentResult`.
    max_nodes:
        Optional budget on repair placements.  When given, a repair that
        exhausts it is *tolerated*: the report comes back with
        ``complete=False`` and the partial coverage instead of raising.
    engine:
        Optional pre-warmed :class:`~repro.core.benefit.BenefitEngine`
        that already accounts the survivors' coverage (a failure applied
        via :meth:`~repro.core.benefit.BenefitEngine.remove_rows`); the
        repair run then reuses its counts and benefit vector.
        :class:`RestorationSession` manages this.
    method_kwargs:
        Extra arguments forwarded to ``method`` (``region=``, ``rng=``,
        ``cell_size=``, ...).

    Returns
    -------
    RestorationReport
    """
    field = as_field_model(field_points)
    if isinstance(deployment, DeploymentResult):
        coverage, deployment = deployment.coverage, deployment.deployment
    else:
        coverage = CoverageState.from_deployment(
            field, spec.sensing_radius, deployment
        )
    survivor = deployment.copy()
    survivor.fail(failure.node_ids)
    before = coverage.covered_fraction(k)
    after_failure = coverage.covered_fraction_without(failure.node_ids, k)

    tolerant = max_nodes is not None
    extra: dict = {"max_nodes": max_nodes, "stop_at_budget": True} if tolerant else {}
    if engine is not None:
        extra["engine"] = engine
    name = getattr(method, "__name__", method)
    if isinstance(method, str):
        # route by name through run_method: the one place that knows how to
        # wire engine=/stop_at_budget= into every placement method
        from repro.core.planner import run_method

        method = functools.partial(run_method, method)
    repair = method(
        field, spec, k, initial_positions=survivor.alive_positions(),
        **extra, **method_kwargs,
    )
    after_repair = repair.final_covered_fraction(k)
    complete = after_repair >= 1.0 - 1e-12
    if not complete and not tolerant:
        raise ExperimentError(
            f"repair with {name!r} left coverage at {after_repair:.4f} < 1"
        )
    return RestorationReport(
        failure=failure,
        k=k,
        covered_before=before,
        covered_after_failure=after_failure,
        covered_after_repair=after_repair,
        extra_nodes=repair.added_count,
        repair=repair,
        complete=complete,
    )


class RestorationSession:
    """Persistent, epoch-aware restoration of one deployed network.

    Holds the network and one :class:`~repro.core.benefit.BenefitEngine`
    across a sequence of failures; each :meth:`restore` call applies one
    failure epoch and repairs with the session's method.  Its reports and
    deployments are bit-identical to chained one-shot :func:`restore`
    calls — the session just gets there by re-examining only the damaged
    region (see the module docstring and ``docs/performance.md``).

    Parameters
    ----------
    field_points, spec, k:
        The field approximation and coverage requirement.
    deployment:
        The network to maintain (epoch 0 state) as :func:`restore` takes
        it; a bare deployment is copied.  Node ids in the first
        :class:`~repro.network.failures.FailureEvent` refer to this
        deployment; later events refer to the previous epoch's
        ``report.repair.deployment``.
    method:
        Repair method name from :data:`repro.core.planner.METHODS`.
    region, rng, cell_size:
        Method parameters, validated eagerly (``"grid"`` needs ``region``
        and ``cell_size``; ``"random"`` needs ``rng``).
    max_nodes:
        Optional per-epoch repair budget; exhausting it yields a report
        with ``complete=False`` instead of raising.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import DecorPlanner
    >>> from repro.geometry import Rect
    >>> from repro.network import SensorSpec, area_failure
    >>> planner = DecorPlanner(Rect.square(30.0), SensorSpec(4.0, 8.0),
    ...                        n_points=200)
    >>> result = planner.deploy(k=1, method="centralized")
    >>> session = planner.session(result, method="centralized")
    >>> for _ in range(2):
    ...     event = area_failure(session.deployment, planner.region.center, 6.0)
    ...     report = session.restore(event)
    >>> session.epoch, report.covered_after_repair
    (2, 1.0)
    """

    def __init__(
        self,
        field_points: np.ndarray | FieldModel,
        spec: SensorSpec,
        deployment: Deployment | DeploymentResult,
        k: int,
        method: str = "voronoi",
        *,
        region: Rect | None = None,
        rng: np.random.Generator | None = None,
        cell_size: float | None = None,
        max_nodes: int | None = None,
    ):
        from repro.core.planner import METHODS  # import cycle: planner uses restore

        if method not in METHODS:
            raise ConfigurationError(
                f"unknown method {method!r}; known: {METHODS}"
            )
        if method == "grid" and (region is None or cell_size is None):
            raise ConfigurationError("grid restoration needs region= and cell_size=")
        if method == "random" and rng is None:
            raise ConfigurationError("random restoration needs rng=")
        self._field = as_field_model(field_points)
        self._spec = spec
        self._k = int(k)
        self._method = method
        self._region = region
        self._rng = rng
        self._cell_size = cell_size
        self._max_nodes = max_nodes
        # the network as of the last completed epoch (a result carries the
        # coverage the next epoch starts from)
        self._network: Deployment | DeploymentResult = (
            deployment if isinstance(deployment, DeploymentResult)
            else deployment.copy()
        )
        self._epoch = 0
        self._engine = self._build_engine()

    def _build_engine(self) -> BenefitEngine:
        """The session's engine, accounting the current network in id order."""
        benefit_adjacency = None
        if self._method == "grid":
            # the memoised same-cell adjacency — identical object to what
            # grid_decor computes, which is what the engine seam validates
            benefit_adjacency = self._field.same_cell_adjacency(
                self._spec.sensing_radius, self._region, self._cell_size
            )
        engine = BenefitEngine(
            self._field,
            self._spec.sensing_radius,
            self._k,
            benefit_adjacency=benefit_adjacency,
        )
        engine.add_sensors(self.deployment.alive_positions())
        return engine

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def deployment(self) -> Deployment:
        """The network as of the last completed epoch (do not mutate)."""
        net = self._network
        return net.deployment if isinstance(net, DeploymentResult) else net

    @property
    def epoch(self) -> int:
        """Number of completed failure epochs."""
        return self._epoch

    @property
    def method(self) -> str:
        return self._method

    @property
    def engine(self) -> BenefitEngine:
        """The engine kept across epochs."""
        return self._engine

    # ------------------------------------------------------------------
    def restore(self, failure: FailureEvent) -> RestorationReport:
        """Apply one failure epoch and repair; returns the epoch's report.

        ``failure.node_ids`` refer to :attr:`deployment`.  The failed
        sensors' coverage rows are removed from the live engine — only the
        benefit entries the damage raised change — and the repair runs on
        that engine.  A recording run gets flight-recorder events for the
        epoch, its damage footprint and the repair size.
        """
        dep = self.deployment
        failed_ids = np.asarray(failure.node_ids, dtype=np.intp).reshape(-1)
        alive = dep.alive_ids()
        if not np.all(np.isin(failed_ids, alive)):
            raise CoverageError("failure names nodes that are not alive")
        if sorted_unique(failed_ids).size != failed_ids.size:
            raise CoverageError("failure names the same node more than once")
        with OBS.run(
            "restoration", method=self._method, k=self._k
        ) as frun:
            if OBS.enabled and OBS.recording():
                # the damage footprint, computed only for a flight log;
                # the block runs on the repair's round clock (grid and
                # Voronoi repairs stamp their placements with rounds 1,
                # 2, ...), so the failure comes before round 1
                dirty = self._field.dirty_region(
                    dep.positions[failed_ids], self._spec.sensing_radius
                )
                OBS.flight.emit(
                    "fail", -1, t=0.0, cause=None,
                    epoch=self._epoch, n_failed=int(failed_ids.size),
                    dirty_points=dirty.n_points,
                )
            # engine row i is the i-th alive node of the network
            self._engine.remove_rows(np.searchsorted(alive, failed_ids))
            report = restore(
                self._field,
                self._spec,
                self._network,
                failure,
                self._k,
                self._method,
                max_nodes=self._max_nodes,
                engine=self._engine,
                region=self._region,
                rng=self._rng,
                cell_size=self._cell_size,
            )
            if OBS.enabled:
                # every repair round places at least one node, so no
                # placement round comes after round extra_nodes
                OBS.flight.emit(
                    "restored", -1, t=float(report.extra_nodes), cause=None,
                    epoch=self._epoch, extra_nodes=report.extra_nodes,
                    covered=report.covered_after_repair,
                )
            frun.set(epochs=self._epoch + 1)
        self._network = report.repair
        if OBS.enabled:
            # two health samples per epoch boundary: the damaged network,
            # then the repaired one (coverage/deficiency/holes re-measured)
            OBS.gauge("health_coverage_fraction").set(
                report.covered_after_failure
            )
            OBS.gauge("health_failed_nodes").set(float(failed_ids.size))
            OBS.sample(
                "epoch-failure", epoch=self._epoch, method=self._method
            )
            record_coverage_health(report.repair.coverage, self._k)
            OBS.gauge("health_alive_nodes").set(
                float(report.repair.deployment.n_alive)
            )
            OBS.sample(
                "epoch-repair", epoch=self._epoch, method=self._method,
                extra_nodes=report.extra_nodes,
            )
        self._epoch += 1
        return report

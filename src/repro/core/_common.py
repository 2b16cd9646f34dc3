"""Shared plumbing for the placement algorithms (internal)."""

from __future__ import annotations

import numpy as np

from repro.checks import CHECKS, validate_coverage_recount, validate_warm_engine
from repro.core.benefit import BenefitEngine
from repro.core.result import DeploymentResult, MessageStats, PlacementTrace
from repro.errors import PlacementError
from repro.field import Adjacency, FieldModel, as_field_model
from repro.geometry.points import as_points
from repro.network.deployment import Deployment
from repro.network.spec import SensorSpec
from repro.obs import OBS

__all__ = ["init_run", "finalize", "placement_budget", "placement_trace",
           "publish_delta_updates", "publish_placement_metrics"]

#: ``decor_messages_total`` kind of the messages a method's trace counts.
_MESSAGE_KINDS = {"grid": "border", "voronoi": "voronoi_notify"}


def placement_budget(n_points: int, k: int, max_nodes: int | None) -> int:
    """Upper bound on placements before declaring non-termination.

    Any correct greedy needs at most ``k * n_points`` placements (each
    placement fixes at least one unit of deficiency), so the default budget
    is that plus slack; an explicit ``max_nodes`` overrides it.
    """
    if max_nodes is not None:
        if max_nodes < 1:
            raise PlacementError(f"max_nodes must be >= 1, got {max_nodes}")
        return max_nodes
    return k * n_points + 1024


def _check_warm_engine(
    engine: BenefitEngine,
    spec: SensorSpec,
    k: int,
    benefit_adjacency: Adjacency | None,
    benefit_mode: str,
) -> None:
    """Reject a pre-warmed engine that does not match this run's problem.

    A warm engine carries coverage state, so every structural parameter
    (radius, requirement, benefit adjacency/mode — the field identity is
    checked by the caller) must agree with what a cold ``init_run`` would
    have built — a mismatch would silently repair the wrong problem.
    """
    if engine.sensing_radius != float(spec.sensing_radius):
        raise PlacementError(
            f"warm engine has rs={engine.sensing_radius}, "
            f"spec has rs={spec.sensing_radius}"
        )
    if not np.array_equal(
        engine.k_per_point, np.broadcast_to(k, (engine.n_points,))
    ):
        raise PlacementError("warm engine coverage requirement k mismatch")
    if engine.benefit_mode != benefit_mode:
        raise PlacementError(
            f"warm engine benefit_mode={engine.benefit_mode!r} != "
            f"{benefit_mode!r}"
        )
    expected = (
        engine.coverage_adjacency if benefit_adjacency is None else benefit_adjacency
    )
    if engine.benefit_adjacency is not expected:
        # the grid variant's same-cell adjacency is memoised per field
        # model, so a matching engine holds the identical object
        raise PlacementError(
            "warm engine was built with a different benefit adjacency"
        )


def init_run(
    field_points: np.ndarray | FieldModel,
    spec: SensorSpec,
    k: int,
    initial_positions: np.ndarray | None,
    *,
    benefit_adjacency: Adjacency | None = None,
    benefit_mode: str = "deficiency",
    engine: BenefitEngine | None = None,
) -> tuple[FieldModel, Deployment, BenefitEngine]:
    """Build the field model, deployment and benefit engine, accounting
    initial nodes.  Passing an existing :class:`FieldModel` shares its
    cached adjacency/index across runs.

    A pre-warmed ``engine`` (the :class:`RestorationSession` seam) is used
    as-is: it must already account the coverage of ``initial_positions``,
    so only the deployment is (re)built from them — the engine's counts,
    benefit vector and recorded rows carry over from the previous failure
    epoch.
    """
    if engine is not None:
        if (
            isinstance(field_points, FieldModel)
            and field_points is not engine.field
        ):
            # raw point arrays can't be identity-checked (a model would be
            # freshly built from them); shared FieldModels can and must be
            raise PlacementError(
                "warm engine was built on a different FieldModel; pass the "
                "engine's own model (engine.field) as field_points"
            )
        field = engine.field
        _check_warm_engine(engine, spec, k, benefit_adjacency, benefit_mode)
    else:
        field = as_field_model(field_points)
        engine = BenefitEngine(
            field,
            spec.sensing_radius,
            k,
            benefit_adjacency=benefit_adjacency,
            benefit_mode=benefit_mode,
        )
    if initial_positions is not None and len(as_points(initial_positions)):
        deployment = Deployment(initial_positions)
    else:
        deployment = Deployment()
    if engine.n_rows == 0:
        # cold path: account the initial sensors' coverage now (a warm
        # engine already carries it)
        engine.add_sensors(deployment.alive_positions())
    elif engine.n_rows != deployment.n_alive:
        raise PlacementError(
            f"warm engine tracks {engine.n_rows} sensor rows but "
            f"{deployment.n_alive} initial positions were given"
        )
    elif CHECKS.enabled:
        # sanitizer: warm state must equal a cold rebuild (the
        # warm-equals-cold contract; docs/static_analysis.md)
        validate_warm_engine(engine, deployment.alive_positions())
    return field, deployment, engine


def placement_trace(
    positions: np.ndarray,
    benefits: list[float],
    kcovered: list[int],
    n_points: int,
    proposer: list[int] | None = None,
    messages: list[int] | None = None,
) -> PlacementTrace:
    """A loop's trace, built once from the columns it collected; row ``j``'s
    covered fraction is the engine's k-covered count after placement ``j``
    over ``n_points``.  One division of the whole column gives the same
    doubles as dividing each count as it was taken: both are correctly
    rounded quotients of exact integers."""
    return PlacementTrace(
        positions, benefits, np.divide(kcovered, n_points), proposer, messages
    )


def publish_delta_updates(engine: BenefitEngine) -> None:
    """Move the engine's unpublished delta count into
    ``benefit_delta_updates_total`` (nothing while disabled)."""
    if OBS.enabled and engine.delta_updates:
        OBS.counter("benefit_delta_updates_total").inc(engine.delta_updates)
        engine.delta_updates = 0


def publish_placement_metrics(
    method: str, trace: PlacementTrace, engine: BenefitEngine | None = None
) -> None:
    """Publish one placement run's metrics, once, from the state that holds
    them: the engine's delta count, and for a run that placed at least one
    node ``decor_placements_total{method}`` (the trace's rows),
    ``greedy_round_benefit`` (its positive benefits, in placement order;
    random's 0.0 and the NaN of seeds and lattice sites are no greedy
    rounds) and the grid/Voronoi ``decor_messages_total`` (its messages).
    """
    if not OBS.enabled:
        return
    if engine is not None:
        publish_delta_updates(engine)
    if not len(trace):
        return
    OBS.counter("decor_placements_total", method=method).inc(len(trace))
    benefits = trace.benefits
    positive = benefits[benefits > 0.0].tolist()
    if positive:
        histogram = OBS.histogram("greedy_round_benefit")
        for benefit in positive:
            histogram.observe(benefit)
    kind = _MESSAGE_KINDS.get(method)
    if kind is not None:
        OBS.counter("decor_messages_total", kind=kind).inc(int(trace.messages.sum()))


def finalize(
    *,
    method: str,
    k: int,
    engine: BenefitEngine,
    deployment: Deployment,
    added_ids: np.ndarray,
    trace: PlacementTrace,
    messages: MessageStats | None = None,
    params: dict | None = None,
) -> DeploymentResult:
    """Publish the run's metrics and assemble the result (one ``result``
    span).  Its coverage is the engine's rows (callers account sensors in
    deployment-id order), so no sensor is re-queried; ``REPRO_CHECKS=1``
    compares it against a recount of the deployment (the
    ``coverage-equals-recount`` invariant)."""
    publish_placement_metrics(method, trace, engine)
    with OBS.span("result", method=method):
        coverage = engine.coverage_state(deployment.alive_ids())
        if CHECKS.enabled:
            validate_coverage_recount(coverage, deployment, method=method)
        return DeploymentResult(
            method=method,
            k=k,
            deployment=deployment,
            coverage=coverage,
            added_ids=np.asarray(added_ids, dtype=np.intp),
            trace=trace,
            messages=messages,
            params=dict(params or {}),
        )

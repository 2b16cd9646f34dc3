"""Regular (hexagonal) lattice placement.

The paper invokes "a regular positioning of sensors" as the fallback for
cells with no nodes at all (§3.1); this module provides the full-strength
version of that idea as an additional baseline: the hexagonal covering
lattice, which is the *optimal* arrangement for 1-covering the plane with
equal discs (covering density ``2π/√27 ≈ 1.209``).

For ``k > 1`` the deployment stacks ``k`` hexagonal layers, each shifted by
a different offset so no two layers coincide — spreading the redundancy
spatially, exactly the paper's argument for why "place k nodes at every
k = 1 position" is the wrong plan (§2: co-located nodes die together).

Lattices are oblivious to the field approximation, so boundary points can
end up just outside every disc; :func:`lattice_placement` therefore runs a
greedy top-up pass over any points the lattice left deficient, keeping the
completeness guarantee of every other method.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core._common import finalize, init_run, placement_budget, placement_trace
from repro.core.result import DeploymentResult
from repro.errors import PlacementError
from repro.field import as_field_model
from repro.geometry.points import bounding_rect_of
from repro.geometry.region import Rect
from repro.network.spec import SensorSpec
from repro.obs import OBS

__all__ = ["hexagonal_lattice", "lattice_placement"]


def hexagonal_lattice(
    region: Rect,
    rs: float,
    *,
    offset: tuple[float, float] = (0.0, 0.0),
    margin: float | None = None,
) -> np.ndarray:
    """Sensor positions of a hexagonal covering lattice for disc radius ``rs``.

    Neighbouring sensors sit ``sqrt(3) * rs`` apart in rows ``1.5 * rs``
    apart, with odd rows shifted by half a pitch — every point of the plane
    is then within ``rs`` of some sensor.

    Parameters
    ----------
    region:
        Area to cover; the lattice extends one pitch beyond each edge so the
        boundary is covered too.
    rs:
        Sensing radius.
    offset:
        Phase of the lattice in ``[0, 1)^2`` pitch units — distinct offsets
        give non-coincident layers for k-coverage stacking.
    margin:
        How far beyond the region to extend (defaults to one pitch).

    Returns
    -------
    numpy.ndarray
        ``(n, 2)`` sensor positions.
    """
    if rs <= 0:
        raise PlacementError(f"sensing radius must be positive, got {rs}")
    pitch = math.sqrt(3.0) * rs
    row_height = 1.5 * rs
    if margin is None:
        margin = pitch
    ox = (offset[0] % 1.0) * pitch
    oy = (offset[1] % 1.0) * row_height
    xs0 = np.arange(region.x0 - margin + ox, region.x1 + margin + pitch, pitch)
    ys = np.arange(region.y0 - margin + oy, region.y1 + margin + row_height, row_height)
    points = []
    for row, y in enumerate(ys):
        shift = 0.5 * pitch if row % 2 else 0.0
        xs = xs0 + shift
        points.append(np.column_stack([xs, np.full_like(xs, y)]))
    return np.vstack(points)


def lattice_placement(
    field_points: np.ndarray,
    spec: SensorSpec,
    k: int,
    *,
    region: Rect | None = None,
    max_nodes: int | None = None,
) -> DeploymentResult:
    """k-cover the field with ``k`` shifted hexagonal layers plus greedy top-up.

    Parameters
    ----------
    field_points:
        ``(n, 2)`` field approximation to certify coverage against.
    spec:
        Sensor radii.
    k:
        Coverage requirement; layer ``j`` is phase-shifted by
        ``(j/k, j/k)`` pitch units.
    region:
        Area the lattice spans; defaults to the field's bounding box.

    Returns
    -------
    DeploymentResult
        ``method == "lattice"``; ``params["topup"]`` counts the greedy
        repairs of lattice boundary gaps (typically a handful).

    Notes
    -----
    For ``k = 1`` the hexagonal covering is the theoretical optimum for
    *area* coverage, so this baseline bounds how much of DECOR's node count
    is greedy slack vs intrinsic covering cost (ablation benchmark
    ``test_ablation_lattice``).
    """
    field = as_field_model(field_points)
    pts = field.points
    if region is None:
        region = bounding_rect_of(pts)
    if k < 1:
        raise PlacementError(f"k must be >= 1, got {k}")

    _, deployment, engine = init_run(field, spec, k, None)
    sites: list[np.ndarray] = []
    layers: list[int] = []
    kcovered: list[int] = []
    budget = placement_budget(engine.n_points, k, max_nodes)

    with OBS.span("placement", method="lattice", k=k) as span:
        for layer in range(k):
            phase = layer / k
            for pos in hexagonal_lattice(
                region, spec.sensing_radius, offset=(phase, phase)
            ):
                # skip lattice sites whose disc misses every field point —
                # they sit in the margin band and would be pure waste
                if field.query_ball(pos, spec.sensing_radius).size == 0:
                    continue
                if len(kcovered) >= budget:
                    raise PlacementError(
                        f"lattice placement exceeded its budget of {budget} nodes"
                    )
                engine.add_sensor_at_position(pos)
                sites.append(pos)
                layers.append(layer)
                kcovered.append(engine.n_kcovered)

        chosen: list[int] = []
        benefits: list[float] = []
        while not engine.is_fully_covered():
            if len(kcovered) >= budget:
                raise PlacementError(
                    f"lattice top-up exceeded its budget of {budget} nodes"
                )
            idx = engine.argmax()
            benefit = float(engine.benefit[idx])
            if benefit <= 0.0:  # pragma: no cover - impossible with deficiency
                raise PlacementError("no positive-benefit top-up remains")
            engine.place_at(idx)
            chosen.append(idx)
            benefits.append(benefit)
            kcovered.append(engine.n_kcovered)
        topup = len(chosen)
        span.set(placed=len(kcovered), topup=topup)

    positions = np.concatenate((np.reshape(sites, (-1, 2)), pts[chosen]))
    return finalize(
        method="lattice",
        k=k,
        engine=engine,
        deployment=deployment,
        added_ids=deployment.add_many(positions),
        trace=placement_trace(
            positions,
            [float("nan")] * len(sites) + benefits,
            kcovered,
            engine.n_points,
            layers + [-1] * topup,
        ),
        params={"topup": topup},
    )

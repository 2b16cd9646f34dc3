"""Rasterised coverage fields and area-fidelity measurement.

The paper's central representational claim is that covering the Halton
points is as good as covering the *area*.  :func:`uncovered_area_fraction`
measures the residual truth: it evaluates coverage on a dense probe grid
(independent of the field approximation) and reports how much actual area a
"fully covered" point set still leaves exposed — the metric behind the
point-set ablation benchmark.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.field import FieldModel
from repro.geometry.neighbors import UniformGridIndex
from repro.geometry.points import as_points
from repro.geometry.region import Rect

__all__ = ["coverage_raster", "uncovered_area_fraction"]


def coverage_raster(
    region: Rect,
    sensor_positions: np.ndarray,
    rs: float,
    *,
    resolution: int = 200,
    field: FieldModel | None = None,
) -> np.ndarray:
    """Coverage-count raster of the region, shape ``(resolution, resolution)``.

    Cell ``[iy, ix]`` holds the number of sensors covering the center of the
    corresponding grid cell (row 0 at the bottom of the region).  Pass a
    shared :class:`~repro.field.FieldModel` as ``field`` to reuse its
    memoised probe grid across repeated rasterisations of the same region.
    """
    if resolution < 1:
        raise ConfigurationError(f"resolution must be >= 1, got {resolution}")
    if rs <= 0:
        raise ConfigurationError(f"sensing radius must be positive, got {rs}")
    if field is not None:
        probes = field.probe_grid(region, resolution)
    else:
        xs = region.x0 + (np.arange(resolution) + 0.5) * region.width / resolution
        ys = region.y0 + (np.arange(resolution) + 0.5) * region.height / resolution
        gx, gy = np.meshgrid(xs, ys)
        probes = np.column_stack([gx.ravel(), gy.ravel()])
    counts = UniformGridIndex(as_points(sensor_positions), rs).ball_counts(probes)
    return counts.reshape(resolution, resolution).astype(np.int64)


def uncovered_area_fraction(
    region: Rect,
    sensor_positions: np.ndarray,
    rs: float,
    k: int = 1,
    *,
    resolution: int = 400,
    field: FieldModel | None = None,
) -> float:
    """Fraction of the region's *area* not k-covered (dense-grid estimate).

    This is the ground truth the discrete field approximation stands in for;
    a good point set drives it to ~0 when all its points are covered.
    """
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    raster = coverage_raster(
        region, sensor_positions, rs, resolution=resolution, field=field
    )
    return float(np.count_nonzero(raster < k)) / raster.size

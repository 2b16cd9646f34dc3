"""Coverage survival under progressive node failures (Figures 11 & 12).

Killing nodes one at a time in a random order and tracking the covered
fraction gives, in a single O(total ball sizes) pass, the whole
failure-fraction axis of Figure 11 *and* the maximum tolerable failure
fraction of Figure 12 (coverage is monotone non-increasing under removals,
so the 90% threshold is crossed exactly once).
"""

from __future__ import annotations

import numpy as np

from repro.errors import CoverageError
from repro.network.coverage import CoverageState

__all__ = ["removal_survival_curve", "max_tolerable_failure_fraction"]


def removal_survival_curve(
    coverage: CoverageState, order: np.ndarray, k: int
) -> np.ndarray:
    """k-covered fraction after each successive removal.

    Parameters
    ----------
    coverage:
        Coverage state of the full deployment (not mutated; the pass runs on
        a scratch copy of the counts).
    order:
        Sensor keys in kill order (any subset or permutation of the keys).
    k:
        The coverage degree being tracked.

    Returns
    -------
    numpy.ndarray
        ``len(order) + 1`` values; entry ``i`` is the k-covered fraction
        after the first ``i`` removals (entry 0 = intact network).
    """
    if k < 1:
        raise CoverageError(f"k must be >= 1, got {k}")
    keys = set(coverage.sensor_keys())
    order_list = [int(x) for x in np.asarray(order).reshape(-1)]
    if len(set(order_list)) != len(order_list) or not set(order_list) <= keys:
        raise CoverageError("order must be distinct registered sensor keys")
    counts = coverage.counts.copy()
    n_points = coverage.n_points
    n_ok = int(np.count_nonzero(counts >= k))
    out = np.empty(len(order_list) + 1, dtype=np.float64)
    out[0] = n_ok / n_points
    for i, covered in enumerate(coverage.points_covered_by_many(order_list)):
        if covered.size:
            # points at exactly k lose their k-coverage with this removal
            n_ok -= int(np.count_nonzero(counts[covered] == k))
            counts[covered] -= 1
        out[i + 1] = n_ok / n_points
    return out


def max_tolerable_failure_fraction(
    coverage: CoverageState,
    rng: np.random.Generator,
    *,
    k: int = 1,
    target_fraction: float = 0.9,
) -> float:
    """Largest fraction of (random-order) failures keeping ``k``-coverage of
    at least ``target_fraction`` of the points — Figure 12's y-axis.

    One random kill order is drawn from ``rng``; average several calls for a
    Monte-Carlo estimate.
    """
    if not (0.0 < target_fraction <= 1.0):
        raise CoverageError(
            f"target fraction must be in (0, 1], got {target_fraction}"
        )
    keys = np.asarray(coverage.sensor_keys(), dtype=np.intp)
    if keys.size == 0:
        raise CoverageError("no sensors registered")
    order = rng.permutation(keys)
    curve = removal_survival_curve(coverage, order, k)
    ok = curve >= target_fraction
    # ok[0] is the intact network; find the last prefix still meeting target
    failures = int(np.max(np.nonzero(ok)[0], initial=0))
    return failures / keys.size

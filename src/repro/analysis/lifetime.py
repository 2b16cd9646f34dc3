"""Sleep-shift scheduling on k-covered deployments (paper motivation #3).

"When k nodes are covering a point, we have the option of putting some of
them to sleep or balance the workload among all k nodes.  Thus, k-coverage
leads to significant energy savings and increases the lifetime for the
network." (§1)

:func:`sleep_shifts` partitions the alive sensors into disjoint *shifts*,
each of which alone keeps every field point covered at a target degree
``k_active`` (usually 1).  Running one shift at a time multiplies network
lifetime by the number of shifts.  The construction is greedy set-cover per
shift: repeatedly pick the sensor covering the most still-deficient points,
mirroring the paper's benefit heuristic.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CoverageError
from repro.network.coverage import CoverageState

__all__ = ["sleep_shifts", "lifetime_factor"]


def _greedy_shift(
    coverage: CoverageState, available: list[int], k_active: int
) -> list[int] | None:
    """One shift achieving ``k_active``-coverage from ``available`` sensors,
    or None if even all of them together cannot.

    Supply-aware greedy (in the spirit of Slijepcevic & Potkonjak's set
    k-cover heuristic): among the maximum-gain candidates, prefer the node
    whose removal from the pool does the least damage to scarce points —
    a plain max-gain greedy happily consumes the *last* pool copy of some
    point and bankrupts every later shift.
    """
    n = coverage.n_points
    counts = np.zeros(n, dtype=np.int64)
    chosen: list[int] = []
    pool = list(available)
    covered_lists = dict(zip(pool, coverage.points_covered_by_many(pool)))
    # pool supply per point (feasibility + scarcity signal)
    supply = np.zeros(n, dtype=np.int64)
    for key in pool:
        supply[covered_lists[key]] += 1
    if np.any(supply < k_active):
        return None
    deficient = counts < k_active
    while np.any(deficient):
        best_key, best_gain, best_damage = -1, -1, np.inf
        for key in pool:
            cov = covered_lists[key]
            gain = int(np.count_nonzero(deficient[cov]))
            if gain < best_gain:
                continue
            # damage: how much this node's departure hurts future shifts;
            # scarce points (small remaining supply) dominate the sum
            damage = float(np.sum(1.0 / (supply[cov].astype(np.float64) ** 2)))
            if gain > best_gain or damage < best_damage:
                best_key, best_gain, best_damage = key, gain, damage
        if best_gain <= 0:
            # cannot make progress although globally feasible: the remaining
            # deficiency needs sensors already chosen -> infeasible partition
            return None
        pool.remove(best_key)
        chosen.append(best_key)
        cov = covered_lists[best_key]
        counts[cov] += 1
        supply[cov] -= 1
        deficient = counts < k_active
    return chosen


def sleep_shifts(
    coverage: CoverageState, *, k_active: int = 1, max_shifts: int | None = None
) -> list[list[int]]:
    """Partition the sensors into disjoint shifts, each ``k_active``-covering
    the field.

    Parameters
    ----------
    coverage:
        Coverage state of the full deployment (must itself satisfy
        ``k_active``-coverage).
    k_active:
        Coverage degree each shift must provide on its own.
    max_shifts:
        Optional cap on the number of shifts extracted.

    Returns
    -------
    list[list[int]]
        Disjoint lists of sensor keys.  The first list(s) are complete
        shifts; leftover sensors that cannot form a further complete shift
        are appended to the *last* shift (so the union is always the full
        sensor set and every shift still covers the field).

    Raises
    ------
    CoverageError
        If the full deployment does not ``k_active``-cover the field.
    """
    if k_active < 1:
        raise CoverageError(f"k_active must be >= 1, got {k_active}")
    if not coverage.is_fully_covered(k_active):
        raise CoverageError(
            "the deployment itself does not achieve the requested coverage"
        )
    remaining = list(coverage.sensor_keys())
    shifts: list[list[int]] = []
    while remaining:
        if max_shifts is not None and len(shifts) >= max_shifts:
            break
        shift = _greedy_shift(coverage, remaining, k_active)
        if shift is None:
            break
        shifts.append(shift)
        shift_set = set(shift)
        remaining = [key for key in remaining if key not in shift_set]
    if not shifts:
        # cannot even form one shift below max_shifts=0; degenerate call
        return [list(coverage.sensor_keys())]
    if remaining:
        shifts[-1].extend(remaining)
    return shifts


def lifetime_factor(coverage: CoverageState, *, k_active: int = 1) -> int:
    """Number of complete disjoint shifts — the lifetime multiplier.

    A deployment that k-covers the field should yield close to ``k`` shifts
    at ``k_active = 1`` (exactly ``k`` is not always achievable because the
    shifts must partition the sensors geometrically).
    """
    shifts = sleep_shifts(coverage, k_active=k_active)
    return len(shifts)

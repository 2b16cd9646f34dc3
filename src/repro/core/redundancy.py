"""Redundant-node identification (paper §4, Figure 9).

A node is *redundant* when it does not contribute to the coverage goal: every
field point it covers is covered at least ``k + 1`` times, so removing it
still leaves the field k-covered.  Redundant nodes are pure overhead; the
paper identifies them "at the end of the algorithm execution" and uses their
count as the resource-waste metric.

Because redundancy is mutual (two stacked spare nodes are each individually
redundant, but removing both may break coverage), identification must be
*sequential*: scan the nodes, and whenever one is removable under the current
counts, actually deduct its coverage before examining the next.  The scan
order is placement order by default (later, more speculative placements are
examined first — they are the likeliest waste), which also makes the result
deterministic.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CoverageError
from repro.network.coverage import CoverageState

__all__ = ["redundant_nodes", "redundancy_fraction"]


def redundant_nodes(
    coverage: CoverageState,
    k: int,
    *,
    order: np.ndarray | None = None,
    newest_first: bool = True,
) -> np.ndarray:
    """Sensor keys removable (sequentially) without breaking k-coverage.

    Parameters
    ----------
    coverage:
        Coverage state of the deployment under scrutiny.  Not mutated — the
        sequential deductions happen on a scratch copy of the counts.  No
        spatial index is (re)built here: the per-sensor cover sets recorded
        by the state's shared :class:`~repro.field.FieldModel` queries are
        all the geometry redundancy needs.
    k:
        The coverage requirement the deployment must keep satisfying.
    order:
        Explicit scan order (sensor keys).  Defaults to registration order,
        reversed when ``newest_first``.
    newest_first:
        Scan the most recently added sensors first (default).

    Returns
    -------
    numpy.ndarray
        Sorted keys of redundant sensors.

    Notes
    -----
    The result is a maximal *sequentially* removable set under the given
    order, the same notion the paper's counting uses; finding the maximum
    removable set is NP-hard (it contains minimum disc k-cover).
    """
    if k < 1:
        raise CoverageError(f"k must be >= 1, got {k}")
    keys = coverage.sensor_keys()
    if order is None:
        scan = list(reversed(keys)) if newest_first else list(keys)
    else:
        scan = [int(key) for key in np.asarray(order).reshape(-1)]
        if sorted(scan) != sorted(keys):
            raise CoverageError("order must be a permutation of the sensor keys")
    counts = coverage.counts.copy()
    redundant: list[int] = []
    for key, covered in zip(scan, coverage.points_covered_by_many(scan)):
        if covered.size == 0 or np.all(counts[covered] >= k + 1):
            counts[covered] -= 1
            redundant.append(key)
    return np.asarray(sorted(redundant), dtype=np.intp)


def redundancy_fraction(
    coverage: CoverageState,
    k: int,
    *,
    among: np.ndarray | None = None,
    newest_first: bool = True,
) -> float:
    """Fraction of sensors that are redundant (Figure 9's y-axis).

    Parameters
    ----------
    among:
        Restrict the *numerator and denominator* to these sensor keys (e.g.
        only the nodes an algorithm added, excluding the initial seed
        deployment).  Redundancy is still assessed against the full coverage
        state.
    """
    redundant = set(int(r) for r in redundant_nodes(coverage, k, newest_first=newest_first))
    if among is None:
        population = coverage.sensor_keys()
    else:
        population = [int(x) for x in np.asarray(among).reshape(-1)]
    if not population:
        return 0.0
    hits = sum(1 for key in population if key in redundant)
    return hits / len(population)

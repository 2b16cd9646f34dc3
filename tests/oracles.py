"""Brute-force coverage from plain pairwise distances.

Shares no code with :mod:`repro.geometry` or :mod:`repro.field`, so it can
certify what the neighbour index and the coverage bookkeeping report.
"""

from __future__ import annotations

import numpy as np


def dense_cover(points: np.ndarray, positions: np.ndarray, rs: float) -> np.ndarray:
    """``cover[i, p]``: the sensor at ``positions[i]`` covers field point
    ``points[p]``, i.e. ``d² <= rs²``; ``cover.sum(axis=0)`` is the
    per-point coverage count."""
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 2)
    d2 = ((positions[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1)
    return d2 <= rs * rs

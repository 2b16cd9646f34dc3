"""Intruder detection and localisation accuracy (paper motivation #2).

"The detection of an intruder ... often requires that the intruder should be
detected by more than one sensor devices. ... restoring k-coverage is
essential in order to increase precision and accurately determine the exact
position, speed and direction of the intruder."  (§1, citing the multisensor
fusion handbook [4].)

This module quantifies that claim on a concrete deployment:

* :func:`detection_counts` — how many sensors see each point of an intruder
  trajectory (a k-covered field guarantees >= k everywhere).
* :func:`localize_trajectory` — least-squares multilateration from noisy
  range measurements of all detecting sensors.
* :func:`localization_errors` — position error per trajectory point; with
  i.i.d. range noise the error shrinks roughly like ``1/sqrt(#sensors)``,
  which is the quantitative form of the paper's accuracy argument (checked
  by the tests and the ``intruder_detection`` example).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.neighbors import UniformGridIndex
from repro.geometry.points import as_points, distances_to

__all__ = [
    "detection_counts",
    "localize_trajectory",
    "localization_errors",
    "estimate_velocity",
]


def detection_counts(
    sensor_positions: np.ndarray, trajectory: np.ndarray, rs: float
) -> np.ndarray:
    """Number of sensors within sensing range of each trajectory point."""
    sensors = as_points(sensor_positions)
    traj = as_points(trajectory)
    if rs <= 0:
        raise ConfigurationError(f"sensing radius must be positive, got {rs}")
    return UniformGridIndex(sensors, rs).ball_counts(traj)


def _merge_coincident(
    anchors: np.ndarray, ranges: np.ndarray, tol: float = 1e-9
) -> tuple[np.ndarray, np.ndarray]:
    """Collapse coincident anchors, averaging their range measurements."""
    rounded = np.round(anchors / tol) * tol
    uniq, inverse = np.unique(rounded, axis=0, return_inverse=True)
    merged_ranges = np.zeros(len(uniq))
    counts = np.zeros(len(uniq))
    np.add.at(merged_ranges, inverse, ranges)
    np.add.at(counts, inverse, 1.0)
    return uniq, merged_ranges / counts


def _multilaterate(
    anchors: np.ndarray, ranges: np.ndarray, n_refine: int = 25
) -> np.ndarray:
    """Nonlinear least-squares position estimate from anchors and ranges.

    Initialised by the classical linearisation (subtracting the first
    anchor's circle equation: ``2 (a_i - a_0) . x = |a_i|^2 - |a_0|^2 +
    r_0^2 - r_i^2``), then refined with Gauss-Newton steps on the true
    range residuals ``|x - a_i| - r_i``.  The refinement matters: the
    linearised estimate shares the reference anchor's noise across every
    equation, so extra anchors barely help it, whereas the nonlinear fit
    averages noise down like ``1/sqrt(#anchors)`` — the behaviour the
    paper's accuracy argument relies on.  Needs >= 3 non-collinear anchors
    for a unique fix.
    """
    a0 = anchors[0]
    rest = anchors[1:]
    lhs = 2.0 * (rest - a0)
    rhs = (
        np.sum(rest**2, axis=1)
        - np.sum(a0**2)
        + ranges[0] ** 2
        - ranges[1:] ** 2
    )
    x_lin, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)

    def refine(x: np.ndarray) -> tuple[np.ndarray, float]:
        for _ in range(n_refine):
            diff = x[None, :] - anchors
            dist = np.linalg.norm(diff, axis=1)
            safe = np.maximum(dist, 1e-9)
            jac = diff / safe[:, None]
            residual = dist - ranges
            step, *_ = np.linalg.lstsq(jac, residual, rcond=None)
            x = x - step
            if float(np.linalg.norm(step)) < 1e-12:
                break
        final = np.linalg.norm(x[None, :] - anchors, axis=1) - ranges
        return x, float(np.sum(final**2))

    # multi-start: near-collinear anchor sets have a mirror local minimum,
    # so refine from several seeds and keep the lowest-residual fix
    starts = [x_lin, anchors.mean(axis=0), anchors[int(np.argmin(ranges))]]
    best_x, best_cost = None, np.inf
    for s in starts:
        x, cost = refine(np.asarray(s, dtype=float))
        if cost < best_cost:
            best_x, best_cost = x, cost
    return best_x


def localize_trajectory(
    sensor_positions: np.ndarray,
    trajectory: np.ndarray,
    rs: float,
    rng: np.random.Generator,
    *,
    range_noise_std: float = 0.25,
) -> tuple[np.ndarray, np.ndarray]:
    """Estimate each trajectory point from noisy ranges of detecting sensors.

    Parameters
    ----------
    sensor_positions, trajectory, rs:
        Deployment, ground-truth intruder path and sensing radius.
    range_noise_std:
        Standard deviation of the additive Gaussian range noise.

    Returns
    -------
    tuple
        ``(estimates, n_detectors)`` — ``estimates`` is ``(m, 2)`` with NaN
        rows where fewer than 3 sensors detect the intruder (no unique fix),
        ``n_detectors`` the detector count per point.
    """
    sensors = as_points(sensor_positions)
    traj = as_points(trajectory)
    if range_noise_std < 0:
        raise ConfigurationError("noise std must be non-negative")
    # cells must be wider than 0 for rs = 0 too; any width is exact
    balls = UniformGridIndex(sensors, rs or 1.0).query_ball_many(traj, rs) if len(traj) else []
    estimates = np.full_like(traj, np.nan)
    n_det = np.zeros(len(traj), dtype=np.intp)
    for i, (p, ball) in enumerate(zip(traj, balls)):
        # ascending, so each detector's noise draw depends on the input only
        detectors = np.sort(ball)
        n_det[i] = detectors.size
        if detectors.size < 3:
            continue
        anchors = sensors[detectors]
        true_ranges = distances_to(anchors, p)
        noisy = true_ranges + rng.normal(0.0, range_noise_std, size=true_ranges.shape)
        np.clip(noisy, 0.0, None, out=noisy)
        # merge coincident sensors (stacked deployments): they contribute one
        # anchor whose range is the average of their measurements; a unique
        # planar fix needs >= 3 *distinct* anchors
        merged, merged_ranges = _merge_coincident(anchors, noisy)
        if len(merged) < 3:
            continue
        estimates[i] = _multilaterate(merged, merged_ranges)
    return estimates, n_det


def estimate_velocity(
    estimates: np.ndarray,
    times: np.ndarray,
    *,
    window: int = 5,
) -> np.ndarray:
    """Velocity estimates from a sequence of (noisy) position fixes.

    The paper's surveillance motivation asks for the intruder's "exact
    position, speed and direction" (§1); speed and direction come from
    differentiating the fixes.  A local linear least-squares fit over a
    sliding window of valid fixes tames the noise (plain finite differences
    amplify it by ``sqrt(2)/dt``).

    Parameters
    ----------
    estimates:
        ``(m, 2)`` position fixes; NaN rows (no fix) are skipped.
    times:
        ``(m,)`` strictly increasing timestamps.
    window:
        Fit window size in samples (odd, >= 3).

    Returns
    -------
    numpy.ndarray
        ``(m, 2)`` velocity vectors; NaN where fewer than 3 valid fixes
        fall inside the window.
    """
    est = np.asarray(estimates, dtype=float)
    t = np.asarray(times, dtype=float).reshape(-1)
    if est.ndim != 2 or est.shape[1] != 2 or est.shape[0] != t.shape[0]:
        raise ConfigurationError(
            f"shape mismatch: estimates {est.shape} vs times {t.shape}"
        )
    if t.size >= 2 and not np.all(np.diff(t) > 0):
        raise ConfigurationError("times must be strictly increasing")
    if window < 3 or window % 2 == 0:
        raise ConfigurationError(f"window must be odd and >= 3, got {window}")
    m = est.shape[0]
    vel = np.full((m, 2), np.nan)
    half = window // 2
    valid = ~np.isnan(est[:, 0])
    for i in range(m):
        lo, hi = max(0, i - half), min(m, i + half + 1)
        sel = np.nonzero(valid[lo:hi])[0] + lo
        if sel.size < 3:
            continue
        ts = t[sel] - t[sel].mean()
        denom = float(np.sum(ts**2))
        if denom <= 1e-12:
            continue
        vel[i, 0] = float(np.sum(ts * est[sel, 0])) / denom
        vel[i, 1] = float(np.sum(ts * est[sel, 1])) / denom
    return vel


def localization_errors(
    estimates: np.ndarray, trajectory: np.ndarray
) -> np.ndarray:
    """Euclidean error per trajectory point (NaN where no fix was possible)."""
    est = np.asarray(estimates, dtype=float)
    traj = as_points(trajectory)
    if est.shape != traj.shape:
        raise ConfigurationError(
            f"shape mismatch: estimates {est.shape} vs trajectory {traj.shape}"
        )
    return np.sqrt(np.sum((est - traj) ** 2, axis=1))

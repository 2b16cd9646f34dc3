"""Seed-averaged series execution with per-process caching.

Several figures (8, 9, 10, 11, 12, 13, 14) interrogate the *same*
deployments; :class:`DeploymentCache` memoises one full placement run per
``(series, k, seed)`` so a whole-figure-suite pass deploys each network
once.

Seeding discipline: run ``seed`` fully determines the random initial
deployment, the field (for stochastic generators) and every stochastic
choice of the methods, so results are bitwise reproducible; the 5-run
averages of the paper map to seeds ``0..4``.

The cache also owns one :class:`~repro.field.FieldModel` per seed
(:meth:`DeploymentCache.field`): all six series and the entire k sweep of a
figure suite share that model's index/adjacency caches, so each spatial
index is built at most once per (field, radius) — the model's build
counters make this assertable in tests.
"""

from __future__ import annotations

import numpy as np

from repro.core.planner import run_method
from repro.core.result import DeploymentResult
from repro.errors import ExperimentError
from repro.discrepancy.randomization import cranley_patterson_rotation
from repro.discrepancy.sequences import unit_points
from repro.experiments.setup import ExperimentSetup, Series, series_by_name
from repro.field import FieldModel
from repro.obs import OBS, bridge_field_stats, record_coverage_health

__all__ = [
    "field_for_seed",
    "field_model_for_seed",
    "initial_for_seed",
    "run_series",
    "DeploymentCache",
]


def field_for_seed(setup: ExperimentSetup, seed: int) -> np.ndarray:
    """The field approximation for one run.

    The paper averages runs over "randomly generated fields"; deterministic
    generators (Halton, Hammersley) are randomised per seed with a
    Cranley-Patterson rotation, which varies the field while preserving its
    low discrepancy.  Stochastic generators draw from the seed directly.
    """
    rng = np.random.default_rng(10_000 + seed)
    unit = unit_points(setup.generator, setup.n_points, rng)
    if setup.generator in ("halton", "hammersley", "lattice"):
        unit = cranley_patterson_rotation(unit, rng)
    return setup.region.scale_unit_points(unit)


def field_model_for_seed(setup: ExperimentSetup, seed: int) -> FieldModel:
    """A fresh :class:`~repro.field.FieldModel` over :func:`field_for_seed`.

    Use :meth:`DeploymentCache.field` when running a whole suite — it hands
    out the *same* model per seed so every series and every k share the
    cached indices.
    """
    return FieldModel(field_for_seed(setup, seed))


def initial_for_seed(setup: ExperimentSetup, seed: int) -> np.ndarray:
    """The random initial deployment (paper: up to 200 nodes) for one run."""
    rng = np.random.default_rng(20_000 + seed)
    return setup.region.sample(setup.n_initial, rng)


def run_series(
    setup: ExperimentSetup,
    series: Series | str,
    k: int,
    seed: int,
    *,
    initial_positions: np.ndarray | None = None,
    use_initial: bool = True,
    field: FieldModel | None = None,
) -> DeploymentResult:
    """Run one series at one (k, seed); returns the full placement result.

    Parameters
    ----------
    initial_positions:
        Override the seed-derived initial deployment (used by the
        restoration figures, which seed with failure survivors).
    use_initial:
        If false, start from an empty field (Figure 7's from-scratch
        trajectories also work seeded; both are supported).
    field:
        A shared :class:`~repro.field.FieldModel` for this seed's field.
        Must cover the same points :func:`field_for_seed` would produce;
        ``None`` builds the points (and a throwaway model) internally.
    """
    if isinstance(series, str):
        series = series_by_name(series)
    pts = field if field is not None else field_for_seed(setup, seed)
    spec = setup.spec_for(series)
    if initial_positions is None and use_initial:
        initial_positions = initial_for_seed(setup, seed)
    rng = np.random.default_rng(30_000 + seed)
    snap = (
        pts.stats.snapshot()
        if OBS.enabled and isinstance(pts, FieldModel)
        else None
    )
    with OBS.span("series", series=series.name, method=series.method, seed=seed):
        with OBS.span("k", k=k) as k_span:
            result = run_method(
                series.method,
                pts,
                spec,
                k,
                region=setup.region,
                rng=rng,
                cell_size=setup.cell_size_for(series),
                initial_positions=initial_positions,
            )
            k_span.set(added=int(result.added_ids.size))
    if snap is not None:
        bridge_field_stats(pts.stats, since=snap)
    if OBS.enabled:
        record_coverage_health(result.coverage, k)
        OBS.sample("cell", series=series.name, k=k, seed=seed)
    return result


class DeploymentCache:
    """Memoised :func:`run_series` results keyed by (series, k, seed).

    ``use_initial=False`` (the default) deploys from an empty field, which
    is how the paper's deployment figures are calibrated (its centralized
    node counts sit at the disc-packing bound, impossible when 200 randomly
    pre-placed nodes are part of the total); the failure figures then damage
    these same deployments.

    One :class:`~repro.field.FieldModel` per seed (:meth:`field`) backs
    every run: the six series and the whole k sweep reuse its cached
    neighbour index, ``rs``-adjacencies and grid decompositions.
    """

    def __init__(self, setup: ExperimentSetup, *, use_initial: bool = False):
        self.setup = setup
        self.use_initial = use_initial
        self._store: dict[tuple[str, int, int], DeploymentResult] = {}
        self._fields: dict[int, FieldModel] = {}

    def describe(self) -> dict:
        """The semantic configuration this cache's results depend on.

        Run-ledger rows fingerprint this dict: the setup parameters and
        whether runs start from the random initial deployment.  Worker
        count is deliberately absent — pooled and serial runs of the same
        config are the same experiment.
        """
        return {
            "setup": self.setup.describe(),
            "use_initial": self.use_initial,
        }

    def field(self, seed: int) -> FieldModel:
        """The shared per-seed :class:`~repro.field.FieldModel`."""
        key = int(seed)
        if key not in self._fields:
            self._fields[key] = field_model_for_seed(self.setup, key)
        return self._fields[key]

    def has_field(self, seed: int) -> bool:
        """Whether a model for ``seed`` exists without building one."""
        return int(seed) in self._fields

    def adopt_field(self, seed: int, model: FieldModel) -> None:
        """Use a caller-built model as this cache's per-seed field.

        The zero-copy seam for :mod:`repro.parallel` workers: a model
        reconstructed over shared-memory views stands in for the one
        :meth:`field` would have built (it must cover the same points
        :func:`field_for_seed` produces — the caller guarantees that).
        Re-adopting over an existing different model raises, for the
        same reason :meth:`absorb` refuses overwrites.
        """
        key = int(seed)
        existing = self._fields.get(key)
        if existing is not None and existing is not model:
            raise ExperimentError(
                f"cache already holds a field model for seed {key}; "
                "refusing to replace it"
            )
        self._fields[key] = model

    def drop_results(self) -> None:
        """Forget memoised results; per-seed field models are kept.

        Pool workers call this after every chunk so each submitted cell
        is computed fresh (a worker-side cache hit would skip the cell's
        telemetry and diverge from the serial stream) and worker memory
        stays bounded, while the expensive field artifacts persist.
        """
        self._store.clear()

    def get(self, series: Series | str, k: int, seed: int) -> DeploymentResult:
        name = series if isinstance(series, str) else series.name
        key = (name, int(k), int(seed))
        if key not in self._store:
            if OBS.enabled:
                OBS.counter("deployment_cache_total", outcome="miss").inc()
            self._store[key] = run_series(
                self.setup, name, k, seed,
                use_initial=self.use_initial, field=self.field(seed),
            )
        elif OBS.enabled:
            OBS.counter("deployment_cache_total", outcome="hit").inc()
        return self._store[key]

    def absorb(self, series: Series | str, k: int, seed: int,
               result: DeploymentResult) -> None:
        """Store a result computed elsewhere (a :mod:`repro.parallel` worker).

        The entry must not already be cached with a different object — a
        silent overwrite would let a worker disagree with the serial path
        unnoticed.
        """
        name = series if isinstance(series, str) else series.name
        key = (name, int(k), int(seed))
        if key in self._store and self._store[key] is not result:
            raise ExperimentError(
                f"cache already holds a result for {key}; refusing to overwrite"
            )
        self._store[key] = result

    def prefill(self, cells, *, workers: int | None = None) -> int:
        """Compute every ``(series, k, seed)`` cell, optionally in parallel.

        Delegates to :func:`repro.parallel.prefill_cache`; with the default
        ``workers=None`` the cells run serially in-process, and
        ``workers >= 2`` runs them on a worker pool opened for this one
        batch.  Returns the number of cells actually computed
        (already-cached cells are skipped).
        """
        from repro.parallel import prefill_cache

        return prefill_cache(self, cells, workers=workers)

    def __contains__(self, key: tuple) -> bool:
        series, k, seed = key
        name = series if isinstance(series, str) else series.name
        return (name, int(k), int(seed)) in self._store

    def __len__(self) -> int:
        return len(self._store)

"""Process-parallel fan-out of (series, k, seed) deployment cells.

A figure suite's unit of work is one *cell*: run one series at one
``(k, seed)`` and memoise the result in a
:class:`~repro.experiments.runner.DeploymentCache`.  Cells are mutually
independent — each derives everything from its own seeds — so a sweep
can shard them across worker processes.

The package splits the machinery by ownership:

* :mod:`repro.parallel.pool` — the persistent :class:`WorkerPool`
  (chunk scheduling, buffered in-order absorption, lifecycle) and the
  :func:`prefill_cache` entry point every caller funnels through.
* :mod:`repro.parallel.shm` — shared-memory posting of per-seed
  FieldModel arrays (parent creates/unlinks, workers attach views).

Design rules, each load-bearing for reproducibility:

* **Deterministic merge.**  Results are folded back in *submission*
  order, never completion order, so the parent cache — and any OBS
  telemetry merged along the way — is bit-identical to a serial run
  regardless of worker scheduling.
* **Per-worker state.**  Each worker owns a private ``DeploymentCache``;
  only read-only shared-memory array views are shared.
* **No hidden randomness.**  Workers derive every stochastic choice
  from the cell's seed, exactly as the serial path does.  The linter's
  DET001 forbids un-seeded RNG construction, and DET002 wall-clock
  reads, in every library module, so in every function a worker can
  reach.
* **OBS by seam only.**  Workers capture their telemetry through
  :class:`~repro.obs.bridge.capture_worker_obs` and the parent folds it
  in with :func:`~repro.obs.bridge.merge_worker_obs`; no library code
  outside :mod:`repro.obs` and :mod:`repro.cli` enables, disables or
  resets the global runtimes (lint rule OBS006).

Serial semantics are the default: ``workers=None`` (or ``<= 1``, or a
single pending cell) runs in-process with no executor, so the parallel
path is pure opt-in via the CLI's ``--workers N``.
"""

from repro.parallel.pool import (
    Cell,
    WorkerPool,
    normalize_cells,
    plan_chunks,
    prefill_cache,
)
from repro.parallel.shm import SharedFieldStore

__all__ = [
    "Cell",
    "SharedFieldStore",
    "WorkerPool",
    "normalize_cells",
    "plan_chunks",
    "prefill_cache",
]

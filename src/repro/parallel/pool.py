"""One worker pool per batch, with shared-memory payloads and chunk scheduling.

The fan-out unit is the ``(series, k, seed)`` *cell* (:data:`Cell`).
:func:`prefill_cache` is the one entry point: it runs a batch serially
in-process, or opens a :class:`WorkerPool` for the batch and closes it
before returning.

* **Shared memory.**  Per-seed FieldModel arrays are posted once into
  :mod:`repro.parallel.shm` segments; tasks carry only a tiny manifest
  and workers map read-only views (see ``docs/performance.md`` for the
  payload layout and the measured bytes-per-cell reduction).
* **Chunk scheduling with in-order absorption.**  Pending cells are
  grouped into contiguous, size-aware chunks (:func:`plan_chunks`) and
  absorbed in submission order, so the merge order (hence every figure
  byte and telemetry stream) is identical to a serial run.

The reproducibility rules: deterministic submission-order merge,
per-worker private caches, no hidden randomness (lint rules
DET001/DET002), worker OBS state moves only through the
:mod:`repro.obs.bridge` seam (lint rule OBS006).
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import resource_tracker
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.checks import CHECKS
from repro.errors import ConfigurationError, ExperimentError
from repro.obs import OBS, capture_worker_obs, merge_worker_obs
from repro.parallel.shm import Manifest, SharedFieldStore, build_field_model

if TYPE_CHECKING:
    from repro.core.result import DeploymentResult
    from repro.experiments.runner import DeploymentCache
    from repro.experiments.setup import ExperimentSetup
    from repro.geometry.region import Rect

__all__ = [
    "Cell",
    "WorkerPool",
    "normalize_cells",
    "plan_chunks",
    "prefill_cache",
]

#: One unit of parallel work: ``(series_name, k, seed)``.
Cell = tuple[str, int, int]

#: Chunks submitted per worker slot; finer chunks smooth out load
#: imbalance at the cost of a little more per-task overhead.
CHUNK_OVERSUBSCRIBE = 4

#: Per-process worker state, populated once by :func:`_worker_init`.
_WORKER: dict[str, Any] = {}


def normalize_cells(cells: Iterable[Sequence[Any]]) -> list[Cell]:
    """Canonicalise cell specs: name strings, int k/seed, duplicates dropped.

    Order is preserved (first occurrence wins) — the deterministic merge
    depends on it.  Series objects are accepted in place of their names.

    >>> normalize_cells([("grid-small", 2, 0), ("grid-small", 2.0, 0)])
    [('grid-small', 2, 0)]
    """
    out: dict[Cell, None] = {}
    for spec in cells:
        series, k, seed = spec
        name = getattr(series, "name", series)
        out.setdefault((str(name), int(k), int(seed)), None)
    return list(out)


def plan_chunks(
    cells: Sequence[Cell],
    workers: int,
    *,
    oversubscribe: int = CHUNK_OVERSUBSCRIBE,
) -> list[list[Cell]]:
    """Group pending cells into contiguous, size-aware chunks.

    Chunks are contiguous slices of the submission order (so absorbing
    chunk results in chunk order *is* absorbing cells in cell order),
    weighted by each cell's ``k`` — the greedy loop places ~k times the
    sensors, so k is a cheap, deterministic proxy for cell cost.  The
    chunk count targets ``workers * oversubscribe`` so stragglers can't
    idle the pool, and every boundary aims at a fair share of the
    *remaining* weight, keeping the last chunks from going thin.

    >>> cells = [("s", k, 0) for k in (1, 2, 3, 4, 5)]
    >>> [len(c) for c in plan_chunks(cells, 2, oversubscribe=1)]
    [4, 1]
    """
    if workers <= 1 or len(cells) <= 1:
        return [list(cells)]
    n_chunks = min(len(cells), max(1, workers * oversubscribe))
    weights = [max(1, int(k)) for _, k, _ in cells]
    remaining = float(sum(weights))
    chunks: list[list[Cell]] = []
    current: list[Cell] = []
    acc = 0.0
    for cell, weight in zip(cells, weights):
        current.append(cell)
        acc += weight
        chunks_left = n_chunks - len(chunks)
        if chunks_left > 1 and acc >= remaining / chunks_left:
            chunks.append(current)
            remaining -= acc
            current, acc = [], 0.0
    if current:
        chunks.append(current)
    return chunks


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


def _worker_init(
    setup: "ExperimentSetup", use_initial: bool, checks_enabled: bool
) -> None:
    """Build this worker's private cache; runs once per worker process."""
    from repro.experiments.runner import DeploymentCache

    if checks_enabled:
        CHECKS.enable()
    _WORKER["cache"] = DeploymentCache(setup, use_initial=use_initial)


def _worker_run_chunk(
    chunk: list[Cell],
    manifests: list[Manifest],
    recording: bool | None,
) -> tuple[list[Cell], list["DeploymentResult"], dict[str, Any] | None]:
    """Run one chunk of cells; ship results plus captured telemetry.

    Fields arrive as shared-memory manifests and are adopted into the
    worker cache once per seed: one worker runs several chunks of the
    same seed.  Results do not persist: ``drop_results`` runs even on
    failure, so every cell the parent submits is computed fresh — a
    worker cache hit would skip the cell's telemetry and silently
    diverge from the serial stream — and worker memory stays bounded by
    one chunk.
    """
    cache: "DeploymentCache" = _WORKER["cache"]
    for manifest in manifests:
        if not cache.has_field(manifest["seed"]):
            cache.adopt_field(manifest["seed"], build_field_model(manifest))
    try:
        with capture_worker_obs(recording) as cap:
            results = [cache.get(*cell) for cell in chunk]
    finally:
        cache.drop_results()
    return chunk, results, cap.payload()


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


def _grid_partitions(
    setup: "ExperimentSetup", todo: Sequence[Cell]
) -> tuple[tuple["Rect", float], ...]:
    """The grid decompositions the batch's series will ask the field for."""
    from repro.experiments.setup import series_by_name

    sizes: set[float] = set()
    for name in sorted({name for name, _, _ in todo}):
        try:
            series = series_by_name(name)
        except ConfigurationError:
            # unknown series stay the *worker's* error to raise, at the
            # cell's position in the merge order, like every other failure
            continue
        size = setup.cell_size_for(series)
        if series.method == "grid" and size is not None:
            sizes.add(float(size))
    return tuple((setup.region, size) for size in sorted(sizes))


class WorkerPool:
    """A shared-memory process pool that fills one cache for one batch.

    :func:`prefill_cache` opens one per parallel batch and closes it
    before returning; the setup and ``use_initial`` come from the cache
    it fills.  The pool is a context manager and :meth:`close` is
    idempotent: it shuts the executor down and unlinks every shared
    segment, on a clean exit, a worker exception or
    ``KeyboardInterrupt`` alike.  The lifecycle tests assert no
    ``/dev/shm`` residue and no orphaned worker process survives any of
    them.
    """

    def __init__(self, cache: "DeploymentCache", workers: int) -> None:
        self._cache = cache
        self._workers = workers
        self._store = SharedFieldStore()
        self._executor: ProcessPoolExecutor | None = None

    @property
    def store(self) -> SharedFieldStore:
        """The shared-memory segment registry (parent-owned)."""
        return self._store

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Shut workers down and unlink every shared segment (idempotent)."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)
        self._store.close()

    def prefill(self, cells: Sequence[Cell]) -> int:
        """Compute ``cells`` on the workers; returns the number computed.

        ``cells`` are pending in the cache and distinct
        (:func:`prefill_cache` filters them).  Fields are published to
        shared memory, cells are chunked, and chunk results are absorbed
        in submission order.  A worker exception propagates in
        submission order too: chunks before it are absorbed, chunks
        after it are discarded.  A worker process that dies breaks the
        executor: the pool closes and raises
        :class:`~repro.errors.ExperimentError` naming the cells of the
        first chunk it lost.
        """
        cache = self._cache
        setup = cache.setup
        chunks = plan_chunks(cells, self._workers)
        recording = OBS.recording()
        with OBS.span("prefill", cells=len(cells), workers=self._workers):
            partitions = _grid_partitions(setup, cells)
            with OBS.span("pool_publish"):
                manifests = {
                    seed: self._store.publish_field(
                        seed,
                        cache.field(seed),
                        radii=(setup.rs,),
                        partitions=partitions,
                    )
                    for seed in sorted({seed for _, _, seed in cells})
                }
            # Start the shared-memory resource tracker *before* forking
            # workers: children then inherit the parent's tracker pipe,
            # so attach-side registrations and the parent's unlinks
            # balance in one cache.  A worker forked without the pipe
            # spawns a private tracker that, at worker exit, "cleans up"
            # every segment the worker ever attached — unlinking live
            # parent segments out from under a later batch.
            resource_tracker.ensure_running()
            executor = self._executor = ProcessPoolExecutor(
                max_workers=self._workers,
                initializer=_worker_init,
                initargs=(setup, cache.use_initial, CHECKS.enabled),
            )
            # worker telemetry is merged after pool_compute closes, still in
            # submission order, so worker spans graft under "prefill" and
            # the merge counts as instrumentation, not compute
            payloads: list[dict[str, Any] | None] = []
            try:
                with OBS.span("pool_compute"):
                    futures: list[Future[Any]] = [
                        executor.submit(
                            _worker_run_chunk,
                            chunk,
                            [manifests[s] for s in sorted({c[2] for c in chunk})],
                            recording,
                        )
                        for chunk in chunks
                    ]
                    for future in futures:
                        chunk_cells, results, payload = future.result()
                        for cell, result in zip(chunk_cells, results):
                            cache.absorb(*cell, result)
                        payloads.append(payload)
            except BrokenProcessPool as exc:
                # chunks are absorbed in order, so the first one lost is
                # the next after those absorbed
                self.close()
                raise ExperimentError(
                    f"a pool worker died; cells {chunks[len(payloads)]} and "
                    "every later chunk were not computed and the pool is "
                    "closed"
                ) from exc
            finally:
                for payload in payloads:
                    merge_worker_obs(payload)
        if OBS.enabled:
            OBS.counter("parallel_cells_total").inc(len(cells))
            OBS.counter("parallel_batches_total").inc()
            OBS.counter("parallel_chunks_total").inc(len(chunks))
            if self._store.shared_bytes:
                OBS.counter("parallel_shm_bytes_total").inc(
                    self._store.shared_bytes
                )
        return len(cells)


def prefill_cache(
    cache: "DeploymentCache",
    cells: Iterable[Sequence[Any]],
    *,
    workers: int | None = None,
) -> int:
    """Fill ``cache`` with every cell's result; returns the number computed.

    Cells already cached are skipped.  ``workers`` in ``(None, 0, 1)`` —
    or a single pending cell — runs serially in-process, byte-for-byte
    the behaviour of calling ``cache.get`` in a loop; ``workers >= 2``
    runs the batch on a :class:`WorkerPool` closed before returning.

    A worker exception propagates to the caller unchanged (submission
    order); the cache keeps whatever results were absorbed before it.
    """
    if workers is not None and workers < 0:
        raise ConfigurationError(f"workers must be >= 0, got {workers}")
    n_workers = 0 if workers is None else int(workers)
    todo = [c for c in normalize_cells(cells) if c not in cache]
    if not todo:
        return 0
    if n_workers <= 1 or len(todo) == 1:
        for cell in todo:
            cache.get(*cell)
        return len(todo)
    with WorkerPool(cache, min(n_workers, len(todo))) as pool:
        return pool.prefill(todo)

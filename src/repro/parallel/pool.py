"""Persistent worker pool with shared-memory payloads and chunk scheduling.

The fan-out unit is still the ``(series, k, seed)`` *cell*
(:data:`Cell`), but three things changed versus the original throwaway
per-batch executor, each attacking a measured cost:

* **Persistence.**  A :class:`WorkerPool` owns one
  :class:`~concurrent.futures.ProcessPoolExecutor` for its whole
  lifetime; figures, series sweeps and CLI invocations submit into the
  same warm processes instead of paying fork + cache construction per
  batch.
* **Shared memory.**  Per-seed FieldModel arrays are posted once into
  :mod:`repro.parallel.shm` segments; tasks carry only a tiny manifest
  and workers map read-only views (see ``docs/performance.md`` for the
  payload layout and the measured bytes-per-cell reduction).
* **Chunk scheduling with buffered in-order absorption.**  Pending
  cells are grouped into contiguous, size-aware chunks
  (:func:`plan_chunks`), harvested as they complete, and *absorbed* in
  submission order through :class:`_InOrderDrain` — a slow chunk delays
  only the merge of its successors, never the execution of anything,
  and the merge order (hence every figure byte and telemetry stream)
  is identical to a serial run.

The reproducibility rules of the original module are unchanged:
deterministic submission-order merge, per-worker private caches, no
hidden randomness (lint rules DET001/DET002), worker OBS state moves
only through the :mod:`repro.obs.bridge` seam (lint rule OBS006).
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import resource_tracker
from typing import TYPE_CHECKING, Any, Iterable, Sequence, TypeVar

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

_T = TypeVar("_T")


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


class _InOrderDrain:
    """Buffer out-of-order completions; release in submission order.

    The fix for the head-of-line blocking the original ``prefill_cache``
    had: it waited on ``futures[0]`` even when later futures had long
    finished, so one slow cell stalled the telemetry merge for every
    completed one.  ``push(index, item)`` files a completion and returns
    the (possibly empty) run of items that just became releasable.

    >>> drain = _InOrderDrain()
    >>> drain.push(2, "c"), drain.push(0, "a"), drain.push(1, "b")
    ([], ['a'], ['b', 'c'])
    """

    def __init__(self) -> None:
        self._next = 0
        self._buffered: dict[int, Any] = {}

    @property
    def pending(self) -> int:
        return len(self._buffered)

    def push(self, index: int, item: _T) -> list[_T]:
        if index < self._next or index in self._buffered:
            raise ConfigurationError(
                f"completion index {index} already drained or buffered"
            )
        self._buffered[index] = item
        released: list[_T] = []
        while self._next in self._buffered:
            released.append(self._buffered.pop(self._next))
            self._next += 1
        return released


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


def _worker_init(
    setup: "ExperimentSetup",
    use_initial: bool,
    backend: str | None,
    checks_enabled: bool,
) -> None:
    """Build this worker's private cache; runs once per worker process.

    Observability flags deliberately do *not* ride in here: the pool
    outlives OBS enable/disable transitions in the parent, so they are
    per-chunk arguments instead.
    """
    from repro.experiments.runner import DeploymentCache

    if checks_enabled:
        CHECKS.enable()
    _WORKER["cache"] = DeploymentCache(
        setup, use_initial=use_initial, backend=backend
    )


def _worker_ping() -> int:
    """No-op worker round-trip; forces process spawn during warm-up."""
    return os.getpid()


def _worker_run_chunk(
    chunk: list[Cell],
    manifests: list[Manifest],
    recording: bool | None,
) -> tuple[list[Cell], list["DeploymentResult"], dict[str, Any] | None]:
    """Run one chunk of cells; ship results plus captured telemetry.

    Fields arrive as shared-memory manifests and are adopted into the
    worker cache once per seed (they persist across chunks and batches).
    Results do not: ``drop_results`` runs even on failure, so every cell
    the parent ever submits is computed fresh — a worker cache hit would
    skip the cell's telemetry and silently diverge from the serial
    stream — and worker memory stays bounded by one chunk.
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
    """A persistent, shared-memory process pool for experiment cells.

    Create once (optionally via :meth:`for_cache`), reuse across every
    figure/series batch of a run, and close deterministically — as a
    context manager, by calling :meth:`close`, or at worst through the
    ``atexit`` hook registered on construction.  All three paths shut
    the executor down and unlink every shared segment; the lifecycle
    regression tests assert no ``/dev/shm`` residue and no orphaned
    worker processes survive exceptions or ``KeyboardInterrupt``.

    The pool is bound to one cache configuration (setup, ``use_initial``,
    backend); :meth:`prefill` refuses a mismatched cache rather than
    silently computing cells under the wrong setup.
    """

    def __init__(
        self,
        setup: "ExperimentSetup",
        workers: int | None = None,
        *,
        use_initial: bool = False,
        backend: str | None = None,
    ) -> None:
        if workers is not None and workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {workers}")
        self._setup = setup
        self._workers = 0 if workers is None else int(workers)
        self._use_initial = bool(use_initial)
        self._backend = backend
        self._store = SharedFieldStore()
        self._executor: ProcessPoolExecutor | None = None
        self._closed = False
        atexit.register(self.close)

    @classmethod
    def for_cache(
        cls, cache: "DeploymentCache", *, workers: int | None
    ) -> "WorkerPool":
        """A pool matching one cache's configuration."""
        return cls(
            cache.setup,
            workers,
            use_initial=cache.use_initial,
            backend=cache.backend,
        )

    def matches(self, cache: "DeploymentCache") -> bool:
        """Whether ``cache`` runs cells under this pool's configuration."""
        return (
            cache.setup == self._setup
            and bool(cache.use_initial) == self._use_initial
            and cache.backend == self._backend
        )

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def store(self) -> SharedFieldStore:
        """The shared-memory segment registry (parent-owned)."""
        return self._store

    def worker_pids(self) -> list[int]:
        """PIDs of the live worker processes (empty before first use)."""
        if self._executor is None:
            return []
        return sorted(
            pid for pid in self._executor._processes if pid is not None
        )

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Shut workers down and unlink every shared segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        atexit.unregister(self.close)
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)
        self._store.close()

    def warm_up(self) -> None:
        """Spawn the worker processes eagerly (optional, idempotent).

        Pings force the executor to start its workers now instead of on
        the first real batch, so wall-clock benchmarks can separate fork
        + interpreter start-up from per-cell compute.  A no-op for
        serial pools.
        """
        if self._workers <= 1:
            return
        executor = self._ensure_executor()
        for future in [
            executor.submit(_worker_ping) for _ in range(self._workers)
        ]:
            future.result()

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._closed:
            raise ConfigurationError("worker pool is closed")
        if self._executor is None:
            # Start the shared-memory resource tracker *before* forking
            # workers: children then inherit the parent's tracker pipe,
            # so attach-side registrations and the parent's unlinks
            # balance in one cache.  A worker forked without the pipe
            # spawns a private tracker that, at worker exit, "cleans up"
            # every segment the worker ever attached — unlinking live
            # parent segments out from under a later batch.
            resource_tracker.ensure_running()
            self._executor = ProcessPoolExecutor(
                max_workers=self._workers,
                initializer=_worker_init,
                initargs=(
                    self._setup,
                    self._use_initial,
                    self._backend,
                    CHECKS.enabled,
                ),
            )
        return self._executor

    def prefill(
        self, cache: "DeploymentCache", cells: Iterable[Sequence[Any]]
    ) -> int:
        """Fill ``cache`` with every pending cell; returns the number computed.

        Serial fallback (no executor, no segments) when the pool has
        ``workers <= 1`` or only one cell is pending — byte-for-byte the
        behaviour of calling ``cache.get`` in a loop.  Otherwise fields
        are published to shared memory (first batch per seed only),
        cells are chunked, and completions are absorbed in submission
        order.  A worker exception propagates in submission order too:
        chunks before it are absorbed, chunks after it are discarded.  A
        worker process that dies, mid-batch or idle between batches,
        breaks the executor: the pool closes and raises
        :class:`~repro.errors.ExperimentError` naming the cells of the
        first chunk it lost.
        """
        if self._closed:
            raise ConfigurationError("worker pool is closed")
        if not self.matches(cache):
            raise ConfigurationError(
                "pool was created for a different cache configuration "
                "(setup/use_initial/backend must match)"
            )
        todo = [c for c in normalize_cells(cells) if c not in cache]
        if not todo:
            return 0
        if self._workers <= 1 or len(todo) == 1:
            for cell in todo:
                cache.get(*cell)
            return len(todo)

        chunks = plan_chunks(todo, self._workers)
        recording = OBS.recording()
        bytes_before = self._store.shared_bytes
        with OBS.span("prefill", cells=len(todo), workers=self._workers):
            partitions = _grid_partitions(self._setup, todo)
            with OBS.span("pool_publish"):
                manifests = {
                    seed: self._store.publish_field(
                        seed,
                        cache.field(seed),
                        radii=(self._setup.rs,),
                        partitions=partitions,
                    )
                    for seed in sorted({seed for _, _, seed in todo})
                }
            executor = self._ensure_executor()
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
                    order = {future: i for i, future in enumerate(futures)}
                    drain = _InOrderDrain()
                    # harvest as completed, absorb in submission order: a
                    # slow chunk buffers its successors instead of blocking
                    for future in as_completed(futures):
                        for ready in drain.push(order[future], future):
                            chunk_cells, results, payload = ready.result()
                            for cell, result in zip(chunk_cells, results):
                                cache.absorb(*cell, result)
                            payloads.append(payload)
            except BrokenProcessPool as exc:
                # chunks are absorbed in order, so the first one lost is
                # the next after those absorbed (a submit to an executor
                # broken while idle loses them all)
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
            OBS.counter("parallel_cells_total").inc(len(todo))
            OBS.counter("parallel_batches_total").inc()
            OBS.counter("parallel_chunks_total").inc(len(chunks))
            posted = self._store.shared_bytes - bytes_before
            if posted:
                OBS.counter("parallel_shm_bytes_total").inc(posted)
        return len(todo)


def prefill_cache(
    cache: "DeploymentCache",
    cells: Iterable[Sequence[Any]],
    *,
    workers: int | None = None,
    pool: WorkerPool | None = None,
) -> int:
    """Fill ``cache`` with every cell's result; returns the number computed.

    Cells already cached are skipped.  With a ``pool``, the batch runs on
    that (persistent) pool.  Otherwise ``workers`` in ``(None, 0, 1)`` —
    or a single pending cell — runs serially in-process, byte-for-byte
    the behaviour of calling ``cache.get`` in a loop, and ``workers >=
    2`` runs the batch on a transient pool torn down before returning.

    A worker exception propagates to the caller unchanged (submission
    order); the cache keeps whatever results were absorbed before it.
    """
    if pool is not None:
        return pool.prefill(cache, cells)
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
    with WorkerPool.for_cache(
        cache, workers=min(n_workers, len(todo))
    ) as transient:
        return transient.prefill(cache, cells)

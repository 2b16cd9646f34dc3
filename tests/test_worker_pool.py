"""Lifecycle and scheduling tests for the persistent worker pool.

Two contracts live here.  **Safety**: whatever happens inside a pool's
lifetime — clean use, worker exceptions, ``KeyboardInterrupt``, or the
process exiting without an explicit close — no ``/dev/shm`` segment and
no worker process survives it.  **Scheduling**: chunk planning is a
deterministic, contiguous partition of the submission order, and the
in-order drain releases completions in submission order no matter what
order they arrive in.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, ExperimentError, ReproError
from repro.experiments.figures import cells_for_figure
from repro.experiments.runner import DeploymentCache
from repro.experiments.setup import ExperimentSetup
from repro.obs import OBS
from repro.parallel import WorkerPool, plan_chunks, prefill_cache
from repro.parallel.pool import _InOrderDrain


@pytest.fixture(scope="module")
def setup() -> ExperimentSetup:
    return ExperimentSetup(
        field_side=25.0, n_points=120, n_initial=0, n_seeds=2, k_values=(1,)
    )


@pytest.fixture(autouse=True)
def pristine_obs():
    OBS.reset()
    yield
    OBS.reset()


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _shm_residue(names: list[str]) -> list[str]:
    shm = Path("/dev/shm")
    if not shm.exists():  # pragma: no cover - non-Linux fallback
        return []
    return [n for n in names if (shm / n).exists()]


# ----------------------------------------------------------------------
# lifecycle safety
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_clean_close_releases_everything(self, setup):
        cache = DeploymentCache(setup)
        pool = WorkerPool.for_cache(cache, workers=2)
        with pool:
            pool.prefill(cache, cells_for_figure(setup, 8))
            names = pool.store.segment_names
            pids = pool.worker_pids()
            assert names and pids
            assert _shm_residue(names) == names  # live while open
        assert pool.closed
        assert _shm_residue(names) == []
        assert not any(_alive(pid) for pid in pids)

    def test_close_is_idempotent(self, setup):
        pool = WorkerPool(setup, 2)
        pool.close()
        pool.close()
        assert pool.closed

    def test_worker_exception_still_cleans_up(self, setup):
        cache = DeploymentCache(setup)
        names: list[str] = []
        pids: list[int] = []
        with pytest.raises(ReproError):
            with WorkerPool.for_cache(cache, workers=2) as pool:
                cells = cells_for_figure(setup, 8)
                cells.insert(3, ("no-such-series", 1, 0))
                try:
                    pool.prefill(cache, cells)
                finally:
                    names.extend(pool.store.segment_names)
                    pids.extend(pool.worker_pids())
        assert names and pids
        assert _shm_residue(names) == []
        assert not any(_alive(pid) for pid in pids)

    def test_keyboard_interrupt_still_cleans_up(self, setup):
        cache = DeploymentCache(setup)
        names: list[str] = []
        pids: list[int] = []
        with pytest.raises(KeyboardInterrupt):
            with WorkerPool.for_cache(cache, workers=2) as pool:
                pool.prefill(cache, cells_for_figure(setup, 8))
                names.extend(pool.store.segment_names)
                pids.extend(pool.worker_pids())
                raise KeyboardInterrupt()
        assert names and pids
        assert _shm_residue(names) == []
        assert not any(_alive(pid) for pid in pids)

    def test_atexit_cleans_up_unclosed_pool(self, tmp_path):
        """A pool abandoned at interpreter exit leaves no /dev/shm residue."""
        script = tmp_path / "abandon_pool.py"
        script.write_text(
            "from repro.experiments.runner import DeploymentCache\n"
            "from repro.experiments.setup import ExperimentSetup\n"
            "from repro.parallel import WorkerPool\n"
            "setup = ExperimentSetup(field_side=20.0, n_points=60,\n"
            "                        n_initial=0, n_seeds=1, k_values=(1,))\n"
            "cache = DeploymentCache(setup)\n"
            "pool = WorkerPool.for_cache(cache, workers=2)\n"
            "pool.prefill(cache, [('random', 1, 0), ('centralized', 1, 0)])\n"
            "print('\\n'.join(pool.store.segment_names))\n"
            "# no close(): the atexit hook must release everything\n",
            encoding="utf-8",
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        names = [ln for ln in proc.stdout.splitlines() if ln.startswith("decor-")]
        assert names
        assert _shm_residue(names) == []

    def test_no_stray_worker_trackers_across_pool_generations(self, tmp_path):
        """Workers forked before any segment exists must share the
        parent's resource tracker — a private worker tracker "cleans up"
        attached segments at worker exit, racing the next pool's
        same-named segments and spamming unlink warnings."""
        script = tmp_path / "pool_rounds.py"
        script.write_text(
            "from repro.experiments.figures import cells_for_figure\n"
            "from repro.experiments.runner import DeploymentCache\n"
            "from repro.experiments.setup import ExperimentSetup\n"
            "from repro.parallel import WorkerPool\n"
            "setup = ExperimentSetup(field_side=20.0, n_points=60,\n"
            "                        n_initial=0, n_seeds=1, k_values=(1,))\n"
            "for _ in range(2):\n"
            "    cache = DeploymentCache(setup)\n"
            "    with WorkerPool.for_cache(cache, workers=2) as pool:\n"
            "        pool.warm_up()  # fork before the first segment\n"
            "        pool.prefill(cache, cells_for_figure(setup, 8))\n",
            encoding="utf-8",
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True, text=True, env=env, timeout=180,
        )
        assert proc.returncode == 0, proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr

    def test_worker_killed_mid_prefill_closes_pool(self, setup, monkeypatch):
        """A worker process that dies mid-chunk surfaces as an
        ExperimentError naming the lost chunk's cells, and leaves a closed
        pool with no live worker and no segment behind."""
        cells = cells_for_figure(setup, 8)
        doomed = cells[2]
        real_get = DeploymentCache.get

        def get(cache, *cell):
            if tuple(cell) == doomed:
                os._exit(3)
            return real_get(cache, *cell)

        # patched before the workers fork, so they inherit it
        monkeypatch.setattr(DeploymentCache, "get", get)
        cache = DeploymentCache(setup)
        pool = WorkerPool.for_cache(cache, workers=2)
        pool.prefill(cache, cells[:2])  # publishes every seed, forks the workers
        names = pool.store.segment_names
        pids = pool.worker_pids()
        assert names and pids
        with pytest.raises(ExperimentError, match=re.escape(repr(doomed))):
            pool.prefill(cache, cells[2:])
        assert pool.closed
        assert not any(_alive(pid) for pid in pids)
        assert _shm_residue(names) == []
        with pytest.raises(ConfigurationError, match="worker pool is closed"):
            pool.prefill(cache, cells[2:])

    def test_worker_killed_between_prefills_closes_pool(self, setup):
        """A worker that dies while idle breaks the executor; the next
        prefill closes the pool and names the cells it could not compute
        instead of leaking a raw BrokenProcessPool."""
        cells = cells_for_figure(setup, 8)
        cache = DeploymentCache(setup)
        pool = WorkerPool.for_cache(cache, workers=2)
        pool.prefill(cache, cells[:2])
        names = pool.store.segment_names
        pids = pool.worker_pids()
        assert names and pids
        os.kill(pids[0], signal.SIGKILL)
        # the executor marks itself broken before it reaps its workers
        deadline = time.monotonic() + 30.0
        while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        with pytest.raises(ExperimentError, match=re.escape(repr(cells[2]))):
            pool.prefill(cache, cells[2:])
        assert pool.closed
        assert not any(_alive(pid) for pid in pids)
        assert _shm_residue(names) == []
        with pytest.raises(ConfigurationError, match="worker pool is closed"):
            pool.prefill(cache, cells[2:])

    def test_closed_pool_refuses_work(self, setup):
        cache = DeploymentCache(setup)
        pool = WorkerPool.for_cache(cache, workers=2)
        pool.close()
        with pytest.raises(ConfigurationError):
            pool.prefill(cache, [("random", 1, 0)])

    def test_negative_workers_rejected(self, setup):
        with pytest.raises(ConfigurationError):
            WorkerPool(setup, -1)


# ----------------------------------------------------------------------
# pool reuse and cache binding
# ----------------------------------------------------------------------
class TestPoolReuse:
    def test_workers_and_segments_persist_across_batches(self, setup):
        cache = DeploymentCache(setup)
        serial = DeploymentCache(setup)
        with WorkerPool.for_cache(cache, workers=2) as pool:
            first = cells_for_figure(setup, 8)[:6]
            second = cells_for_figure(setup, 8)[6:]
            assert pool.prefill(cache, first) == len(first)
            pids = pool.worker_pids()
            segments = pool.store.segment_names
            assert pool.prefill(cache, second) == len(second)
            # same processes, and no re-publication for already-posted seeds
            assert pool.worker_pids() == pids
            assert pool.store.segment_names == segments
        for cell in cells_for_figure(setup, 8):
            a, b = cache.get(*cell), serial.get(*cell)
            assert a.summary() == b.summary()

    def test_prefill_cache_routes_through_pool(self, setup):
        cache = DeploymentCache(setup)
        with WorkerPool.for_cache(cache, workers=2) as pool:
            n = prefill_cache(cache, cells_for_figure(setup, 8), pool=pool)
            assert n == len(cells_for_figure(setup, 8))
            assert pool.worker_pids()  # the pool, not a transient executor

    def test_mismatched_cache_rejected(self, setup):
        other = ExperimentSetup(
            field_side=30.0, n_points=100, n_initial=0, n_seeds=1,
            k_values=(1,),
        )
        with WorkerPool(setup, 2) as pool:
            with pytest.raises(ConfigurationError):
                pool.prefill(DeploymentCache(other), [("random", 1, 0)])

    def test_serial_fallback_uses_no_executor(self, setup):
        cache = DeploymentCache(setup)
        with WorkerPool.for_cache(cache, workers=1) as pool:
            pool.prefill(cache, cells_for_figure(setup, 8))
            assert pool.worker_pids() == []
            assert pool.store.segment_names == []


# ----------------------------------------------------------------------
# chunk planning
# ----------------------------------------------------------------------
class TestPlanChunks:
    def test_contiguous_partition_of_submission_order(self):
        cells = [("s", 1 + i % 5, i) for i in range(37)]
        chunks = plan_chunks(cells, 4)
        assert [c for chunk in chunks for c in chunk] == cells
        assert all(chunks)

    def test_chunk_count_bounds(self):
        cells = [("s", 1, i) for i in range(100)]
        assert len(plan_chunks(cells, 4, oversubscribe=4)) == 16
        assert len(plan_chunks(cells[:3], 8)) == 3
        assert len(plan_chunks(cells, 1)) == 1
        assert plan_chunks([], 4) == [[]]

    def test_weight_aware_boundaries(self):
        # one heavy k=5 cell followed by ten k=1 cells: the heavy cell
        # must not drag half the light ones into its chunk
        cells = [("s", 5, 0)] + [("s", 1, i + 1) for i in range(10)]
        chunks = plan_chunks(cells, 2)
        assert chunks[0] == [("s", 5, 0)]

    def test_deterministic(self):
        cells = [("s", 1 + (i * 7) % 5, i) for i in range(50)]
        assert plan_chunks(cells, 3) == plan_chunks(cells, 3)


# ----------------------------------------------------------------------
# in-order drain (the head-of-line fix)
# ----------------------------------------------------------------------
class TestInOrderDrain:
    def test_out_of_order_completions_release_in_order(self):
        drain = _InOrderDrain()
        assert drain.push(3, "d") == []
        assert drain.push(1, "b") == []
        assert drain.pending == 2
        assert drain.push(0, "a") == ["a", "b"]
        assert drain.push(2, "c") == ["c", "d"]
        assert drain.pending == 0

    def test_duplicate_index_rejected(self):
        drain = _InOrderDrain()
        drain.push(0, "a")
        with pytest.raises(ConfigurationError):
            drain.push(0, "again")
        drain.push(2, "c")
        with pytest.raises(ConfigurationError):
            drain.push(2, "again")

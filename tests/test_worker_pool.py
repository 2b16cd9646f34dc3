"""Lifecycle and scheduling tests for the one-batch worker pool.

Two contracts live here.  **Safety**: whatever happens inside a pool's
one batch — clean use, a worker exception, ``KeyboardInterrupt`` or a
killed worker — no ``/dev/shm`` segment and no worker process survives
it.  **Scheduling**: chunk planning is a deterministic, contiguous
partition of the submission order.
"""

from __future__ import annotations

import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro.parallel.pool as pool_module
from repro.errors import ExperimentError, ReproError
from repro.experiments.figures import cells_for_figure
from repro.experiments.runner import DeploymentCache
from repro.experiments.setup import ExperimentSetup
from repro.obs import OBS
from repro.parallel import plan_chunks, prefill_cache
from repro.parallel.pool import WorkerPool


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


def _own_segments() -> list[str]:
    """This process's pool segments present in ``/dev/shm``."""
    return sorted(
        p.name for p in Path("/dev/shm").glob(f"decor-{os.getpid()}-*")
    )


# ----------------------------------------------------------------------
# lifecycle safety
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_clean_close_releases_everything(self, setup):
        cache = DeploymentCache(setup)
        with WorkerPool(cache, 2) as pool:
            pool.prefill(cells_for_figure(setup, 8))
            names = pool.store.segment_names
            workers = multiprocessing.active_children()
            assert names and workers
            assert _own_segments() == sorted(names)  # live while open
        assert _own_segments() == []
        assert not any(p.is_alive() for p in workers)
        assert multiprocessing.active_children() == []

    def test_close_is_idempotent(self, setup):
        cache = DeploymentCache(setup)
        pool = WorkerPool(cache, 2)
        pool.prefill(cells_for_figure(setup, 8))
        names = pool.store.segment_names
        assert names
        pool.close()
        pool.close()
        assert _own_segments() == []
        assert multiprocessing.active_children() == []

    def test_worker_exception_still_cleans_up(self, setup):
        cache = DeploymentCache(setup)
        cells = cells_for_figure(setup, 8)
        cells.insert(3, ("no-such-series", 1, 0))
        names: list[str] = []
        workers: list[multiprocessing.Process] = []
        with pytest.raises(ReproError):
            with WorkerPool(cache, 2) as pool:
                try:
                    pool.prefill(cells)
                finally:
                    names.extend(pool.store.segment_names)
                    workers.extend(multiprocessing.active_children())
        assert names and workers
        assert _own_segments() == []
        assert not any(p.is_alive() for p in workers)
        assert multiprocessing.active_children() == []

    def test_keyboard_interrupt_still_cleans_up(self, setup):
        cache = DeploymentCache(setup)
        names: list[str] = []
        workers: list[multiprocessing.Process] = []
        with pytest.raises(KeyboardInterrupt):
            with WorkerPool(cache, 2) as pool:
                pool.prefill(cells_for_figure(setup, 8))
                names.extend(pool.store.segment_names)
                workers.extend(multiprocessing.active_children())
                raise KeyboardInterrupt()
        assert names and workers
        assert _own_segments() == []
        assert not any(p.is_alive() for p in workers)
        assert multiprocessing.active_children() == []

    def test_no_stray_worker_trackers_across_pool_generations(self, tmp_path):
        """Workers must share the parent's resource tracker — a private
        worker tracker "cleans up" attached segments at worker exit,
        racing the parent's unlinks and the next pool's segments and
        spamming unlink warnings."""
        script = tmp_path / "pool_rounds.py"
        script.write_text(
            "from repro.experiments.figures import cells_for_figure\n"
            "from repro.experiments.runner import DeploymentCache\n"
            "from repro.experiments.setup import ExperimentSetup\n"
            "from repro.parallel import prefill_cache\n"
            "setup = ExperimentSetup(field_side=20.0, n_points=60,\n"
            "                        n_initial=0, n_seeds=1, k_values=(1,))\n"
            "for _ in range(2):\n"
            "    prefill_cache(DeploymentCache(setup),\n"
            "                  cells_for_figure(setup, 8), workers=2)\n",
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
        # the first chunk is the first one lost, whatever the schedule
        doomed = cells[0]
        assert doomed in plan_chunks(cells, 2)[0]
        real_get = DeploymentCache.get

        def get(cache, *cell):
            if tuple(cell) == doomed:
                os._exit(3)
            return real_get(cache, *cell)

        closed: list[str] = []
        real_close = WorkerPool.close

        def close(pool):
            closed.extend(pool.store.segment_names)
            real_close(pool)

        # patched before the workers fork, so they inherit it
        monkeypatch.setattr(DeploymentCache, "get", get)
        monkeypatch.setattr(WorkerPool, "close", close)
        cache = DeploymentCache(setup)
        with pytest.raises(ExperimentError, match=re.escape(repr(doomed))):
            prefill_cache(cache, cells, workers=2)
        assert closed  # closed while its segments were live
        assert _own_segments() == []
        assert multiprocessing.active_children() == []
        assert doomed not in cache

    def test_serial_fallback_uses_no_executor(self, setup, monkeypatch):
        def no_executor(*args, **kwargs):
            raise AssertionError("a serial prefill started an executor")

        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", no_executor)
        cache = DeploymentCache(setup)
        cells = cells_for_figure(setup, 8)
        assert prefill_cache(cache, cells, workers=1) == len(cells)
        assert all(cell in cache for cell in cells)
        assert _own_segments() == []


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

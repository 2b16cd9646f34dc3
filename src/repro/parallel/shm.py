"""Shared-memory posting of FieldModel array payloads.

The old fan-out shipped nothing to workers — and therefore shipped
*everything*: each worker rebuilt its own per-seed
:class:`~repro.field.FieldModel` (KD-tree, ``rs`` adjacency, grid
decomposition) from scratch, and the alternative — pickling the parent's
model into every task — moves megabytes per cell through the executor's
pipes.  This module is the third option: the parent posts each field's
arrays (points, adjacency ``indices``/``indptr``, cell assignments)
into :mod:`multiprocessing.shared_memory` segments **once per (field,
seed)**, and workers map read-only views over the same physical pages.
What crosses the pipe per task is a :class:`Manifest` of segment names
and dtypes — a few hundred bytes.

Ownership discipline (the part the lifecycle tests pin down):

* The **parent** :class:`SharedFieldStore` creates every segment and is
  the only place that ever calls ``unlink`` — at :meth:`~
  SharedFieldStore.close`, from the pool's context-manager exit.
* **Workers** only attach and ``close`` their maps.  Under the fork
  start method they share the parent's resource tracker, so the
  attach-side registrations and the parent-side unlink balance out and
  nothing is left in ``/dev/shm`` (asserted by
  ``tests/test_worker_pool.py``).

Segment names are derived from the parent pid plus a sequence counter —
no entropy source (DET002) — with a ``FileExistsError`` retry for the
pid-reuse corner.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import count
from multiprocessing import shared_memory
from typing import Any

import numpy as np

from repro.field import Adjacency, FieldModel
from repro.field.model import _partition_key
from repro.geometry.region import Rect

__all__ = [
    "ArraySpec",
    "Manifest",
    "SharedFieldStore",
    "attach_array",
    "build_field_model",
]

#: A per-seed payload description: picklable, a few hundred bytes.
Manifest = dict[str, Any]

#: Monotonic store generation within this process.  Successive stores
#: must never reuse segment names: a straggling worker-side resource
#: tracker from a closed pool would otherwise race a fresh same-named
#: segment of the next one.
_GENERATION = count()


@dataclass(frozen=True)
class ArraySpec:
    """Where one array lives: segment name, shape and dtype.

    An empty ``segment`` means a zero-byte array (no segment is created
    for it — ``SharedMemory`` refuses size 0).
    """

    segment: str
    shape: tuple[int, ...]
    dtype: str


class SharedFieldStore:
    """Parent-side registry of shared segments, one batch of per-seed fields.

    ``publish_field`` is idempotent per seed: the first call copies the
    arrays into fresh segments and returns the manifest, later calls
    return the same manifest.  ``close`` releases and unlinks everything;
    it is safe to call twice.
    """

    def __init__(self) -> None:
        self._prefix = f"decor-{os.getpid()}-{next(_GENERATION)}-"
        self._seq = 0
        self._segments: list[shared_memory.SharedMemory] = []
        self._manifests: dict[int, Manifest] = {}
        #: Total bytes posted into shared memory (for telemetry/benchmarks).
        self.shared_bytes = 0

    def __len__(self) -> int:
        return len(self._segments)

    @property
    def segment_names(self) -> list[str]:
        return [seg.name for seg in self._segments]

    def _share(self, array: np.ndarray) -> ArraySpec:
        """Copy one array into a fresh segment; returns its spec."""
        arr = np.ascontiguousarray(array)
        if arr.nbytes == 0:
            return ArraySpec("", arr.shape, arr.dtype.str)
        while True:
            name = f"{self._prefix}{self._seq}"
            self._seq += 1
            try:
                seg = shared_memory.SharedMemory(
                    name=name, create=True, size=arr.nbytes
                )
                break
            except FileExistsError:
                # pid reuse against a leaked segment from a dead process;
                # keep bumping the sequence number until a name is free
                continue
        dst: np.ndarray = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
        dst[...] = arr
        self._segments.append(seg)
        self.shared_bytes += arr.nbytes
        return ArraySpec(seg.name, arr.shape, arr.dtype.str)

    def publish_field(
        self,
        seed: int,
        field: FieldModel,
        *,
        radii: tuple[float, ...] = (),
        partitions: tuple[tuple[Rect, float], ...] = (),
    ) -> Manifest:
        """Post one seed's field arrays; returns the picklable manifest.

        ``radii`` name the ``rs`` adjacencies to include and
        ``partitions`` the ``(region, cell_size)`` grid assignments —
        both built on (or already cached by) the parent's model, so the
        parent pays each build exactly once for the whole pool instead
        of every worker paying it per process.
        """
        key = int(seed)
        cached = self._manifests.get(key)
        if cached is not None:
            return cached
        adjacency: dict[float, dict[str, Any]] = {}
        for radius in radii:
            adj = field.adjacency(radius)
            adjacency[float(radius)] = {
                "n": adj.shape[0],
                "indices": self._share(adj.indices),
                "indptr": self._share(adj.indptr),
            }
        cells: dict[tuple, ArraySpec] = {}
        for region, cell_size in partitions:
            cells[_partition_key(region, cell_size, cell_size)] = self._share(
                field.cell_of(region, cell_size)
            )
        manifest: Manifest = {
            "seed": key,
            "points": self._share(field.points),
            "adjacency": adjacency,
            "cells": cells,
        }
        self._manifests[key] = manifest
        return manifest

    def close(self) -> None:
        """Release and unlink every segment (idempotent)."""
        segments, self._segments = self._segments, []
        self._manifests.clear()
        for seg in segments:
            seg.close()
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


# ---------------------------------------------------------------------------
# worker side: attach views, never unlink
# ---------------------------------------------------------------------------

#: Worker-local attached segments, keyed by name.  The ``SharedMemory``
#: handles must stay referenced for as long as views over them live.
_ATTACHED: dict[str, shared_memory.SharedMemory] = {}


def attach_array(spec: ArraySpec) -> np.ndarray:
    """A read-only ndarray view over a published segment."""
    if not spec.segment:
        out: np.ndarray = np.empty(spec.shape, dtype=np.dtype(spec.dtype))
        out.flags.writeable = False
        return out
    seg = _ATTACHED.get(spec.segment)
    if seg is None:
        seg = shared_memory.SharedMemory(name=spec.segment)
        _ATTACHED[spec.segment] = seg
    view: np.ndarray = np.ndarray(
        spec.shape, dtype=np.dtype(spec.dtype), buffer=seg.buf
    )
    view.flags.writeable = False
    return view


def build_field_model(manifest: Manifest) -> FieldModel:
    """Reconstruct a zero-copy :class:`~repro.field.FieldModel` view.

    The adjacencies wrap the attached ``indptr``/``indices`` views as-is.
    """
    adjacency = {
        float(radius): Adjacency(
            attach_array(arrays["indptr"]), attach_array(arrays["indices"]), arrays["n"]
        )
        for radius, arrays in manifest["adjacency"].items()
    }
    cells = {
        key: attach_array(spec) for key, spec in manifest["cells"].items()
    }
    return FieldModel.from_arrays(
        attach_array(manifest["points"]),
        adjacency=adjacency,
        cells=cells,
    )

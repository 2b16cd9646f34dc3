"""Per-layer timing of one ``decor`` invocation, traced from outside.

The program is left untouched: :class:`Tracer` replaces each layer's
public functions (:data:`TARGETS`) with timing wrappers on their module or
class, rebinds every ``from ... import`` alias of them found by identity in
``repro.*`` module globals, and puts every binding back on
:meth:`Tracer.uninstall`.

Wrappers keep a call stack, so each target records its call count,
inclusive time and self time (inclusive minus traced children), and each
parent -> child edge its inclusive time.  Coarse targets also record spans
(name, label, start, end, parent span) in memory; hot leaves such as
``as_point`` are only aggregated.  Pool workers forked while tracing
inherit the wrappers; each dumps its own numbers when it exits and the
parent folds them in, so pool-side layer times are visible too.

Run as a script it traces one CLI invocation in-process::

    PYTHONPATH=src python benchmarks/e2e/e2e_trace.py OUT_DIR -- figure 8

and writes ``OUT_DIR/trace.json`` (exit code, wall, stats, edges),
``OUT_DIR/spans.jsonl`` and ``OUT_DIR/stdout.txt``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import itertools
import json
import os
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Any

METHODS = ("centralized", "grid", "voronoi", "random")


@dataclass(frozen=True)
class Target:
    """One function to time: ``qualname`` is ``func`` or ``Class.method``."""

    key: str
    module: str
    qualname: str
    span: bool = False
    #: per-call key suffix from ``(args, kwargs)``, e.g. the method name
    label: Callable[[tuple, dict], str] | None = None
    #: per-call work count from ``(args, result)``, summed into ``items``
    items: Callable[[tuple, Any], int] | None = None


def _method_name(args: tuple, kwargs: dict) -> str:
    return str(args[0] if args else kwargs["name"])


TARGETS: tuple[Target, ...] = (
    Target("field.index_build", "repro.field.backends", "make_backend"),
    Target("field.adjacency_build", "repro.field.backends", "KDTreeBackend.adjacency"),
    Target("field.adjacency_build", "repro.field.backends", "GridHashBackend.adjacency"),
    Target("field.query_ball", "repro.field.model", "FieldModel.query_ball"),
    Target("field.adjacency", "repro.field.model", "FieldModel.adjacency"),
    Target("geometry.as_point", "repro.geometry.points", "as_point"),
    Target("geometry.voronoi", "repro.geometry.voronoi", "VoronoiOwnership.__init__"),
    Target("geometry.voronoi", "repro.geometry.voronoi", "VoronoiOwnership.add_site"),
    Target("geometry.voronoi", "repro.geometry.voronoi", "VoronoiOwnership.remove_site"),
    Target("benefit.init", "repro.core.benefit", "BenefitEngine.__init__"),
    Target("benefit.argmax", "repro.core.benefit", "BenefitEngine.argmax"),
    Target("benefit.place", "repro.core.benefit", "BenefitEngine.place_at"),
    Target("benefit.place", "repro.core.benefit", "BenefitEngine.add_sensor_at_position"),
    Target("benefit.remove", "repro.core.benefit", "BenefitEngine.remove_rows"),
    Target(
        "core.run_method", "repro.core.planner", "run_method", span=True,
        label=_method_name, items=lambda args, result: result.added_count,
    ),
    Target("core.finalize", "repro.core._common", "finalize"),
    Target("network.recount", "repro.network.coverage", "CoverageState.from_deployment"),
    Target(
        "restoration.session", "repro.core.restoration", "RestorationSession.restore",
        span=True,
    ),
    Target("restoration.restore", "repro.core.restoration", "restore"),
    Target("experiments.cell", "repro.experiments.runner", "run_series"),
    Target("experiments.render", "repro.experiments.tables", "format_figure_table"),
    Target("experiments.render", "repro.experiments.recording", "figure_to_json"),
    Target("parallel.prefill", "repro.parallel.pool", "WorkerPool.prefill", span=True),
    Target("parallel.publish", "repro.parallel.shm", "SharedFieldStore.publish_field"),
    Target("parallel.absorb", "repro.experiments.runner", "DeploymentCache.absorb"),
    Target(
        "parallel.close", "repro.parallel.pool", "WorkerPool.close",
        items=lambda args, result: args[0].store.shared_bytes,
    ),
)


def _repro_namespaces() -> list[dict[str, Any]]:
    return [
        vars(module)
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class Tracer:
    """Timing wrappers over :data:`TARGETS`, installed and removed as a unit."""

    def __init__(self, worker_dir: Path | None = None) -> None:
        self.worker_dir = worker_dir
        self._bindings: list[tuple[Any, str, Any]] = []
        #: id(wrapper) -> the function it wraps
        self._originals: dict[int, Any] = {}
        # the containers below are captured by the wrappers: clear, never rebind
        self.t0 = time.perf_counter()
        #: key -> [calls, inclusive_s, self_s, items]
        self.stats: dict[str, list[float]] = {}
        #: "parent>child" -> inclusive seconds of child calls under parent
        self.edges: dict[str, float] = {}
        self.spans: list[dict[str, Any]] = []
        #: frames: [key, start, traced_child_s, span_id]
        self._stack: list[list[Any]] = []
        self._span_ids = itertools.count()
        #: in a forked worker, the parent span that was open at the fork
        self._fork_parent: str | None = None

    # -- wrapping -------------------------------------------------------
    def _wrap(self, fn: Callable[..., Any], target: Target) -> Callable[..., Any]:
        stack, stats, edges = self._stack, self.stats, self.edges
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            key = target.key
            if target.label is not None:
                key = f"{key}[{target.label(args, kwargs)}]"
            span_id = f"{os.getpid()}.{next(self._span_ids)}" if target.span else None
            frame = [key, clock(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - frame[1]
                row = stats.get(key)
                if row is None:
                    row = stats[key] = [0, 0.0, 0.0, 0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - frame[2]
                if stack:
                    parent = stack[-1]
                    parent[2] += elapsed
                    edge = f"{parent[0]}>{key}"
                    edges[edge] = edges.get(edge, 0.0) + elapsed
                if span_id is not None:
                    self._close_span(span_id, key, frame[1], end)
            if target.items is not None:
                row[3] += target.items(args, result)
            return result

        return wrapper

    def _open_span_id(self) -> str | None:
        """The innermost open span, or the fork-time parent in a worker."""
        return next((f[3] for f in reversed(self._stack) if f[3] is not None), self._fork_parent)

    def _close_span(self, span_id: str, key: str, start: float, end: float) -> None:
        parent = self._open_span_id()
        self.spans.append({
            "id": span_id, "parent": parent, "name": key, "pid": os.getpid(),
            "start": start - self.t0, "end": end - self.t0,
        })

    def _bind(self, owner: Any, name: str, value: Any) -> None:
        if isinstance(owner, dict):
            self._bindings.append((owner, name, owner[name]))
            owner[name] = value
        else:
            self._bindings.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, value)

    def install(self, targets: tuple[Target, ...] = TARGETS) -> None:
        """Wrap every target and rebind its ``repro.*`` aliases."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        functions: dict[int, Any] = {}  # id(module-level function) -> wrapper
        wrapped: set[int] = set()
        for target in targets:
            owner: Any = importlib.import_module(target.module)
            *path, name = target.qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[name] if path else getattr(owner, name)
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            if not callable(fn) or id(fn) in wrapped:
                raise ValueError(f"cannot trace {target.module}.{target.qualname}")
            wrapped.add(id(fn))
            wrapper = self._wrap(fn, target)
            self._originals[id(wrapper)] = fn
            if path:
                self._bind(owner, name, type(raw)(wrapper) if raw is not fn else wrapper)
            else:
                functions[id(fn)] = wrapper
        # the defining module and every `from ... import` copy, by identity
        for namespace in _repro_namespaces():
            for name, value in list(namespace.items()):
                wrapper = functions.get(id(value))
                if wrapper is not None:
                    self._bind(namespace, name, wrapper)
        mp_util.register_after_fork(self, Tracer._after_fork)

    def uninstall(self) -> None:
        """Put every original binding back, including aliases made later."""
        for owner, name, original in reversed(self._bindings):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._bindings.clear()
        # modules imported while tracing copied wrappers into their globals
        for namespace in _repro_namespaces():
            for name, value in list(namespace.items()):
                original = self._originals.get(id(value))
                if original is not None:
                    namespace[name] = original
        self._originals.clear()

    # -- forked workers ---------------------------------------------------
    def _after_fork(self) -> None:
        """In a forked pool worker: start empty, dump numbers at exit."""
        self._fork_parent = self._open_span_id()
        self._stack.clear()
        self.stats.clear()
        self.edges.clear()
        self.spans.clear()
        if self.worker_dir is not None:
            # multiprocessing runs exit-priority finalizers as the worker exits
            mp_util.Finalize(self, self._dump_worker, args=(self.worker_dir,), exitpriority=10)

    def _dump_worker(self, worker_dir: Path) -> None:
        doc = {"stats": self.stats, "edges": self.edges, "spans": self.spans}
        path = worker_dir / f"worker-{os.getpid()}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")

    def absorb_workers(self) -> int:
        """Fold in the numbers each exited worker dumped; returns how many."""
        if self.worker_dir is None:
            return 0
        paths = sorted(self.worker_dir.glob("worker-*.json"))
        for path in paths:
            doc = json.loads(path.read_text(encoding="utf-8"))
            for key, row in doc["stats"].items():
                mine = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
                for i, value in enumerate(row):
                    mine[i] += value
            for edge, value in doc["edges"].items():
                self.edges[edge] = self.edges.get(edge, 0.0) + value
            self.spans.extend(doc["spans"])
        return len(paths)


def layer_metrics(stats: dict[str, list[float]], edges: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics of one traced invocation, by metric name."""

    def col(key: str, i: int) -> float:
        return stats.get(key, (0, 0.0, 0.0, 0))[i]

    calls = functools.partial(col, i=0)
    incl = functools.partial(col, i=1)
    own = functools.partial(col, i=2)
    out = {
        "field.query_ball_calls": calls("field.query_ball"),
        "field.query_ball_s": incl("field.query_ball"),
        "field.adjacency_s": incl("field.adjacency"),
        "field.index_builds": calls("field.index_build"),
        "field.adjacency_builds": calls("field.adjacency_build"),
        "geometry.as_point_calls": calls("geometry.as_point"),
        "geometry.as_point_s": incl("geometry.as_point"),
        "geometry.voronoi_s": incl("geometry.voronoi"),
        "benefit.init_calls": calls("benefit.init"),
        "benefit.init_s": incl("benefit.init"),
        "benefit.argmax_calls": calls("benefit.argmax"),
        "benefit.argmax_s": incl("benefit.argmax"),
        "benefit.place_calls": calls("benefit.place"),
        "benefit.place_s": incl("benefit.place"),
        "benefit.remove_s": incl("benefit.remove"),
        "core.finalize_s": incl("core.finalize"),
        "network.recount_calls": calls("network.recount"),
        "network.recount_s": incl("network.recount"),
        "restoration.restore_calls": calls("restoration.session"),
        "restoration.restore_s": incl("restoration.session"),
        "restoration.after_failure_s": edges.get("restoration.restore>network.recount", 0.0),
        "experiments.cells": calls("experiments.cell"),
        "experiments.render_s": incl("experiments.render"),
        "parallel.prefill_s": incl("parallel.prefill"),
        "parallel.publish_s": incl("parallel.publish"),
        "parallel.publish_bytes": col("parallel.close", 3),
        "parallel.absorb_s": incl("parallel.absorb"),
        "parallel.wait_s": own("parallel.prefill"),
        "parallel.close_s": incl("parallel.close"),
    }
    keys = {f".{m}": f"core.run_method[{m}]" for m in METHODS}
    rows = {suffix: (incl(key), own(key), col(key, 3)) for suffix, key in keys.items()}
    rows[""] = tuple(sum(column) for column in zip(*rows.values()))  # all methods
    for suffix, (run_s, self_s, placements) in rows.items():
        out[f"core.run_method_s{suffix}"] = run_s
        out[f"core.loop_self_s{suffix}"] = self_s
        out[f"core.placements{suffix}"] = placements
        out[f"core.ns_per_placement{suffix}"] = 1e9 * run_s / placements if placements else 0.0
    return out


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) < 2 or args[1] != "--":
        print("usage: e2e_trace.py OUT_DIR -- DECOR_ARGS...", file=sys.stderr)
        return 2
    out_dir, cli_argv = Path(args[0]), args[2:]
    worker_dir = out_dir / "workers"
    worker_dir.mkdir(parents=True, exist_ok=True)
    for stale in worker_dir.glob("worker-*.json"):
        stale.unlink()

    import repro.cli

    tracer = Tracer(worker_dir)
    tracer.install()
    captured = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            code = repro.cli.main(cli_argv)
    finally:
        wall = time.perf_counter() - start
        tracer.uninstall()
    workers = tracer.absorb_workers()
    (out_dir / "stdout.txt").write_text(captured.getvalue(), encoding="utf-8")
    with open(out_dir / "spans.jsonl", "w", encoding="utf-8") as fh:
        for span in sorted(tracer.spans, key=lambda s: s["start"]):
            fh.write(json.dumps(span) + "\n")
    doc = {
        "code": code, "wall_s": wall, "workers": workers,
        "stats": tracer.stats, "edges": tracer.edges,
    }
    (out_dir / "trace.json").write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

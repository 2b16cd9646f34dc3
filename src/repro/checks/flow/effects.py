"""Effect lattice, base-effect extraction, and fixpoint propagation.

Every function gets a *base* effect set — what its own body observably
does — classified straight off the call/mutation sites the
:mod:`~repro.checks.flow.callgraph` walker collected:

* ``WALL_CLOCK`` — calls into :data:`~repro.checks.lint.rules_det.
  _WALL_CLOCK_OR_ENTROPY` (``time.time``, ``uuid.uuid4``, ``os.urandom``
  ...) or anything in ``secrets``;
* ``UNSEEDED_RNG`` / ``SEEDED_RNG`` — RNG construction, split on whether
  the constructor received arguments (``default_rng()`` draws OS entropy,
  ``default_rng(seed)`` does not); legacy global-RNG calls are always
  ``UNSEEDED_RNG``;
* ``ENV_READ`` — ``os.environ`` / ``os.getenv`` reads;
* ``IO`` — bare ``open``/``print``/``input``, ``sys.std*`` writes,
  ``subprocess``/``shutil``/``tempfile`` calls, and unresolved
  ``Path``-style read/write method calls.  Receiver-typed file handles
  (``f.write``) are invisible to the walker and land on the ``open``
  that produced them instead;
* ``GLOBAL_MUTATION`` — stores to module globals or imported-singleton
  attributes, plus ``enable``/``disable``/``reset`` calls on the OBS,
  FREC and CHECKS runtime singletons;
* ``OBS_WRITE`` — *unguarded* OBS/FREC telemetry touchpoints
  (``OBS.event`` ... ``FREC.emit`` ..., ``record_*_health``) outside
  ``repro.obs`` itself.

Summaries are then propagated bottom-up over the SCC condensation of the
call graph.  Tarjan emits components in reverse topological order, so a
single pass is an exact fixpoint; members of one SCC (a recursion cycle)
share one summary.  Two seams mask propagation:

* call edges into ``repro.obs``-defined functions contribute **nothing**
  — instrumentation is results-invariant by contract, and the obs
  package owns its own clock reads and singleton state;
* edges sitting under an ``if OBS.enabled:`` / ``if FREC.enabled:``
  guard contribute the callee's summary *minus* ``OBS_WRITE`` — a
  guarded telemetry write is exactly the sanctioned shape.

>>> render_effects(frozenset())
'PURE'
>>> render_effects(frozenset({"IO", "WALL_CLOCK"}))
'WALL_CLOCK+IO'
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from repro.checks.flow.callgraph import (
    CallGraph,
    CallSite,
    FunctionNode,
    build_call_graph,
    strongly_connected_components,
)
from repro.checks.lint.rules_det import (
    _NUMPY_RANDOM_ALLOWED,
    _WALL_CLOCK_OR_ENTROPY,
)

__all__ = [
    "PURE",
    "SEEDED_RNG",
    "UNSEEDED_RNG",
    "WALL_CLOCK",
    "ENV_READ",
    "IO",
    "GLOBAL_MUTATION",
    "OBS_WRITE",
    "EFFECT_ORDER",
    "OBS_SINGLETON_QUALS",
    "CHECKS_SINGLETON_QUALS",
    "SINGLETON_MUTATORS",
    "EffectSite",
    "FlowAnalysis",
    "analyze_graph",
    "analyze_paths",
    "render_effects",
]

SEEDED_RNG = "SEEDED_RNG"
UNSEEDED_RNG = "UNSEEDED_RNG"
WALL_CLOCK = "WALL_CLOCK"
ENV_READ = "ENV_READ"
IO = "IO"
GLOBAL_MUTATION = "GLOBAL_MUTATION"
OBS_WRITE = "OBS_WRITE"

#: The bottom of the lattice: no observable effect.
PURE: frozenset[str] = frozenset()

#: Display/reporting order for effect names.
EFFECT_ORDER: tuple[str, ...] = (
    SEEDED_RNG,
    UNSEEDED_RNG,
    WALL_CLOCK,
    ENV_READ,
    IO,
    GLOBAL_MUTATION,
    OBS_WRITE,
)

#: Explicit-RNG constructors whose seededness depends on their arguments.
_SEEDED_CONSTRUCTORS = frozenset({"numpy.random.default_rng", "random.Random"})

#: Import-map quals of the observability singletons (re-export + home).
OBS_SINGLETON_QUALS = frozenset(
    {
        "repro.obs.OBS",
        "repro.obs.runtime.OBS",
        "repro.obs.FREC",
        "repro.obs.flightrec.FREC",
    }
)

#: Import-map quals of the invariant-checks runtime singleton.
CHECKS_SINGLETON_QUALS = frozenset(
    {"repro.checks.CHECKS", "repro.checks.runtime.CHECKS"}
)

#: Singleton methods that swap global runtime state.
SINGLETON_MUTATORS = frozenset({"enable", "disable", "reset"})

_OBS_RUNTIME_QUALS = frozenset({"repro.obs.OBS", "repro.obs.runtime.OBS"})
_FREC_QUALS = frozenset({"repro.obs.FREC", "repro.obs.flightrec.FREC"})
_OBS_TOUCH_METHODS = frozenset(
    {"event", "counter", "gauge", "histogram", "sample"}
)
_FREC_TOUCH_METHODS = frozenset(
    {
        "emit",
        "emit_send",
        "emit_deliver",
        "set_cause",
        "clear_cause",
        "begin_run",
        "end_run",
    }
)
_HEALTH_HELPERS = frozenset(
    {
        "record_coverage_health",
        "record_energy_health",
        "record_protocol_health",
    }
)

_IO_BUILTINS = frozenset({"open", "print", "input"})
_IO_EXTERNAL_PREFIXES = (
    "sys.stdout",
    "sys.stderr",
    "sys.stdin",
    "subprocess.",
    "shutil.",
    "tempfile.",
)
_IO_METHOD_ATTRS = frozenset(
    {
        "read_text",
        "read_bytes",
        "write_text",
        "write_bytes",
        "mkdir",
        "unlink",
        "touch",
        "rename",
        "replace_file",
    }
)


def render_effects(effects: frozenset[str]) -> str:
    """``'PURE'`` or ``'+'``-joined effect names in :data:`EFFECT_ORDER`."""
    if not effects:
        return "PURE"
    return "+".join(e for e in EFFECT_ORDER if e in effects)


def _in_package(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")


@dataclass(frozen=True)
class EffectSite:
    """Where a base effect originates inside one function body."""

    effect: str
    qualname: str
    path: str
    lineno: int
    col: int
    #: Qualified callable / mutation target the classification matched
    #: (``time.time``, ``repro.obs.runtime.OBS``), when known.
    target: str | None
    #: Human-readable classification (``"calls `time.time`"``).
    detail: str


def _base_effects(
    fn: FunctionNode,
) -> tuple[frozenset[str], tuple[EffectSite, ...]]:
    """Classify one function's own sites into (effects, witness sites)."""
    effects: set[str] = set()
    sites: list[EffectSite] = []

    def emit(
        effect: str, lineno: int, col: int, target: str | None, detail: str
    ) -> None:
        effects.add(effect)
        sites.append(
            EffectSite(
                effect=effect,
                qualname=fn.qualname,
                path=fn.path,
                lineno=lineno,
                col=col,
                target=target,
                detail=detail,
            )
        )

    in_obs = _in_package(fn.module, "repro.obs")
    for site in fn.calls:
        if site.kind != "call":
            continue
        ext = site.external
        if ext is not None:
            if ext in _WALL_CLOCK_OR_ENTROPY or ext.startswith("secrets."):
                emit(
                    WALL_CLOCK, site.lineno, site.col, ext, f"calls `{ext}`"
                )
            elif ext in _SEEDED_CONSTRUCTORS:
                if site.has_args:
                    emit(
                        SEEDED_RNG, site.lineno, site.col, ext,
                        f"constructs seeded `{ext}(...)`",
                    )
                else:
                    emit(
                        UNSEEDED_RNG, site.lineno, site.col, ext,
                        f"constructs un-seeded `{ext}()` (draws OS entropy)",
                    )
            elif ext.startswith("numpy.random."):
                tail = ext.split(".")[-1]
                if tail in _NUMPY_RANDOM_ALLOWED:
                    effect = SEEDED_RNG if site.has_args else UNSEEDED_RNG
                    emit(
                        effect, site.lineno, site.col, ext,
                        f"constructs `{ext}`"
                        + ("" if site.has_args else " with no seed"),
                    )
                else:
                    emit(
                        UNSEEDED_RNG, site.lineno, site.col, ext,
                        f"calls legacy global-RNG `{ext}`",
                    )
            elif ext.startswith("random.") and ext != "random.Random":
                emit(
                    UNSEEDED_RNG, site.lineno, site.col, ext,
                    f"calls stdlib global-RNG `{ext}`",
                )
            elif ext.startswith("os.environ") or ext in (
                "os.getenv",
                "os.getenvb",
            ):
                emit(ENV_READ, site.lineno, site.col, ext, f"reads `{ext}`")
            elif ext.startswith(_IO_EXTERNAL_PREFIXES):
                emit(IO, site.lineno, site.col, ext, f"calls `{ext}`")
        if site.name in _IO_BUILTINS and not site.targets:
            emit(
                IO, site.lineno, site.col, site.name,
                f"calls builtin `{site.name}(...)`",
            )
        if (
            site.attr in _IO_METHOD_ATTRS
            and not site.targets
            and site.owner is None
        ):
            emit(
                IO, site.lineno, site.col, site.attr,
                f"filesystem method call `.{site.attr}(...)`",
            )
        # singleton state switches: OBS.enable() / CHECKS.reset() ...
        if site.attr in SINGLETON_MUTATORS and site.owner is not None:
            if (
                site.owner in OBS_SINGLETON_QUALS
                or site.owner in CHECKS_SINGLETON_QUALS
            ):
                emit(
                    GLOBAL_MUTATION, site.lineno, site.col, site.owner,
                    f"calls `{site.owner.rsplit('.', 1)[-1]}."
                    f"{site.attr}()` (global runtime state)",
                )
        # unguarded telemetry touchpoints outside repro.obs
        if not in_obs and not site.guarded:
            touched: str | None = None
            if site.owner in _OBS_RUNTIME_QUALS and (
                site.attr in _OBS_TOUCH_METHODS
            ):
                touched = f"OBS.{site.attr}"
            elif site.owner in _FREC_QUALS and (
                site.attr in _FREC_TOUCH_METHODS
            ):
                touched = f"FREC.{site.attr}"
            elif site.name in _HEALTH_HELPERS:
                touched = site.name
            elif (
                ext is not None
                and ext.startswith("repro.obs")
                and ext.rsplit(".", 1)[-1] in _HEALTH_HELPERS
            ):
                touched = ext.rsplit(".", 1)[-1]
            if touched is not None:
                emit(
                    OBS_WRITE, site.lineno, site.col, site.owner or ext,
                    f"unguarded telemetry touchpoint `{touched}(...)`",
                )
    for mut in fn.mutations:
        emit(
            GLOBAL_MUTATION, mut.lineno, mut.col, mut.target,
            f"mutates global state `{mut.target}`",
        )
    return frozenset(effects), tuple(sites)


def _edge_contribution(
    site: CallSite, callee: FunctionNode, callee_summary: frozenset[str]
) -> frozenset[str]:
    """What one call/ref edge adds to the caller's summary."""
    if _in_package(callee.module, "repro.obs"):
        return PURE
    if site.guarded:
        return callee_summary - {OBS_WRITE}
    return callee_summary


@dataclass
class FlowAnalysis:
    """Computed effect summaries plus the graph they came from."""

    graph: CallGraph
    base: dict[str, frozenset[str]]
    summaries: dict[str, frozenset[str]]
    sites: dict[str, tuple[EffectSite, ...]]
    n_sccs: int

    @property
    def n_functions(self) -> int:
        return len(self.graph.functions)

    @property
    def n_edges(self) -> int:
        return sum(len(ts) for ts in self.graph.edges().values())

    def summary(self, qual: str) -> frozenset[str]:
        """Transitive effect set of one function (PURE if unknown)."""
        return self.summaries.get(qual, PURE)

    def effect_sites(self, qual: str, effect: str) -> tuple[EffectSite, ...]:
        """Base sites of ``effect`` inside ``qual`` itself."""
        return tuple(
            s for s in self.sites.get(qual, ()) if s.effect == effect
        )

    def is_post_fixpoint(self) -> bool:
        """Re-apply the transfer function once; True if nothing grows.

        The acceptance gate for "reaches a fixpoint": every function's
        base effects plus its (masked) callee contributions must already
        be contained in its computed summary.
        """
        for qual in sorted(self.graph.functions):
            effective = set(self.base.get(qual, PURE))
            for site in self.graph.functions[qual].calls:
                for target in site.targets:
                    callee = self.graph.functions.get(target)
                    if callee is None:
                        continue
                    effective |= _edge_contribution(
                        site, callee, self.summaries[target]
                    )
            if not effective <= self.summaries[qual]:
                return False
        return True

    def witness(
        self,
        root: str,
        effect: str,
        accept: "Callable[[EffectSite], bool] | None" = None,
    ) -> tuple[list[str], EffectSite] | None:
        """Shortest call chain from ``root`` to a base site of ``effect``.

        BFS over un-masked propagation edges, deterministic (sorted
        neighbour order).  ``accept`` narrows which base sites terminate
        the search (e.g. only OBS-singleton mutations); intermediate
        functions whose base sites do not match are traversed through.
        Returns ``(chain-of-qualnames, terminal-site)`` or None.
        """
        if root not in self.graph.functions:
            return None
        queue: list[tuple[str, tuple[str, ...]]] = [(root, (root,))]
        visited = {root}
        while queue:
            qual, chain = queue.pop(0)
            for site in self.effect_sites(qual, effect):
                if accept is None or accept(site):
                    return list(chain), site
            neighbours: set[str] = set()
            for site_ in self.graph.functions[qual].calls:
                for target in site_.targets:
                    callee = self.graph.functions.get(target)
                    if callee is None or target in visited:
                        continue
                    if effect not in _edge_contribution(
                        site_, callee, self.summaries[target]
                    ):
                        continue
                    neighbours.add(target)
            for target in sorted(neighbours):
                visited.add(target)
                queue.append((target, chain + (target,)))
        return None


def analyze_graph(graph: CallGraph) -> FlowAnalysis:
    """Propagate base effects to a fixpoint over the SCC condensation."""
    base: dict[str, frozenset[str]] = {}
    sites: dict[str, tuple[EffectSite, ...]] = {}
    for qual in sorted(graph.functions):
        base[qual], sites[qual] = _base_effects(graph.functions[qual])

    components = strongly_connected_components(graph.edges())
    summaries: dict[str, frozenset[str]] = {}
    for component in components:
        members = set(component)
        effects: set[str] = set()
        for qual in sorted(members):
            effects |= base[qual]
            for site in graph.functions[qual].calls:
                for target in site.targets:
                    callee = graph.functions.get(target)
                    if callee is None or target in members:
                        continue
                    effects |= _edge_contribution(
                        site, callee, summaries[target]
                    )
        shared = frozenset(effects)
        for qual in sorted(members):
            summaries[qual] = shared
    return FlowAnalysis(
        graph=graph,
        base=base,
        summaries=summaries,
        sites=sites,
        n_sccs=len(components),
    )


def analyze_paths(paths: Iterable[str | Path]) -> FlowAnalysis:
    """Build the call graph for ``paths`` and run the effect analysis."""
    return analyze_graph(build_call_graph(paths))


"""Observability discipline rules: OBS001/3/4/5 (guards), OBS002, OBS006.

The ``repro.obs`` layer promises that disabled instrumentation costs one
attribute check per touchpoint (the <3% CI gate in
``benchmarks/test_bench_obs_overhead.py`` depends on it).  That only holds
if hot-loop touchpoints — whose *arguments* would otherwise still be
evaluated and formatted — sit inside an enabled guard:

* OBS001 — ``OBS.event``/``OBS.counter``/``OBS.gauge``/``OBS.histogram``
  under ``if OBS.enabled:``.  ``OBS.span`` is exempt: it wraps whole
  phases as a context manager and returns a shared null span when
  disabled.
* OBS003 — the flight recorder's emitting touchpoints
  (``FREC.emit``/``emit_send``/``emit_deliver``/``set_cause``/
  ``clear_cause``/``begin_run``/``end_run``) under ``if FREC.enabled:``,
  so the disabled path never allocates a record dict.  ``FREC.run`` and
  ``FREC.session`` are exempt for the same reason ``OBS.span`` is.
* OBS004 — the telemetry touchpoints (``OBS.sample`` plus the
  ``record_*_health`` helpers from :mod:`repro.obs.health`) under
  ``if OBS.enabled:``.  The health helpers recompute domain gauges
  (holes, energy profiles) — real work, not just argument formatting —
  so an unguarded call would charge disabled runs for it.
* OBS005 — the run ledger's recording touchpoint
  (``LEDGER.record_run``) under ``if LEDGER.enabled:``: it harvests the
  whole metrics registry and digests artifact files — heavyweight work
  no disabled invocation may pay for.  ``LEDGER.stage`` is exempt for
  the same reason ``OBS.span`` is (shared null context when disabled).

A test *guards* only if it is ``X.enabled`` or an ``and`` with a
guarding operand; ``if verbose or OBS.enabled:`` and ``if OBS.enabled is
False:`` do not.  An early exit guards the rest of its block only if its
test is ``not <guard>`` (or an ``or`` with such an operand) and its body
ends in ``return``/``raise``/``continue``/``break``.  Receivers, guards
and the health helpers are matched by spelling *and* by resolved import,
so ``from repro.obs import OBS as TELEMETRY`` cannot slip a touchpoint
past the rule.

``@profiled(site)`` site names feed the ``profile_seconds{site=...}``
histogram; two call sites sharing a name silently merge their timings, so
site names must be unique across the library (OBS002).

OBS006 confines the runtime switches: ``.enable()``/``.disable()``/
``.reset()`` calls on ``OBS``, ``FREC`` or ``LEDGER``, and attribute
stores through them, belong to ``repro.obs`` and the CLI's recording
session (``repro.cli``).  Anywhere else in the library — above all in
code a ``repro.parallel`` worker runs — flipping them would make two
workers (or two runs) record differently; worker state crosses the
process boundary only through the :mod:`repro.obs.bridge`
capture/merge seam.  The invariant-checks switch (``CHECKS.enable()``
in the pool's worker initializer) is not an observability runtime and
stays legal.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.checks.lint.framework import FileContext, Finding, Rule

__all__ = [
    "FlightRecorderGuarded",
    "LedgerTouchpointsGuarded",
    "ObsTouchpointsGuarded",
    "ProfiledSitesUnique",
    "SwitchesConfined",
    "TelemetryTouchpointsGuarded",
]

#: Import paths of each runtime singleton: the ``repro.obs`` re-export and
#: its defining module.
_SINGLETON_QUALS: dict[str, frozenset[str]] = {
    "OBS": frozenset({"repro.obs.OBS", "repro.obs.runtime.OBS"}),
    "FREC": frozenset({"repro.obs.FREC", "repro.obs.flightrec.FREC"}),
    "LEDGER": frozenset({"repro.obs.LEDGER", "repro.obs.ledger.LEDGER"}),
}

#: Every import path of a runtime singleton (OBS006).
_SWITCH_QUALS = frozenset(q for quals in _SINGLETON_QUALS.values() for q in quals)

#: Singleton methods that swap global runtime state (OBS006).
_SWITCH_METHODS = frozenset({"enable", "disable", "reset"})

#: Modules a health helper resolves into: the re-export and its home.
_HEALTH_MODULES = ("repro.obs", "repro.obs.health")


def _terminates(block: list[ast.stmt]) -> bool:
    return bool(block) and isinstance(
        block[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )


class _TouchpointsGuarded(Rule):
    """Shared guard walker: ``<singleton>.<method>`` under an enabled check.

    Subclasses pin ``singleton`` (the runtime's conventional name at call
    sites, also the key of its import paths in ``_SINGLETON_QUALS``),
    ``guarded_methods`` and the finding ``consequence`` text.
    ``guarded_functions`` additionally matches helper calls
    (``record_coverage_health(...)``, bare or resolved into
    :mod:`repro.obs`) that must sit under the same guard.
    """

    singleton = ""
    guarded_methods: frozenset[str] = frozenset()
    guarded_functions: frozenset[str] = frozenset()
    consequence = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_library or ctx.in_package("repro.obs"):
            return
        yield from self._walk_body(ctx, ctx.tree.body, guarded=False)

    def _is_singleton(self, ctx: FileContext, node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Name) and node.id == self.singleton
        ) or ctx.imports.resolve(node) in _SINGLETON_QUALS[self.singleton]

    def _guards(self, ctx: FileContext, test: ast.AST) -> bool:
        """Does ``test`` hold only while the singleton is enabled?"""
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            return any(self._guards(ctx, value) for value in test.values)
        return (
            isinstance(test, ast.Attribute)
            and test.attr == "enabled"
            and self._is_singleton(ctx, test.value)
        )

    def _holds_when_disabled(self, ctx: FileContext, test: ast.AST) -> bool:
        """Is ``test`` true whenever the singleton is disabled?"""
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
            return any(self._holds_when_disabled(ctx, v) for v in test.values)
        return (
            isinstance(test, ast.UnaryOp)
            and isinstance(test.op, ast.Not)
            and self._guards(ctx, test.operand)
        )

    def _walk_body(
        self, ctx: FileContext, body: list[ast.stmt], guarded: bool
    ) -> Iterator[Finding]:
        for stmt in body:
            if isinstance(stmt, ast.If):
                if self._guards(ctx, stmt.test):
                    yield from self._walk_body(ctx, stmt.body, guarded=True)
                    yield from self._walk_body(ctx, stmt.orelse, guarded=guarded)
                elif self._holds_when_disabled(ctx, stmt.test) and _terminates(
                    stmt.body
                ):
                    # ``if not X.enabled: return`` -- the rest of this
                    # block runs only when enabled
                    yield from self._walk_body(ctx, stmt.body, guarded=guarded)
                    yield from self._walk_body(ctx, stmt.orelse, guarded=True)
                    guarded = True
                else:
                    if not guarded:
                        yield from self._check_expr(ctx, stmt.test)
                    yield from self._walk_body(ctx, stmt.body, guarded)
                    yield from self._walk_body(ctx, stmt.orelse, guarded)
                continue
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                # a nested def runs later, outside the enclosing guard
                yield from self._walk_body(ctx, stmt.body, guarded=False)
                continue
            if isinstance(
                stmt,
                (ast.While, ast.For, ast.AsyncFor, ast.With, ast.AsyncWith, ast.Try),
            ):
                if not guarded:
                    for expr in self._header_exprs(stmt):
                        yield from self._check_expr(ctx, expr)
                for attr in ("body", "orelse", "finalbody"):
                    block = getattr(stmt, attr, None)
                    if block:
                        yield from self._walk_body(ctx, block, guarded)
                for handler in getattr(stmt, "handlers", []):
                    yield from self._walk_body(ctx, handler.body, guarded)
                continue
            if not guarded:
                yield from self._check_expr(ctx, stmt)

    @staticmethod
    def _header_exprs(stmt: ast.stmt) -> list[ast.expr]:
        exprs: list[ast.expr] = []
        for attr in ("test", "iter"):
            value = getattr(stmt, attr, None)
            if value is not None:
                exprs.append(value)
        for item in getattr(stmt, "items", []):
            exprs.append(item.context_expr)
        return exprs

    def _check_expr(self, ctx: FileContext, root: ast.AST) -> Iterator[Finding]:
        """Flag touchpoint calls anywhere under an unguarded node."""
        for node in ast.walk(root):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in self.guarded_methods
                and self._is_singleton(ctx, func.value)
            ):
                touched = f"{self.singleton}.{func.attr}"
            elif isinstance(func, ast.Name) and func.id in self.guarded_functions:
                touched = func.id
            else:
                module, _, touched = (ctx.imports.resolve(func) or "").rpartition(".")
                if touched not in self.guarded_functions or module not in _HEALTH_MODULES:
                    continue
            yield ctx.finding(
                self.code,
                node,
                f"`{touched}(...)` is not inside an "
                f"`if {self.singleton}.enabled:` guard; {self.consequence}",
            )


class ObsTouchpointsGuarded(_TouchpointsGuarded):
    """OBS001: OBS.event/counter/gauge/histogram under ``if OBS.enabled:``."""

    code = "OBS001"
    summary = (
        "obs metric/event touchpoints must sit inside an "
        "`if OBS.enabled:` guard so disabled runs never format arguments"
    )
    singleton = "OBS"
    guarded_methods = frozenset({"event", "counter", "gauge", "histogram"})
    consequence = "disabled runs would still evaluate its arguments"


class FlightRecorderGuarded(_TouchpointsGuarded):
    """OBS003: FREC emitting touchpoints under ``if FREC.enabled:``."""

    code = "OBS003"
    summary = (
        "flight-recorder touchpoints must sit inside an "
        "`if FREC.enabled:` guard so the disabled path never allocates "
        "a record"
    )
    singleton = "FREC"
    guarded_methods = frozenset(
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
    consequence = (
        "disabled runs would still build the record dict and scrub its "
        "attributes"
    )


class TelemetryTouchpointsGuarded(_TouchpointsGuarded):
    """OBS004: OBS.sample / record_*_health under ``if OBS.enabled:``."""

    code = "OBS004"
    summary = (
        "telemetry touchpoints (OBS.sample, record_*_health) must sit "
        "inside an `if OBS.enabled:` guard so disabled runs never "
        "recompute health gauges or format sample context"
    )
    singleton = "OBS"
    guarded_methods = frozenset({"sample"})
    guarded_functions = frozenset(
        {
            "record_coverage_health",
            "record_energy_health",
            "record_protocol_health",
        }
    )
    consequence = (
        "disabled runs would still recompute domain health (holes, "
        "energy profiles) or format the sample context"
    )


class LedgerTouchpointsGuarded(_TouchpointsGuarded):
    """OBS005: LEDGER.record_run under ``if LEDGER.enabled:``."""

    code = "OBS005"
    summary = (
        "run-ledger recording touchpoints must sit inside an "
        "`if LEDGER.enabled:` guard so disabled runs never harvest the "
        "registry or digest artifacts"
    )
    singleton = "LEDGER"
    guarded_methods = frozenset({"record_run"})
    consequence = (
        "disabled runs would still harvest the metrics registry, hash "
        "artifact files and build the row dict"
    )


class ProfiledSitesUnique(Rule):
    """OBS002: ``@profiled(site)`` names are unique across the library."""

    code = "OBS002"
    summary = (
        "@profiled site names must be unique; duplicates silently merge "
        "their timings in profile_seconds{site=...}"
    )

    def __init__(self) -> None:
        self._sites: dict[str, tuple[str, int]] = {}
        self._dupes: list[Finding] = []

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_library:
            return
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and (
                    (isinstance(node.func, ast.Name) and node.func.id == "profiled")
                    or (
                        isinstance(node.func, ast.Attribute)
                        and node.func.attr == "profiled"
                    )
                )
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                continue
            site = node.args[0].value
            if site in self._sites:
                first_path, first_line = self._sites[site]
                self._dupes.append(
                    ctx.finding(
                        self.code,
                        node,
                        f"duplicate @profiled site {site!r} (first used at "
                        f"{first_path}:{first_line}); timings would merge "
                        "into one histogram series",
                    )
                )
            else:
                self._sites[site] = (ctx.path, node.lineno)
        return
        yield  # pragma: no cover - makes check a generator

    def finish(self) -> Iterator[Finding]:
        yield from self._dupes


class SwitchesConfined(Rule):
    """OBS006: runtime switches flip only in repro.obs and repro.cli."""

    code = "OBS006"
    summary = (
        "OBS/FREC/LEDGER .enable()/.disable()/.reset() calls and attribute "
        "stores belong to repro.obs and repro.cli; worker state crosses "
        "processes only through the repro.obs.bridge seam"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_library or any(
            ctx.in_package(pkg) for pkg in ("repro.obs", "repro.cli")
        ):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                owner = ctx.imports.resolve(node.func.value)
                if owner not in _SWITCH_QUALS or node.func.attr not in _SWITCH_METHODS:
                    continue
                what = f"`{owner}.{node.func.attr}()`"
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                owners = [_store_owner(ctx, t) for t in _store_targets(node)]
                owner = next((o for o in owners if o is not None), None)
                if owner is None:
                    continue
                what = f"store through `{owner}`"
            else:
                continue
            yield ctx.finding(
                self.code,
                node,
                f"{what} flips a global observability runtime outside "
                "repro.obs and repro.cli; worker state may only cross "
                "processes through the repro.obs.bridge capture/merge seam",
            )


def _store_targets(node: ast.Assign | ast.AugAssign | ast.AnnAssign) -> list[ast.expr]:
    """The store targets of an assignment, tuple/list unpacking flattened."""
    stack: list[ast.expr] = (
        list(node.targets) if isinstance(node, ast.Assign) else [node.target]
    )
    out: list[ast.expr] = []
    while stack:
        target = stack.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            stack.extend(target.elts)
        else:
            out.append(target)
    return out


def _store_owner(ctx: FileContext, target: ast.expr) -> str | None:
    """The runtime singleton a store to ``target`` writes into, if any."""
    node: ast.expr = target
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
        qual = ctx.imports.resolve(node)
        if qual in _SWITCH_QUALS:
            return qual
    return None

"""Observability discipline rules: OBS001 (guards) and OBS006 (switches).

The ``repro.obs`` layer promises that disabled instrumentation costs one
attribute check per touchpoint (the <3% CI gate in
``benchmarks/test_bench_obs_overhead.py`` depends on it).  That only holds
if hot-loop touchpoints — whose *arguments* would otherwise still be
evaluated and formatted, or whose work would still run — sit inside an
``if OBS.enabled:`` guard.  OBS001 enforces it over one table of
touchpoints:

* the ``OBS`` facade's ``event``/``counter``/``gauge``/``histogram``/
  ``sample`` calls;
* the flight pillar's emitting calls (``OBS.flight.emit``/``emit_send``/
  ``emit_deliver``/``set_cause``/``clear_cause``/``begin_run``/
  ``end_run``), so the disabled path never builds a record dict;
* the ``record_*_health`` helpers from :mod:`repro.obs.health`, which
  recompute domain gauges (holes, energy profiles) — real work, not just
  argument formatting.

``OBS.span`` and ``OBS.run`` are exempt: they wrap whole phases as
context managers and return a shared null context when disabled.  The
flight pillar's setup and export calls (``set_header``, ``records``,
``write_jsonl``) run when a recording starts or after it stops, like
``OBS.tracer.write_jsonl``, and are not touchpoints.

A test *guards* only if it is ``OBS.enabled`` or an ``and`` with a
guarding operand; ``if verbose or OBS.enabled:`` and ``if OBS.enabled is
False:`` do not.  An early exit guards the rest of its block only if its
test is ``not <guard>`` (or an ``or`` with such an operand) and its body
ends in ``return``/``raise``/``continue``/``break``.  Receivers, guards
and the health helpers are matched by spelling *and* by resolved import,
so ``from repro.obs import OBS as TELEMETRY`` cannot slip a touchpoint
past the rule.

OBS006 confines the runtime switch: ``.enable()``/``.disable()``/
``.reset()`` calls on ``OBS``, and attribute stores through it, belong
to ``repro.obs`` and the CLI's recording session (``repro.cli``).
Anywhere else in the library — above all in code a ``repro.parallel``
worker runs — flipping it would make two workers (or two runs) record
differently; worker state crosses the process boundary only through the
:mod:`repro.obs.bridge` capture/merge seam.  The invariant-checks switch
(``CHECKS.enable()`` in the pool's worker initializer) is not an
observability runtime and stays legal.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.checks.lint.framework import FileContext, Finding, Rule

__all__ = ["ObsTouchpointsGuarded", "SwitchesConfined"]

#: Import paths of the runtime singleton: the ``repro.obs`` re-export and
#: its defining module.
_OBS_QUALS = frozenset({"repro.obs.OBS", "repro.obs.runtime.OBS"})

#: Singleton methods that swap global runtime state (OBS006).
_SWITCH_METHODS = frozenset({"enable", "disable", "reset"})

#: The OBS001 touchpoint table: ``OBS.<method>`` facade calls, the flight
#: pillar's emitting calls ``OBS.flight.<method>``, and the health helpers
#: (bare, or resolved into one of ``_HEALTH_MODULES``).
_FACADE_TOUCHPOINTS = frozenset({"event", "counter", "gauge", "histogram", "sample"})
_FLIGHT_TOUCHPOINTS = frozenset(
    {"emit", "emit_send", "emit_deliver", "set_cause", "clear_cause", "begin_run", "end_run"}
)
_HEALTH_TOUCHPOINTS = frozenset(
    {"record_coverage_health", "record_energy_health", "record_protocol_health"}
)
_HEALTH_MODULES = ("repro.obs", "repro.obs.health")


def _terminates(block: list[ast.stmt]) -> bool:
    return bool(block) and isinstance(
        block[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )


class ObsTouchpointsGuarded(Rule):
    """OBS001: every touchpoint in the table under ``if OBS.enabled:``."""

    code = "OBS001"
    summary = (
        "obs touchpoints (OBS.event/counter/gauge/histogram/sample, "
        "OBS.flight emits, record_*_health) must sit inside an "
        "`if OBS.enabled:` guard so disabled runs never format arguments, "
        "build flight records or recompute health gauges"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_library or ctx.in_package("repro.obs"):
            return
        yield from self._walk_body(ctx, ctx.tree.body, guarded=False)

    @staticmethod
    def _is_obs(ctx: FileContext, node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Name) and node.id == "OBS"
        ) or ctx.imports.resolve(node) in _OBS_QUALS

    def _guards(self, ctx: FileContext, test: ast.AST) -> bool:
        """Does ``test`` hold only while ``OBS`` is enabled?"""
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            return any(self._guards(ctx, value) for value in test.values)
        return (
            isinstance(test, ast.Attribute)
            and test.attr == "enabled"
            and self._is_obs(ctx, test.value)
        )

    def _holds_when_disabled(self, ctx: FileContext, test: ast.AST) -> bool:
        """Is ``test`` true whenever ``OBS`` is disabled?"""
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

    def _touched(self, ctx: FileContext, func: ast.expr) -> str | None:
        """The touchpoint a call to ``func`` is, if it is one."""
        if isinstance(func, ast.Attribute):
            owner = func.value
            if func.attr in _FACADE_TOUCHPOINTS and self._is_obs(ctx, owner):
                return f"OBS.{func.attr}"
            if (
                func.attr in _FLIGHT_TOUCHPOINTS
                and isinstance(owner, ast.Attribute)
                and owner.attr == "flight"
                and self._is_obs(ctx, owner.value)
            ):
                return f"OBS.flight.{func.attr}"
        if isinstance(func, ast.Name) and func.id in _HEALTH_TOUCHPOINTS:
            return func.id
        module, _, name = (ctx.imports.resolve(func) or "").rpartition(".")
        if name in _HEALTH_TOUCHPOINTS and module in _HEALTH_MODULES:
            return name
        return None

    def _check_expr(self, ctx: FileContext, root: ast.AST) -> Iterator[Finding]:
        """Flag touchpoint calls anywhere under an unguarded node."""
        for node in ast.walk(root):
            if not isinstance(node, ast.Call):
                continue
            touched = self._touched(ctx, node.func)
            if touched is not None:
                yield ctx.finding(
                    self.code,
                    node,
                    f"`{touched}(...)` is not inside an `if OBS.enabled:` "
                    "guard; disabled runs would still evaluate its arguments "
                    "or do its work",
                )


class SwitchesConfined(Rule):
    """OBS006: the runtime switch flips only in repro.obs and repro.cli."""

    code = "OBS006"
    summary = (
        "OBS .enable()/.disable()/.reset() calls and attribute stores "
        "belong to repro.obs and repro.cli; worker state crosses "
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
                if owner not in _OBS_QUALS or node.func.attr not in _SWITCH_METHODS:
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
                f"{what} flips the global observability runtime outside "
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
        if qual in _OBS_QUALS:
            return qual
    return None

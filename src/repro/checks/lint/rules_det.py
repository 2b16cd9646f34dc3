"""Determinism rules: DET001 (RNG), DET002 (wall clock), DET003 (set order).

The paper's figures are averages over seeded trials; every run must be
bit-reproducible from its seed.  Three things silently break that:

* the *legacy global RNG* (``np.random.rand``/``np.random.seed``, stdlib
  ``random.random`` & co.) — hidden process state that any import can
  perturb — and *un-seeded* generator construction
  (``np.random.default_rng()``, ``np.random.SeedSequence()``,
  ``random.Random()`` with no argument draw OS entropy).  Only explicit
  generators built from a seed and threaded through call sites are
  allowed (DET001);
* *wall-clock and entropy reads* in library code — ``time.time``,
  ``perf_counter``, ``uuid``, ``os.urandom`` — which make behaviour (or
  recorded artifacts) differ between identical runs.  Only ``repro.obs``
  may read the clock, because instrumentation never changes results
  (DET002);
* *set iteration* in library code.  String hashing is randomised per
  process, so iterating a ``set`` (literal, ``set()``/``frozenset()``
  call, set comprehension, or a local assigned from one) visits its
  members in an order that can differ between two runs of the same
  seed — exactly where silent tie-break drift enters.  Wrapping the
  iterable in ``sorted(...)`` releases it; dicts are exempt, they keep
  insertion order (DET003).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.checks.lint.framework import FileContext, Finding, Rule

__all__ = ["NoLegacyGlobalRng", "NoSetIteration", "NoWallClockInLibrary"]

#: Constructors of the modern, explicitly-seeded numpy RNG machinery.
_NUMPY_RANDOM_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "MT19937",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
    }
)

#: Stdlib ``random`` attributes that are explicit instances, not global state.
_STDLIB_RANDOM_ALLOWED = frozenset({"Random"})

#: Generator constructors that draw OS entropy when called with no argument.
_ENTROPY_WITHOUT_SEED = frozenset(
    {"numpy.random.default_rng", "numpy.random.SeedSequence", "random.Random"}
)

#: Qualified callables that read the wall clock or OS entropy.
_WALL_CLOCK_OR_ENTROPY = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid3",
        "uuid.uuid4",
        "uuid.uuid5",
        "uuid.getnode",
        "random.SystemRandom",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


class NoLegacyGlobalRng(Rule):
    """DET001: no legacy global-RNG calls anywhere in the tree."""

    code = "DET001"
    summary = (
        "legacy global RNG (np.random.<fn> / random.<fn>) and un-seeded "
        "generator construction (default_rng(), SeedSequence(), Random()) "
        "are forbidden; thread a seeded np.random.Generator through call sites"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = ctx.imports.resolve(node.func)
            if qual is None:
                continue
            if qual in _ENTROPY_WITHOUT_SEED:
                if not node.args and not node.keywords:
                    yield ctx.finding(
                        self.code,
                        node,
                        f"un-seeded `{qual}()` draws OS entropy; pass a "
                        "seed so two runs of the same sweep agree",
                    )
            elif qual.startswith("numpy.random."):
                tail = qual.split(".")[-1]
                if tail not in _NUMPY_RANDOM_ALLOWED:
                    yield ctx.finding(
                        self.code,
                        node,
                        f"call to legacy global-RNG `{qual}`; use an "
                        "explicit np.random.Generator from "
                        "np.random.default_rng(seed) instead",
                    )
            elif qual.startswith("random."):
                tail = qual.split(".")[1]
                if (
                    tail not in _STDLIB_RANDOM_ALLOWED
                    and tail != "SystemRandom"  # DET002's finding, not ours
                ):
                    yield ctx.finding(
                        self.code,
                        node,
                        f"call to stdlib global-RNG `{qual}`; use an "
                        "explicit, seeded generator object instead",
                    )


class NoWallClockInLibrary(Rule):
    """DET002: no wall-clock/entropy reads in library code outside repro.obs."""

    code = "DET002"
    summary = (
        "wall-clock/entropy reads (time.*, uuid.*, os.urandom) are "
        "forbidden in library code; only repro.obs may read the clock"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_library or ctx.in_package("repro.obs"):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = ctx.imports.resolve(node.func)
            if qual is None:
                continue
            if qual in _WALL_CLOCK_OR_ENTROPY or qual.startswith("secrets."):
                yield ctx.finding(
                    self.code,
                    node,
                    f"wall-clock/entropy call `{qual}` in library module "
                    f"`{ctx.module}`; runs must be bit-reproducible from "
                    "their seed (only repro.obs may read the clock)",
                )


class NoSetIteration(Rule):
    """DET003: no iteration over a ``set`` in library code."""

    code = "DET003"
    summary = (
        "no un-sorted() set iteration in library code; set order varies "
        "across processes"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_library:
            return
        scopes: list[ast.AST] = [ctx.tree]
        scopes.extend(
            node
            for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        for scope in scopes:
            set_vars = _set_typed_locals(scope)
            for node in _own_nodes(scope):
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iters = [node.iter]
                elif isinstance(
                    node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
                ):
                    iters = [gen.iter for gen in node.generators]
                else:
                    continue
                for it in iters:
                    if _is_set_expr(it):
                        what = "a `set` expression"
                    elif isinstance(it, ast.Name) and it.id in set_vars:
                        what = f"the `set` local `{it.id}`"
                    else:
                        continue
                    yield ctx.finding(
                        self.code,
                        it,
                        f"iteration over {what}; set order varies across "
                        "processes — wrap the iterable in `sorted(...)`",
                    )


def _own_nodes(root: ast.AST) -> Iterator[ast.AST]:
    """Walk one scope without descending into nested ``def``s."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _is_set_expr(expr: ast.AST) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id in ("set", "frozenset")
    )


def _set_typed_locals(root: ast.AST) -> set[str]:
    """Names a scope assigns from a set literal/constructor/comprehension."""
    names: set[str] = set()
    for node in _own_nodes(root):
        value: ast.expr | None = None
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            value, targets = node.value, list(node.targets)
        elif isinstance(node, ast.AnnAssign):
            value, targets = node.value, [node.target]
        if value is not None and _is_set_expr(value):
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names

"""Rule framework for the project-specific AST linter.

The linter enforces invariants generic tools cannot know about — DECOR's
determinism contract, the FieldModel shared-cache aliasing rules, the
``OBS`` guard discipline — as small :class:`Rule` classes over the stdlib
``ast``.  The framework provides:

* :class:`Finding` — one diagnostic, rendered ``path:line:col: CODE msg``;
* :class:`FileContext` — parsed tree, resolved module name, and an
  :class:`ImportMap` that turns local names back into qualified dotted
  paths (``np.random.rand`` -> ``numpy.random.rand``), so rules match
  *what is called*, not what it happens to be spelled as;
* suppression handling — ``# checks: ignore[CODE]`` on the offending line
  silences that rule there, and every suppression must earn its keep: one
  that matches no finding is itself an error (``SUP001``), so stale
  ignores cannot accumulate;
* :func:`lint_paths` — the runner (file discovery, per-file rule pass,
  suppression filtering).

Adding a rule: subclass :class:`Rule`, set ``code``/``summary``, implement
``check`` (yield findings for one file), then register it in
``repro.checks.lint.ALL_RULES``.  See ``docs/static_analysis.md``.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Finding",
    "ImportMap",
    "FileContext",
    "Rule",
    "SUPPRESSION_RULE",
    "PARSE_RULE",
    "parse_suppressions",
    "iter_python_files",
    "lint_paths",
]

#: Pseudo-rule code for unused/unknown suppressions.
SUPPRESSION_RULE = "SUP001"
#: Pseudo-rule code for files the parser rejects.
PARSE_RULE = "PARSE"

_SUPPRESS_RE = re.compile(r"#\s*checks:\s*ignore\[([A-Za-z0-9_\s,]*)\]")


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class ImportMap:
    """Local-name -> qualified-dotted-path resolution for one module.

    Rules match what is called, guarded or stored to by its resolved
    path, whatever the local spelling: after ``from repro.obs import OBS
    as TELEMETRY``, ``TELEMETRY`` resolves to ``repro.obs.OBS``.

    >>> tree = ast.parse(
    ...     "import numpy as np\\nfrom time import perf_counter as pc\\n"
    ... )
    >>> m = ImportMap.of(tree)
    >>> m.resolve(ast.parse("np.random.rand", mode="eval").body)
    'numpy.random.rand'
    >>> m.resolve(ast.parse("pc", mode="eval").body)
    'time.perf_counter'
    >>> m.resolve(ast.parse("local.thing", mode="eval").body) is None
    True
    """

    def __init__(self, aliases: dict[str, str]) -> None:
        self._aliases = aliases

    @classmethod
    def of(cls, tree: ast.AST) -> "ImportMap":
        aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    aliases[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    aliases[local] = f"{node.module}.{alias.name}"
        return cls(aliases)

    def resolve(self, node: ast.AST) -> str | None:
        """Dotted qualified name of a Name/Attribute chain, if importable."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self._aliases.get(node.id)
        if base is None:
            return None
        return ".".join([base, *reversed(parts)]) if parts else base


class FileContext:
    """What every rule gets handed for one file."""

    def __init__(
        self, path: str, source: str, tree: ast.Module, module: str | None
    ) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        #: Dotted module name when the file belongs to the ``repro``
        #: package tree (resolved from a ``src/`` path segment), else None.
        self.module = module
        self.imports = ImportMap.of(tree)

    @property
    def in_library(self) -> bool:
        """True for modules inside the installed ``repro`` package."""
        return self.module is not None and (
            self.module == "repro" or self.module.startswith("repro.")
        )

    def in_package(self, package: str) -> bool:
        return self.module is not None and (
            self.module == package or self.module.startswith(package + ".")
        )

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule,
            message=message,
        )


class Rule:
    """Base class for lint rules; see the module docstring for the recipe."""

    code: str = "RULE000"
    summary: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one file."""
        return iter(())


def module_name_for(path: Path) -> str | None:
    """Dotted module name for files under a ``src/`` tree, else None.

    >>> module_name_for(Path("src/repro/field/model.py"))
    'repro.field.model'
    >>> module_name_for(Path("src/repro/checks/__init__.py"))
    'repro.checks'
    >>> module_name_for(Path("tests/test_field_model.py")) is None
    True
    """
    parts = path.parts
    if "src" not in parts:
        return None
    rel = parts[parts.index("src") + 1 :]
    if not rel or not rel[-1].endswith(".py"):
        return None
    rel = rel[:-1] + (rel[-1][: -len(".py")],)
    if rel[-1] == "__init__":
        rel = rel[:-1]
    return ".".join(rel) if rel else None


def parse_suppressions(source: str) -> dict[int, set[str]]:
    """Map line number -> rule codes suppressed by ``# checks: ignore[...]``.

    Only genuine comment tokens count — the marker appearing inside a
    string literal (a lint fixture, a docstring example) is inert, so test
    files full of fixture snippets do not accumulate phantom suppressions.

    >>> sup = parse_suppressions("x = 1  # checks: ignore[DET001, API001]\\n")
    >>> sorted(sup[1])
    ['API001', 'DET001']
    >>> parse_suppressions('s = "# checks: ignore[DET001]"\\n')
    {}
    """
    out: dict[int, set[str]] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenizeError, IndentationError):  # pragma: no cover
        return out
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(tok.string)
        if match:
            codes = {c.strip() for c in match.group(1).split(",") if c.strip()}
            out[tok.start[0]] = codes
    return out


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``*.py`` files."""
    out: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for sub in path.rglob("*.py"):
                if not any(
                    part.startswith(".") or part == "__pycache__"
                    for part in sub.parts
                ):
                    out.add(sub)
        elif path.suffix == ".py":
            out.add(path)
    return sorted(out)


def _apply_suppressions(
    findings: list[Finding], suppressions: dict[str, dict[int, set[str]]]
) -> list[Finding]:
    """Filter suppressed findings; flag unused or unknown suppressions."""
    used: set[tuple[str, int, str]] = set()
    kept: list[Finding] = []
    for f in findings:
        codes = suppressions.get(f.path, {}).get(f.line, set())
        if f.rule in codes and f.rule != SUPPRESSION_RULE:
            used.add((f.path, f.line, f.rule))
        else:
            kept.append(f)
    for path, lines in suppressions.items():
        for line, codes in lines.items():
            for code in sorted(codes):
                if (path, line, code) not in used:
                    kept.append(
                        Finding(
                            path=path,
                            line=line,
                            col=1,
                            rule=SUPPRESSION_RULE,
                            message=(
                                f"suppression of {code} matched no {code} "
                                "finding on this line; remove the stale "
                                "`# checks: ignore` (unused suppressions are "
                                "errors so ignores cannot rot)"
                            ),
                        )
                    )
    return sorted(kept)


def lint_paths(
    paths: Iterable[str | Path], rules: Sequence[type[Rule]] | None = None
) -> list[Finding]:
    """Run ``rules`` (default: the registered set) over ``paths``.

    Returns the surviving findings sorted by location; an empty list means
    the tree is clean.
    """
    if rules is None:
        from repro.checks.lint import ALL_RULES

        rules = ALL_RULES
    rule_objs = [rule() for rule in rules]
    findings: list[Finding] = []
    suppressions: dict[str, dict[int, set[str]]] = {}
    for path in iter_python_files(paths):
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            findings.append(
                Finding(
                    path=str(path),
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    rule=PARSE_RULE,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        ctx = FileContext(str(path), source, tree, module_name_for(path))
        suppressions[ctx.path] = parse_suppressions(source)
        for rule in rule_objs:
            findings.extend(rule.check(ctx))
    return _apply_suppressions(findings, suppressions)

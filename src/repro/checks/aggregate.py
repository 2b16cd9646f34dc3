"""``decor check``: one command over every static gate.

Aggregates the project's correctness gates —

* **lint** — the per-file AST linter (full rules on ``src``/``tests``,
  relaxed subset on ``benchmarks``/``tools``), which alone decides how
  the determinism, worker-purity and guard contracts are enforced;
* **typing** — ``tools/typing_ratchet.py`` (the strict-mypy set only
  grows);
* **mypy** — the configured mypy run, when mypy is importable

— and renders one report as ``text``, ``json`` or ``sarif`` (SARIF
2.1.0, consumable by GitHub code scanning).  Gates whose tooling is
unavailable (no mypy in the environment, no ``tools/`` scripts outside
a repo checkout) are reported as skipped, not failed.  Exit status is
non-zero iff any non-skipped gate fails.  Counted work and wall time
are not gated here: exact pins in the tests and ``decor runs diff
--exit-code`` gate the counts, the end-to-end benchmark the walls.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.checks.lint import ALL_RULES, RELAXED_RULES, lint_paths
from repro.checks.lint.framework import SUPPRESSION_RULE, Finding

__all__ = [
    "GATE_NAMES",
    "GateResult",
    "run_gates",
    "render_text",
    "render_json",
    "render_sarif",
]


@dataclass
class GateResult:
    """Outcome of one gate: pass/fail/skip plus location-bearing findings."""

    name: str
    ok: bool
    skipped: bool
    detail: str
    findings: list[Finding] = field(default_factory=list)

    @property
    def status(self) -> str:
        if self.skipped:
            return "skip"
        return "ok" if self.ok else "FAIL"


def _lint_gate() -> GateResult:
    findings = list(lint_paths(["src", "tests"]))
    findings.extend(lint_paths(["benchmarks", "tools"], RELAXED_RULES))
    findings.sort()
    return GateResult(
        name="lint",
        ok=not findings,
        skipped=False,
        detail=f"{len(findings)} finding(s)",
        findings=findings,
    )


def _typing_gate() -> GateResult:
    script = Path("tools") / "typing_ratchet.py"
    if not script.is_file():
        return GateResult(
            name="typing",
            ok=True,
            skipped=True,
            detail=f"{script} not present (not a repo checkout?)",
        )
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        check=False,
    )
    tail = (proc.stdout + proc.stderr).strip().splitlines()
    return GateResult(
        name="typing",
        ok=proc.returncode == 0,
        skipped=False,
        detail=tail[-1] if tail else f"exit {proc.returncode}",
    )


def _mypy_gate() -> GateResult:
    if importlib.util.find_spec("mypy") is None:
        return GateResult(
            name="mypy",
            ok=True,
            skipped=True,
            detail="mypy not installed in this environment",
        )
    proc = subprocess.run(
        [sys.executable, "-m", "mypy"],
        capture_output=True,
        text=True,
        check=False,
    )
    tail = (proc.stdout + proc.stderr).strip().splitlines()
    return GateResult(
        name="mypy",
        ok=proc.returncode == 0,
        skipped=False,
        detail=tail[-1] if tail else f"exit {proc.returncode}",
    )


_GATES: dict[str, Callable[[], GateResult]] = {
    "lint": _lint_gate,
    "typing": _typing_gate,
    "mypy": _mypy_gate,
}

#: Gate names in execution/reporting order.
GATE_NAMES: tuple[str, ...] = tuple(_GATES)


def run_gates(skip: Sequence[str] = ()) -> list[GateResult]:
    """Run every gate not named in ``skip``; skipped gates still report."""
    results: list[GateResult] = []
    skipset = set(skip)
    for name in GATE_NAMES:
        if name in skipset:
            results.append(
                GateResult(
                    name=name, ok=True, skipped=True, detail="skipped (--skip)"
                )
            )
        else:
            results.append(_GATES[name]())
    return results


def overall_ok(results: Sequence[GateResult]) -> bool:
    return all(r.ok or r.skipped for r in results)


# ---------------------------------------------------------------------------
# renderers
# ---------------------------------------------------------------------------


def render_text(results: Sequence[GateResult]) -> str:
    lines: list[str] = []
    for result in results:
        lines.append(f"{result.name:<7} {result.status:<5} {result.detail}")
        for finding in result.findings:
            lines.append(f"  {finding.render()}")
    verdict = "ok" if overall_ok(results) else "FAIL"
    lines.append(f"decor check: {verdict}")
    return "\n".join(lines)


def render_json(results: Sequence[GateResult]) -> str:
    payload = {
        "ok": overall_ok(results),
        "gates": [
            {
                "name": r.name,
                "ok": r.ok,
                "skipped": r.skipped,
                "detail": r.detail,
                "findings": [
                    {
                        "path": f.path,
                        "line": f.line,
                        "col": f.col,
                        "rule": f.rule,
                        "message": f.message,
                    }
                    for f in r.findings
                ],
            }
            for r in results
        ],
    }
    return json.dumps(payload, indent=2)


def _rule_catalogue() -> list[dict[str, object]]:
    rules: dict[str, str] = {}
    for rule_cls in ALL_RULES:
        rules[rule_cls.code] = rule_cls.summary
    rules[SUPPRESSION_RULE] = (
        "unused `# checks: ignore[...]` suppressions are errors"
    )
    return [
        {"id": code, "shortDescription": {"text": rules[code]}}
        for code in sorted(rules)
    ]


def render_sarif(results: Sequence[GateResult]) -> str:
    """SARIF 2.1.0: every location-bearing finding plus failed gates."""
    sarif_results: list[dict[str, object]] = []
    for result in results:
        for finding in result.findings:
            sarif_results.append(
                {
                    "ruleId": finding.rule,
                    "level": "error",
                    "message": {
                        "text": f"{finding.rule}: {finding.message}"
                    },
                    "locations": [
                        {
                            "physicalLocation": {
                                "artifactLocation": {
                                    "uri": finding.path.replace("\\", "/")
                                },
                                "region": {
                                    "startLine": finding.line,
                                    "startColumn": finding.col,
                                },
                            }
                        }
                    ],
                }
            )
        if not result.ok and not result.skipped and not result.findings:
            sarif_results.append(
                {
                    "ruleId": f"GATE-{result.name}",
                    "level": "error",
                    "message": {
                        "text": f"gate `{result.name}` failed: {result.detail}"
                    },
                }
            )
    payload = {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "decor-check",
                        "rules": _rule_catalogue(),
                    }
                },
                "results": sarif_results,
            }
        ],
    }
    return json.dumps(payload, indent=2)

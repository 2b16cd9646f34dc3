"""``decor check``: one command over every static gate.

Aggregates the project's correctness gates —

* **flow** — the interprocedural effect analyzer
  (:mod:`repro.checks.flow`) against the grow-only baseline;
* **lint** — the per-file AST linter (full rules on ``src``/``tests``,
  relaxed subset on ``benchmarks``/``tools``);
* **typing** — ``tools/typing_ratchet.py`` (the strict-mypy set only
  grows);
* **mypy** — the configured mypy run, when mypy is importable;
* **bench** — ``tools/bench_ratchet.py`` (work counters only shrink;
  slow, skip with ``--skip bench`` for pre-commit use)

— and renders one report as ``text``, ``json`` or ``sarif`` (SARIF
2.1.0, consumable by GitHub code scanning).  Gates whose tooling is
unavailable (no mypy in the environment, no ``tools/`` scripts outside
a repo checkout) are reported as skipped, not failed.  Exit status is
non-zero iff any non-skipped gate fails.
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


def _flow_gate() -> GateResult:
    from repro.checks.flow.baseline import (
        DEFAULT_BASELINE,
        check_baseline,
        load_baseline,
    )
    from repro.checks.flow.effects import analyze_paths
    from repro.checks.flow.rules import apply_suppressions, flow_findings

    analysis = analyze_paths(["src"])
    findings = apply_suppressions(flow_findings(analysis))
    report = check_baseline(findings, load_baseline(DEFAULT_BASELINE))
    located = [ff.finding for ff in report.new]
    for key in report.stale:
        located.append(
            Finding(
                path=str(DEFAULT_BASELINE),
                line=1,
                col=1,
                rule="FLOW-BASELINE",
                message=(
                    f"stale baseline entry `{key}` — the finding is gone; "
                    "remove the entry (the baseline may only shrink)"
                ),
            )
        )
    detail = (
        f"{analysis.n_functions} functions, {analysis.n_edges} edges, "
        f"{analysis.n_sccs} SCCs; {len(report.new)} new, "
        f"{len(report.matched)} baselined, {len(report.stale)} stale"
    )
    return GateResult(
        name="flow",
        ok=report.ok,
        skipped=False,
        detail=detail,
        findings=located,
    )


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


def _script_gate(name: str, script: Path, args: Sequence[str]) -> GateResult:
    if not script.is_file():
        return GateResult(
            name=name,
            ok=True,
            skipped=True,
            detail=f"{script} not present (not a repo checkout?)",
        )
    proc = subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True,
        text=True,
        check=False,
    )
    tail = (proc.stdout + proc.stderr).strip().splitlines()
    return GateResult(
        name=name,
        ok=proc.returncode == 0,
        skipped=False,
        detail=tail[-1] if tail else f"exit {proc.returncode}",
    )


def _typing_gate() -> GateResult:
    return _script_gate("typing", Path("tools") / "typing_ratchet.py", [])


def _bench_gate() -> GateResult:
    return _script_gate("bench", Path("tools") / "bench_ratchet.py", [])


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
    "flow": _flow_gate,
    "lint": _lint_gate,
    "typing": _typing_gate,
    "mypy": _mypy_gate,
    "bench": _bench_gate,
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
    from repro.checks.flow.rules import FLOW_RULE_SUMMARIES

    rules: dict[str, str] = {}
    for rule_cls in ALL_RULES:
        rules[rule_cls.code] = rule_cls.summary
    rules[SUPPRESSION_RULE] = (
        "unused `# checks: ignore[...]` suppressions are errors"
    )
    rules.update(FLOW_RULE_SUMMARIES)
    rules["FLOW-BASELINE"] = (
        "the flow baseline may only shrink; stale entries must be removed"
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

"""Correctness tooling: AST lints, runtime invariant sanitizer, typing gate.

Three layers, one goal — catch invariant violations at lint time or at the
violating line instead of three figures later:

* :mod:`repro.checks.lint` — project-specific AST lints
  (``python -m repro.checks.lint src/ tests/``);
* :mod:`repro.checks.contracts` — the ``REPRO_CHECKS=1`` runtime
  sanitizer (array write-protection + greedy-step invariant validation)
  behind the :data:`CHECKS` switch;
* the mypy strictness ladder configured in ``pyproject.toml`` and
  ratcheted by ``tools/typing_ratchet.py``.

See ``docs/static_analysis.md`` for the full guide.  The lint subpackage
is intentionally *not* imported here: importing :mod:`repro.checks` from
hot paths (FieldModel does) must stay free of linter machinery.
"""

from repro.checks.contracts import (
    NULL_CHECKER,
    GreedyStepChecker,
    freeze_csr,
    greedy_checker,
    validate_adjacency_symmetry,
    validate_coverage_recount,
    validate_engine_consistency,
    validate_warm_engine,
)
from repro.checks.runtime import CHECKS, ChecksRuntime

__all__ = [
    "CHECKS",
    "ChecksRuntime",
    "NULL_CHECKER",
    "GreedyStepChecker",
    "freeze_csr",
    "greedy_checker",
    "validate_adjacency_symmetry",
    "validate_coverage_recount",
    "validate_engine_consistency",
    "validate_warm_engine",
]

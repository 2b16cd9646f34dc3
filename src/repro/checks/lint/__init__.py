"""Project-specific AST lints for the DECOR reproduction.

Run as ``python -m repro.checks.lint`` (CI does) or call
:func:`lint_paths` programmatically.  The rule catalogue, rationale and the
``# checks: ignore[CODE]`` suppression syntax are documented in
``docs/static_analysis.md``.

========  ==========================================================
code      enforces
========  ==========================================================
DET001    no legacy global-RNG calls (np.random.<fn>, random.<fn>)
          and no un-seeded default_rng()/SeedSequence()/Random()
DET002    no wall-clock/entropy reads in library code outside repro.obs
DET003    no un-sorted() set iteration in library code
ALIAS001  no in-place mutation of FieldModel/engine cached values
OBS001    obs touchpoints (OBS.event/counter/gauge/histogram/sample,
          OBS.flight emits, record_*_health) guarded by
          ``if OBS.enabled:``
OBS006    the OBS switch flipped only in repro.obs/repro.cli
API001    no exact float ==/!= on coordinates or benefits
SUP001    every ``# checks: ignore`` suppression must match a finding
========  ==========================================================

Every rule checks one file at a time and reports at the offending line.
Worker discipline needs no call graph: DET001, DET002 and DET003 hold in
every library function, so in every function a ``repro.parallel`` worker
can reach, and OBS006 keeps the observability switch out of all of
them.

Two rule sets are registered: :data:`ALL_RULES` (library and test code)
and :data:`RELAXED_RULES` (``benchmarks/`` and ``tools/`` — scripts that
legitimately read ``time.perf_counter`` and print, but must still avoid
legacy RNG and cached-view mutation).
"""

from repro.checks.lint.framework import (
    FileContext,
    Finding,
    ImportMap,
    Rule,
    SUPPRESSION_RULE,
    iter_python_files,
    lint_paths,
    parse_suppressions,
)
from repro.checks.lint.rules_alias import NoInPlaceOnCachedViews
from repro.checks.lint.rules_api import NoFloatEqualityOnCoordinates
from repro.checks.lint.rules_det import (
    NoLegacyGlobalRng,
    NoSetIteration,
    NoWallClockInLibrary,
)
from repro.checks.lint.rules_obs import ObsTouchpointsGuarded, SwitchesConfined

__all__ = [
    "ALL_RULES",
    "RELAXED_RULES",
    "Finding",
    "FileContext",
    "ImportMap",
    "Rule",
    "SUPPRESSION_RULE",
    "iter_python_files",
    "lint_paths",
    "parse_suppressions",
    "NoLegacyGlobalRng",
    "NoWallClockInLibrary",
    "NoSetIteration",
    "NoInPlaceOnCachedViews",
    "ObsTouchpointsGuarded",
    "SwitchesConfined",
    "NoFloatEqualityOnCoordinates",
]

#: The registered rule set, in reporting order.
ALL_RULES: tuple[type[Rule], ...] = (
    NoLegacyGlobalRng,
    NoWallClockInLibrary,
    NoSetIteration,
    NoInPlaceOnCachedViews,
    ObsTouchpointsGuarded,
    SwitchesConfined,
    NoFloatEqualityOnCoordinates,
)

#: Subset applied to ``benchmarks/`` and ``tools/``: determinism of the
#: RNG discipline and aliasing safety still bind there, but wall-clock
#: reads and unguarded prints are the whole point of a benchmark script.
RELAXED_RULES: tuple[type[Rule], ...] = (
    NoLegacyGlobalRng,
    NoInPlaceOnCachedViews,
)

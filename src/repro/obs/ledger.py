"""Persistent run ledger: cross-run history and regression detection.

Every other part of :mod:`repro.obs` observes *one* invocation — the
tracer, registry, sampler and flight recorder all die with the process.
The paper's evaluation, though, is a *trajectory*: the same sweeps re-run
across seeds, k values and failure epochs and compared against each other.
This module gives the harness a memory between invocations.  It is not a
runtime: the CLI's recording session builds one row from ``OBS`` when a
command ends (:func:`harvest` + :func:`build_row`) and appends it to a
:class:`LedgerStore`.

* :class:`LedgerStore` — an append-only store of JSONL *segments* under
  ``.decor/ledger/`` (stdlib-only, like everything in ``repro.obs``).
  One structured row per figure/deploy/summary/restore/bench invocation:

  - ``config`` + ``fingerprint`` — the semantic parameters of the run
    (series, k values, seeds, method) hashed
    canonically, so "same experiment" is a string comparison;
  - ``env`` — python/numpy versions, platform, cpu count, the relevant
    ``REPRO_*`` environment and the worker count.  Environment describes
    *where* a run happened, never *what* it computed, so it is masked by
    :func:`mask_row` alongside timing;
  - ``wall`` — per-layer wall seconds, each the total of the spans of one
    name in the run's tracer (also masked);
  - ``counters`` / ``gauges`` / ``histograms`` — the run's metrics
    registry (:func:`harvest`): byte-identical between serial and
    ``--workers N`` runs (the :mod:`repro.obs.bridge` guarantee);
  - ``artifacts`` — SHA-256 digests of the figure JSON / flight record /
    sample sink the invocation wrote.

* a query/compare layer — :func:`diff_rows` renders config-aware deltas
  between two runs, and :func:`run_detectors` applies the regression
  detectors (relative thresholds on wall medians and counter multisets,
  strict equality on determinism-relevant counters) against the median
  of a run's config-matching predecessors.  ``decor runs`` is the CLI
  over both.

Determinism contract: two rows from the same config are **byte-identical
after masking** (:func:`mask_row` strips ``run_id``/``ts``/``env``/
``wall``) whether the run was serial or pooled.  ``tests/test_obs_ledger.
py`` and the CI ``ledger`` job hold this line.

Like the sampler, this module is DET002 wall-clock-exempt: time and
entropy here feed telemetry, never results.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pathlib
import platform
import statistics
import sys
import time
import warnings
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.errors import ObservabilityError
from repro.obs.metrics import MetricsRegistry
from repro.obs.sampler import (
    EXCLUDED_PREFIXES,
    empty_sections,
    fold_series,
    series_key,
)

__all__ = [
    "DEFAULT_LEDGER_ROOT",
    "EXACT_COUNTER_PREFIXES",
    "HARVEST_EXCLUDED_PREFIXES",
    "LEDGER_VERSION",
    "LedgerStore",
    "MASKED_FIELDS",
    "RegressFinding",
    "RegressOptions",
    "artifact_digest",
    "baseline_rows",
    "build_row",
    "capture_environment",
    "config_fingerprint",
    "diff_is_clean",
    "diff_rows",
    "diff_sections",
    "harvest",
    "mask_row",
    "render_diff",
    "render_sections",
    "run_detectors",
    "sections_from_sample_rows",
]

#: Row schema version stamped into every ledger row.
LEDGER_VERSION = 1

#: Where the ledger lives unless ``--ledger PATH`` says otherwise
#: (relative to the working directory, like ``.git``).
DEFAULT_LEDGER_ROOT = ".decor/ledger"

#: Rows per JSONL segment file before rolling over to a new segment.
SEGMENT_MAX_ROWS = 512

#: Series prefixes excluded from harvested counters/gauges: the sampler's
#: own exclusions (build counters depend on which process first touched a
#: seed) plus series whose *values* are schedule-dependent — pool
#: bookkeeping exists only in pooled runs, the cache hit/miss split
#: depends on who computed a cell, and the label-cap overflow counter
#: depends on registration order.
HARVEST_EXCLUDED_PREFIXES: tuple[str, ...] = EXCLUDED_PREFIXES + (
    "parallel_",
    "deployment_cache_",
    "obs_labels_dropped_total",
)

#: Fields stripped by :func:`mask_row`: identity, wall-clock and
#: environment — everything that may legitimately differ between two runs
#: of the same config (``env`` carries the worker count, which is an
#: execution detail, not an experiment parameter).
MASKED_FIELDS: tuple[str, ...] = ("run_id", "ts", "env", "wall")

#: Counter-key prefixes the strict-equality detector gates by default:
#: they count simulation work, deterministic by construction, so *any*
#: drift is a regression, not noise.
EXACT_COUNTER_PREFIXES: tuple[str, ...] = (
    "decor_placements_total",
    "restoration_",
)

#: Environment variables captured into a row's ``env`` section.
CAPTURED_ENV_VARS: tuple[str, ...] = (
    "REPRO_CHECKS",
    "REPRO_SCALE",
)

#: Env hook for the CI regression demo and detector self-tests:
#: ``REPRO_LEDGER_INFLATE="<key-prefix>:<factor>"`` multiplies every
#: harvested counter whose flat key starts with the prefix.  This is the
#: sanctioned way to fake a regression end-to-end — the row is recorded
#: inflated, and ``decor runs regress`` must catch it.
INFLATE_ENV_VAR = "REPRO_LEDGER_INFLATE"


# ----------------------------------------------------------------------
# row construction
# ----------------------------------------------------------------------
def config_fingerprint(config: dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON encoding of ``config``.

    Canonical means sorted keys and compact separators, so two configs
    with equal content always hash equal regardless of insertion order.

    >>> a = config_fingerprint({"k": [1, 2], "method": "grid"})
    >>> b = config_fingerprint({"method": "grid", "k": [1, 2]})
    >>> a == b and len(a) == 64
    True
    """
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def capture_environment(**extra: object) -> dict[str, Any]:
    """Where this run happened: interpreter, platform, env, workers.

    Everything here is masked by :func:`mask_row` — environment explains
    a wall-clock difference, it never excuses a counter difference.
    """
    try:
        import numpy

        numpy_version = str(numpy.__version__)
    except Exception:  # pragma: no cover - numpy is a hard dep in practice
        numpy_version = None
    env = {
        name: os.environ[name]
        for name in CAPTURED_ENV_VARS
        if os.environ.get(name) not in (None, "")
    }
    out: dict[str, Any] = {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "argv0": pathlib.Path(sys.argv[0]).name if sys.argv else "",
        "repro_env": env,
    }
    out.update(extra)
    return out


def sections_from_sample_rows(
    rows: Iterable[dict[str, Any]],
    *,
    exclude: tuple[str, ...] = (),
) -> dict[str, Any]:
    """Aggregate raw sample rows into counter/gauge/histogram sections.

    :func:`~repro.obs.sampler.fold_series` over a sink's rows — what the
    ``decor obs summarize --diff`` renderer consumes.
    """
    sections = empty_sections()
    for row in rows:
        if row.get("type") == "sample":
            fold_series(sections, row.get("series", {}))
    return _without(sections, exclude)


def harvest(registry: MetricsRegistry) -> dict[str, Any]:
    """A run's counter/gauge/histogram sections, as its ledger row holds them.

    Every registry series minus :data:`HARVEST_EXCLUDED_PREFIXES`, keyed
    like sample rows (:func:`~repro.obs.sampler.series_key`); histograms
    keep their count and sum.  The ``REPRO_LEDGER_INFLATE`` self-test
    hook, when set, scales the matching counters.

    >>> reg = MetricsRegistry()
    >>> reg.counter("decor_placements_total", method="grid").inc(3)
    >>> reg.counter("parallel_cells_total").inc(8)
    >>> harvest(reg)["counters"]
    {'decor_placements_total{method=grid}': 3}
    """
    sections = empty_sections()
    for name, labels, kind, payload in registry.dump_state():
        key = series_key(name, labels)
        if kind == "counter":
            sections["counters"][key] = payload["value"]
        elif kind == "gauge":
            sections["gauges"][key] = payload["value"]
        else:
            sections["histograms"][key] = {
                "count": payload["count"], "sum": payload["sum"],
            }
    harvested = _without(sections, HARVEST_EXCLUDED_PREFIXES)
    _apply_inflation(harvested["counters"])
    return harvested


def _apply_inflation(counters: dict[str, float]) -> None:
    """Apply the ``REPRO_LEDGER_INFLATE`` self-test hook, if set."""
    spec = os.environ.get(INFLATE_ENV_VAR, "")
    if not spec:
        return
    prefix, _, factor_text = spec.partition(":")
    try:
        factor = float(factor_text)
    except ValueError as exc:
        raise ObservabilityError(
            f"{INFLATE_ENV_VAR} must look like '<key-prefix>:<factor>', "
            f"got {spec!r}"
        ) from exc
    for key in list(counters):
        if key.startswith(prefix):
            counters[key] = type(counters[key])(counters[key] * factor)


def _without(
    sections: dict[str, dict[str, Any]], exclude: tuple[str, ...]
) -> dict[str, Any]:
    """``sections`` minus keys starting with ``exclude``, keys sorted."""
    return {
        section: {
            key: value
            for key, value in sorted(values.items())
            if not key.startswith(exclude)
        }
        for section, values in sections.items()
    }


def artifact_digest(path: str | os.PathLike[str]) -> str:
    """SHA-256 hex digest of a written artifact (figure JSON, sink, ...)."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def build_row(
    kind: str,
    label: str,
    config: dict[str, Any],
    *,
    metrics: dict[str, Any] | None = None,
    wall: dict[str, float] | None = None,
    artifacts: dict[str, str] | None = None,
    env: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble one ledger row (without appending it anywhere).

    ``artifacts`` maps artifact names to file paths; existing files are
    digested, missing ones recorded as ``null`` digests.  Only the file
    *name* is kept — the directory it landed in is an execution detail,
    and recording it would make otherwise-identical runs (same artifact
    bytes, different tmp dirs) diff dirty.  ``run_id`` is the config
    fingerprint's head plus a nanosecond stamp — unique, sortable, and
    greppable back to its config family.
    """
    fingerprint = config_fingerprint(config)
    digested: dict[str, dict[str, Any]] = {}
    for name, path in sorted((artifacts or {}).items()):
        digested[name] = {
            "file": pathlib.Path(path).name,
            "sha256": artifact_digest(path) if os.path.exists(path) else None,
        }
    sections = metrics or empty_sections()
    return {
        "v": LEDGER_VERSION,
        "kind": kind,
        "label": label,
        "run_id": f"{fingerprint[:12]}-{time.time_ns():016x}",
        "ts": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "fingerprint": fingerprint,
        "config": config,
        "env": env if env is not None else capture_environment(),
        "wall": dict(sorted((wall or {}).items())),
        "counters": sections["counters"],
        "gauges": sections["gauges"],
        "histograms": sections["histograms"],
        "artifacts": digested,
    }


def mask_row(row: dict[str, Any]) -> dict[str, Any]:
    """The row minus identity/timing/environment — the determinism view.

    Two runs of the same config must produce byte-identical masked rows
    (``json.dumps(..., sort_keys=True)``), serial or pooled.
    """
    return {k: v for k, v in row.items() if k not in MASKED_FIELDS}


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------
class LedgerStore:
    """Append-only JSONL segments under one directory.

    Segments roll over every :data:`SEGMENT_MAX_ROWS` rows so no single
    file grows unboundedly and old history stays cheap to ship around.
    Reads are tolerant: a corrupt line (torn write, manual edit) is
    skipped with a :class:`UserWarning` naming the file and line — one
    bad row must never take the history down with it.
    """

    def __init__(
        self,
        root: str | os.PathLike[str] = DEFAULT_LEDGER_ROOT,
        *,
        segment_max_rows: int = SEGMENT_MAX_ROWS,
    ) -> None:
        if segment_max_rows < 1:
            raise ObservabilityError(
                f"segment_max_rows must be >= 1, got {segment_max_rows}"
            )
        self.root = pathlib.Path(root)
        self.segment_max_rows = segment_max_rows

    def segments(self) -> list[pathlib.Path]:
        """Segment files, oldest first."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("segment-*.jsonl"))

    def _open_segment(self) -> pathlib.Path:
        segments = self.segments()
        if segments:
            last = segments[-1]
            with open(last, encoding="utf-8") as fh:
                n = sum(1 for _ in fh)
            if n < self.segment_max_rows:
                return last
            index = int(last.stem.split("-")[1]) + 1
        else:
            index = 0
        return self.root / f"segment-{index:06d}.jsonl"

    def append(self, row: dict[str, Any]) -> pathlib.Path:
        """Append one row; returns the segment it landed in."""
        self.root.mkdir(parents=True, exist_ok=True)
        segment = self._open_segment()
        with open(segment, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
        return segment

    def iter_rows(self) -> Iterator[dict[str, Any]]:
        """Every row, oldest first; corrupt lines skipped with a warning."""
        for segment in self.segments():
            with open(segment, encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, start=1):
                    if not line.strip():
                        continue
                    try:
                        row = json.loads(line)
                    except json.JSONDecodeError as exc:
                        warnings.warn(
                            f"{segment}:{lineno}: skipping corrupt ledger "
                            f"line ({exc})",
                            stacklevel=2,
                        )
                        continue
                    if not isinstance(row, dict) or "kind" not in row:
                        warnings.warn(
                            f"{segment}:{lineno}: skipping non-row object",
                            stacklevel=2,
                        )
                        continue
                    yield row

    def rows(self) -> list[dict[str, Any]]:
        return list(self.iter_rows())

    def resolve(self, ref: str) -> dict[str, Any]:
        """A row by reference: run-id prefix, ``latest`` or ``latest~N``.

        Raises :class:`~repro.errors.ObservabilityError` when the
        reference is malformed (``N`` must be a non-negative integer),
        matches no run or is ambiguous.
        """
        back = 0
        if ref.startswith("latest~"):
            offset = ref[len("latest~"):]
            if not offset.isdigit():
                raise ObservabilityError(
                    f"{ref!r}: the N in 'latest~N' must be a non-negative "
                    "integer"
                )
            back = int(offset)
        rows = self.rows()
        if not rows:
            raise ObservabilityError(f"ledger at {self.root} is empty")
        if ref == "latest" or ref.startswith("latest~"):
            if back >= len(rows):
                raise ObservabilityError(
                    f"{ref}: only {len(rows)} runs recorded"
                )
            return rows[-1 - back]
        matches = [
            r for r in rows if str(r.get("run_id", "")).startswith(ref)
        ]
        if not matches:
            raise ObservabilityError(f"no run matches {ref!r}")
        if len(matches) > 1:
            ids = ", ".join(str(r["run_id"]) for r in matches[:4])
            raise ObservabilityError(
                f"{ref!r} is ambiguous ({len(matches)} matches: {ids}...)"
            )
        return matches[0]


# ----------------------------------------------------------------------
# diffing
# ----------------------------------------------------------------------
def diff_sections(
    a: dict[str, dict[str, Any]], b: dict[str, dict[str, Any]]
) -> dict[str, dict[str, tuple[Any, Any]]]:
    """Per-section ``{key: (value_a, value_b)}`` for every differing key.

    Sections are ``counters``/``gauges``/``histograms``/``wall``-shaped
    flat mappings; a key missing on one side diffs against ``None``.
    """
    out: dict[str, dict[str, tuple[Any, Any]]] = {}
    for section in sorted(set(a) | set(b)):
        sa = a.get(section, {})
        sb = b.get(section, {})
        delta = {
            key: (sa.get(key), sb.get(key))
            for key in sorted(set(sa) | set(sb))
            if sa.get(key) != sb.get(key)
        }
        if delta:
            out[section] = delta
    return out


def diff_rows(a: dict[str, Any], b: dict[str, Any]) -> dict[str, Any]:
    """Config-aware diff of two ledger rows.

    ``semantic`` covers the masked view (counters, gauges, histograms,
    artifact digests, config) — any entry there breaks the determinism
    contract when the fingerprints match.  ``informational`` covers wall
    timings, which legitimately vary run to run.
    """
    fp_a = a.get("fingerprint")
    fp_b = b.get("fingerprint")
    semantic = diff_sections(
        {
            "config": _flatten(a.get("config", {})),
            "counters": a.get("counters", {}),
            "gauges": a.get("gauges", {}),
            "histograms": _flatten(a.get("histograms", {})),
            "artifacts": _artifact_digests(a),
        },
        {
            "config": _flatten(b.get("config", {})),
            "counters": b.get("counters", {}),
            "gauges": b.get("gauges", {}),
            "histograms": _flatten(b.get("histograms", {})),
            "artifacts": _artifact_digests(b),
        },
    )
    informational = diff_sections(
        {"wall": a.get("wall", {})}, {"wall": b.get("wall", {})}
    )
    return {
        "a": a.get("run_id"),
        "b": b.get("run_id"),
        "fingerprint_match": fp_a == fp_b,
        "semantic": semantic,
        "informational": informational,
    }


def _flatten(mapping: dict[str, Any], prefix: str = "") -> dict[str, Any]:
    """Nested dicts to dotted flat keys (lists compare as JSON text)."""
    flat: dict[str, Any] = {}
    for key, value in mapping.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{name}."))
        elif isinstance(value, (list, tuple)):
            flat[name] = json.dumps(list(value))
        else:
            flat[name] = value
    return flat


def _artifact_digests(row: dict[str, Any]) -> dict[str, Any]:
    return {
        name: meta.get("sha256")
        for name, meta in row.get("artifacts", {}).items()
    }


def diff_is_clean(diff: dict[str, Any]) -> bool:
    """True when the semantic (masked-view) diff is empty."""
    return not diff["semantic"]


def render_diff(
    diff: dict[str, Any], *, label_a: str = "a", label_b: str = "b"
) -> str:
    """Human-readable diff report (what ``decor runs diff`` prints)."""
    lines = [
        f"{label_a}: {diff.get('a')}",
        f"{label_b}: {diff.get('b')}",
        "fingerprint: "
        + ("match" if diff.get("fingerprint_match") else "DIFFERENT CONFIG"),
    ]
    if diff_is_clean(diff):
        lines.append("semantic: identical (masked rows match)")
    else:
        lines.append("semantic differences:")
        lines.extend(render_sections(diff["semantic"], label_a, label_b))
    info = diff.get("informational", {})
    if info:
        lines.append("informational (wall timings):")
        lines.extend(render_sections(info, label_a, label_b))
    return "\n".join(lines) + "\n"


def render_sections(
    sections: dict[str, dict[str, tuple[Any, Any]]],
    label_a: str,
    label_b: str,
) -> list[str]:
    out: list[str] = []
    for section, delta in sections.items():
        out.append(f"  [{section}]")
        for key, (va, vb) in delta.items():
            out.append(f"    {key}: {_fmt(va)} -> {_fmt(vb)}{_ratio(va, vb)}")
    return out


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return "absent" if value is None else str(value)


def _ratio(va: Any, vb: Any) -> str:
    if (
        isinstance(va, (int, float))
        and isinstance(vb, (int, float))
        and va
        and math.isfinite(va)
        and math.isfinite(vb)
    ):
        return f"  ({(vb - va) / va:+.1%})"
    return ""


# ----------------------------------------------------------------------
# regression detectors
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RegressOptions:
    """Knobs shared by the built-in detectors."""

    #: Relative tolerance for the counter/gauge multiset detector.
    tolerance: float = 0.1
    #: Relative tolerance for wall medians (walls are noisy).
    wall_tolerance: float = 0.5
    #: Counter-key prefixes held to strict equality.
    exact_prefixes: tuple[str, ...] = EXACT_COUNTER_PREFIXES
    #: Detector names to run (``None`` = all of :data:`DETECTORS`).
    detectors: tuple[str, ...] | None = None


@dataclass(frozen=True)
class RegressFinding:
    """One detector hit: which key drifted, how far, caught by whom."""

    detector: str
    key: str
    value: Any
    baseline: Any
    detail: str

    def format(self) -> str:
        return (
            f"[{self.detector}] {self.key}: {_fmt(self.value)} "
            f"vs baseline {_fmt(self.baseline)} — {self.detail}"
        )


Detector = Callable[
    [dict[str, Any], list[dict[str, Any]], RegressOptions],
    list[RegressFinding],
]

def _median_of(values: list[float]) -> float:
    return float(statistics.median(values))


def _detect_exact_counters(
    run: dict[str, Any],
    baseline: list[dict[str, Any]],
    options: RegressOptions,
) -> list[RegressFinding]:
    """Strict equality on determinism-relevant counters.

    Compares against the most recent baseline row: these series are
    bit-identity-gated elsewhere, so one changed value is a finding even
    with a single predecessor.
    """
    findings: list[RegressFinding] = []
    prev = baseline[-1]
    keys = set(run.get("counters", {})) | set(prev.get("counters", {}))
    for key in sorted(keys):
        if not key.startswith(options.exact_prefixes):
            continue
        now = run.get("counters", {}).get(key)
        was = prev.get("counters", {}).get(key)
        if now != was:
            findings.append(
                RegressFinding(
                    "exact-counters",
                    key,
                    now,
                    was,
                    "determinism-relevant counter must match exactly",
                )
            )
    return findings


def _detect_counter_drift(
    run: dict[str, Any],
    baseline: list[dict[str, Any]],
    options: RegressOptions,
) -> list[RegressFinding]:
    """Relative threshold on counter/gauge multisets vs baseline medians."""
    findings: list[RegressFinding] = []
    for section in ("counters", "gauges"):
        current = run.get(section, {})
        for key in sorted(current):
            if section == "counters" and key.startswith(
                options.exact_prefixes
            ):
                continue  # the exact detector owns these
            history = [
                r[section][key]
                for r in baseline
                if key in r.get(section, {})
            ]
            if not history:
                continue
            median = _median_of([float(v) for v in history])
            value = float(current[key])
            bound = options.tolerance * max(abs(median), 1.0)
            if abs(value - median) > bound:
                findings.append(
                    RegressFinding(
                        "counter-drift",
                        key,
                        current[key],
                        median,
                        f"moved more than {options.tolerance:.0%} from the "
                        f"median of {len(history)} matching run(s)",
                    )
                )
    return findings


def _detect_wall_regression(
    run: dict[str, Any],
    baseline: list[dict[str, Any]],
    options: RegressOptions,
) -> list[RegressFinding]:
    """Relative threshold on wall medians (slower only — a faster
    run is a win, not a regression)."""
    findings: list[RegressFinding] = []
    current = run.get("wall", {})
    for key in sorted(current):
        history = [
            float(r["wall"][key])
            for r in baseline
            if key in r.get("wall", {})
        ]
        if not history:
            continue
        median = _median_of(history)
        value = float(current[key])
        if value > median * (1.0 + options.wall_tolerance) + 0.05:
            findings.append(
                RegressFinding(
                    "wall-regression",
                    f"wall.{key}",
                    value,
                    median,
                    f"slower than {1.0 + options.wall_tolerance:g}x the "
                    f"median of {len(history)} matching run(s)",
                )
            )
    return findings


#: The regression detectors by name, in the order they run.
DETECTORS: Mapping[str, Detector] = MappingProxyType(
    {
        "exact-counters": _detect_exact_counters,
        "counter-drift": _detect_counter_drift,
        "wall-regression": _detect_wall_regression,
    }
)


def baseline_rows(
    rows: list[dict[str, Any]],
    run: dict[str, Any],
    *,
    window: int = 5,
) -> list[dict[str, Any]]:
    """Up to ``window`` config-matching predecessors of ``run``.

    Matching means same ``kind``, ``label`` and ``fingerprint``; rows at
    or after ``run`` itself (by position) are excluded.
    """
    run_id = run.get("run_id")
    out: list[dict[str, Any]] = []
    for row in rows:
        if row.get("run_id") == run_id:
            break
        if (
            row.get("kind") == run.get("kind")
            and row.get("label") == run.get("label")
            and row.get("fingerprint") == run.get("fingerprint")
        ):
            out.append(row)
    return out[-window:]


def run_detectors(
    run: dict[str, Any],
    baseline: list[dict[str, Any]],
    options: RegressOptions | None = None,
) -> list[RegressFinding]:
    """Apply the detectors; an empty baseline finds nothing."""
    opts = options or RegressOptions()
    if not baseline:
        return []
    names = opts.detectors if opts.detectors is not None else tuple(DETECTORS)
    findings: list[RegressFinding] = []
    for name in names:
        try:
            detector = DETECTORS[name]
        except KeyError as exc:
            raise ObservabilityError(
                f"unknown detector {name!r}; known: {sorted(DETECTORS)}"
            ) from exc
        findings.extend(detector(run, baseline, opts))
    return findings

"""Cross-method summary table and trace digests.

The paper presents its evaluation as eight figures; operators want the
bottom line per method at their chosen ``k``.  :func:`method_summary`
collapses the figure suite into one row per method: deployment size,
waste, communication, failure tolerance, and disaster-repair cost —
all seed-averaged from the same cached deployments the figures use.

:func:`summarize_trace` plays the same role for the observability layer:
it collapses a JSON-lines trace (or a live
:class:`~repro.obs.Tracer`) into per-span-name timing totals, rendered by
:meth:`TraceSummary.format`.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.survival import max_tolerable_failure_fraction
from repro.core.redundancy import redundancy_fraction
from repro.core.restoration import restore
from repro.experiments.figures import _disaster
from repro.experiments.runner import DeploymentCache
from repro.experiments.setup import SERIES, ExperimentSetup
from repro.errors import ExperimentError
from repro.obs.trace import SpanStats, Tracer

__all__ = [
    "MethodSummary",
    "method_summary",
    "format_summary_table",
    "SpanStats",
    "TraceSummary",
    "summarize_trace",
]


@dataclass(frozen=True)
class MethodSummary:
    """One method's seed-averaged bottom line at a fixed k."""

    series: str
    k: int
    nodes: float
    redundancy_pct: float
    messages_per_cell: float
    messages_per_node: float
    max_failures_pct: float
    disaster_repair_nodes: float

    def as_row(self) -> dict:
        return {
            "series": self.series,
            "k": self.k,
            "nodes": round(self.nodes, 1),
            "redundancy_pct": round(self.redundancy_pct, 1),
            "messages_per_cell": round(self.messages_per_cell, 1),
            "messages_per_node": round(self.messages_per_node, 1),
            "max_failures_pct": round(self.max_failures_pct, 1),
            "disaster_repair_nodes": round(self.disaster_repair_nodes, 1),
        }


def method_summary(
    setup: ExperimentSetup,
    k: int,
    cache: DeploymentCache | None = None,
) -> list[MethodSummary]:
    """Summarise every series at coverage requirement ``k``."""
    if k not in setup.k_values:
        raise ExperimentError(
            f"k={k} not in the setup's k_values {setup.k_values}"
        )
    cache = cache if cache is not None else DeploymentCache(setup)
    out: list[MethodSummary] = []
    for series in SERIES:
        nodes, red, mpc, mpn, tol, repair_nodes = [], [], [], [], [], []
        for seed in range(setup.n_seeds):
            result = cache.get(series, k, seed)
            nodes.append(result.total_alive)
            red.append(100.0 * redundancy_fraction(result.coverage, k))
            if result.messages is not None:
                mpc.append(result.messages.mean_per_cell)
                mpn.append(result.messages.mean_per_node_with_rotation)
            rng = np.random.default_rng(70_000 + seed)
            tol.append(
                100.0 * max_tolerable_failure_fraction(result.coverage, rng, k=1)
            )
            event = _disaster(setup, result)
            report = restore(
                cache.field(seed),
                setup.spec_for(series),
                result,
                event,
                k,
                series.method,
                region=setup.region,
                rng=np.random.default_rng(80_000 + seed),
                cell_size=setup.cell_size_for(series),
            )
            repair_nodes.append(report.extra_nodes)
        out.append(
            MethodSummary(
                series=series.name,
                k=k,
                nodes=float(np.mean(nodes)),
                redundancy_pct=float(np.mean(red)),
                messages_per_cell=float(np.mean(mpc)) if mpc else float("nan"),
                messages_per_node=float(np.mean(mpn)) if mpn else float("nan"),
                max_failures_pct=float(np.mean(tol)),
                disaster_repair_nodes=float(np.mean(repair_nodes)),
            )
        )
    return out


def format_summary_table(rows: list[MethodSummary]) -> str:
    """Aligned text rendering of :func:`method_summary` output."""
    if not rows:
        raise ExperimentError("no summary rows")
    headers = [
        "series", "nodes", "redundant%", "msgs/cell", "msgs/node",
        "tolerates%", "repair nodes",
    ]
    table: list[list[str]] = []
    for r in rows:
        table.append([
            r.series,
            f"{r.nodes:.0f}",
            f"{r.redundancy_pct:.1f}",
            "-" if np.isnan(r.messages_per_cell) else f"{r.messages_per_cell:.1f}",
            "-" if np.isnan(r.messages_per_node) else f"{r.messages_per_node:.1f}",
            f"{r.max_failures_pct:.0f}",
            f"{r.disaster_repair_nodes:.0f}",
        ])
    widths = [
        max(len(headers[c]), *(len(row[c]) for row in table))
        for c in range(len(headers))
    ]
    lines = [
        f"Method summary at k = {rows[0].k} "
        f"(tolerates% keeps 1-coverage of >= 90% of the area)",
        "  ".join(h.rjust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in table:
        lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# trace digests
# ----------------------------------------------------------------------
@dataclass
class TraceSummary:
    """Per-span-name digest of one trace.

    Attributes
    ----------
    spans:
        ``name -> SpanStats`` (count/total/mean/max seconds).
    max_depth:
        Deepest span nesting observed (0-based; a lone span has depth 0).
    n_records / dropped:
        Records summarised, and records the ring buffer evicted before
        export.  Summarising a live :class:`~repro.obs.Tracer` takes its
        per-name span totals, which count evicted spans too; a trace file
        holds only what survived.
    """

    spans: dict[str, SpanStats] = field(default_factory=dict)
    max_depth: int = 0
    n_records: int = 0
    dropped: int = 0

    def format(self) -> str:
        """Aligned text rendering, slowest span names first."""
        lines = [
            f"Trace summary: {self.n_records} records "
            f"({sum(s.count for s in self.spans.values())} spans, "
            f"max depth {self.max_depth}"
            + (f", {self.dropped} dropped" if self.dropped else "")
            + ")"
        ]
        if self.spans:
            headers = ["span", "count", "total s", "mean s", "max s"]
            rows = [
                [s.name, str(s.count), f"{s.total:.4f}",
                 f"{s.mean:.6f}", f"{s.max:.6f}"]
                for s in sorted(
                    self.spans.values(), key=lambda s: -s.total
                )
            ]
            widths = [
                max(len(headers[c]), *(len(r[c]) for r in rows))
                for c in range(len(headers))
            ]
            lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
            lines.append("  ".join("-" * w for w in widths))
            for r in rows:
                lines.append("  ".join(v.rjust(w) for v, w in zip(r, widths)))
        return "\n".join(lines)


def summarize_trace(source) -> TraceSummary:
    """Digest a trace into per-name span timings.

    Parameters
    ----------
    source:
        A :class:`~repro.obs.Tracer`, an iterable of record dicts, or a
        path to a JSON-lines trace file written by ``--trace`` /
        :meth:`~repro.obs.Tracer.write_jsonl`.
    """
    live = isinstance(source, Tracer)
    if live:
        records = source.records()
    elif isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
    else:
        records = list(source)

    summary = TraceSummary(dropped=source.dropped if live else 0)
    if live:
        summary.spans = {
            name: copy.copy(stats) for name, stats in source.span_stats.items()
        }
    for rec in records:
        kind = rec.get("type")
        if kind != "span":
            raise ExperimentError(
                f"unrecognised trace record type {kind!r}; expected a trace "
                "written by repro.obs (span records)"
            )
        summary.n_records += 1
        name = str(rec.get("name", "?"))
        if not live:
            summary.spans.setdefault(name, SpanStats(name)).add(
                float(rec.get("dur", 0.0))
            )
        summary.max_depth = max(summary.max_depth, int(rec.get("depth", 0)))
    return summary

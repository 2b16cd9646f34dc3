"""Text rendering of figure results.

The paper presents Figures 7-14 as plots; the reproduction prints the same
series as aligned tables (rows = x values, columns = series), which is what
the benchmark harness and ``decor figure N`` emit.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ExperimentError
from repro.experiments.figures import FigureResult
from repro.field.csr import sorted_unique

__all__ = ["format_figure_table"]


def _fmt(value: float) -> str:
    if np.isnan(value):
        return "-"
    if float(value).is_integer() and abs(value) < 1e6:
        return f"{int(value)}"
    return f"{value:.1f}"


def format_figure_table(result: FigureResult, *, max_rows: int = 25) -> str:
    """Render a :class:`FigureResult` as an aligned text table.

    Series may have different x grids (Figure 7 shares one; the k-sweep
    figures always do); the union of x values indexes the rows, with ``-``
    where a series has no sample.
    """
    if not result.series:
        raise ExperimentError(f"{result.figure_id} has no series")
    names = result.series_names()
    xs_union = sorted_unique(np.concatenate([x for x, _ in result.series.values()]))
    if xs_union.size > max_rows:
        take = sorted_unique(
            np.linspace(0, xs_union.size - 1, max_rows).astype(int)
        )
        xs_union = xs_union[take]

    header = [result.xlabel] + names
    rows: list[list[str]] = []
    for x in xs_union:
        row = [_fmt(float(x))]
        for name in names:
            xv, yv = result.series[name]
            hit = np.nonzero(np.isclose(xv, x))[0]
            row.append(_fmt(float(yv[hit[0]])) if hit.size else "-")
        rows.append(row)

    widths = [
        max(len(header[c]), *(len(r[c]) for r in rows)) for c in range(len(header))
    ]
    lines = [
        f"{result.figure_id}: {result.title}",
        f"(y = {result.ylabel})",
        "  ".join(h.rjust(w) for h, w in zip(header, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for r in rows:
        lines.append("  ".join(v.rjust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)

"""The paper's evaluation (§4) as runnable, parameterised experiments.

* :class:`~repro.experiments.setup.ExperimentSetup` — the §4 constants
  (100x100 field, 2000 Halton points, rs = 4, 5x5 / 10x10 cells, rc = 8 /
  10·sqrt(2), 200 initial nodes, 5 seeds) plus a laptop-scale ``smoke``
  variant used by tests and default benchmarks.
* :data:`~repro.experiments.setup.SERIES` — the six method series every
  figure compares.
* :mod:`~repro.experiments.runner` — seed-averaged series execution with a
  per-process deployment cache (several figures reuse the same
  deployments).
* :mod:`~repro.experiments.figures` — ``fig07`` ... ``fig14``, one function
  per figure of the paper, each returning a :class:`FigureResult`.
* :mod:`~repro.experiments.tables` — aligned text rendering of results.
* :mod:`~repro.experiments.recording` — JSON/CSV persistence.
"""

from repro.experiments.setup import ExperimentSetup, Series, SERIES, series_by_name
from repro.experiments.runner import (
    DeploymentCache,
    field_model_for_seed,
    run_series,
)
from repro.experiments.figures import (
    FigureResult,
    fig07_coverage_vs_nodes,
    fig08_nodes_vs_k,
    fig09_redundancy,
    fig10_messages,
    fig11_random_failures,
    fig12_max_failures,
    fig13_area_failure,
    fig14_restoration,
    FIGURES,
)
from repro.experiments.epochs import FAILURE_SCHEDULE, epoch_failure
from repro.experiments.availability import (
    AvailabilityConfig,
    AvailabilityReport,
    simulate_availability,
)
from repro.experiments.summary import (
    MethodSummary,
    format_summary_table,
    method_summary,
)
from repro.experiments.tables import format_figure_table
from repro.experiments.recording import (
    figure_to_json,
    figure_from_json,
    figure_to_csv,
    figure_from_csv,
)
from repro.experiments.summary import SpanStats, TraceSummary, summarize_trace

__all__ = [
    "ExperimentSetup",
    "Series",
    "SERIES",
    "series_by_name",
    "DeploymentCache",
    "field_model_for_seed",
    "run_series",
    "FigureResult",
    "fig07_coverage_vs_nodes",
    "fig08_nodes_vs_k",
    "fig09_redundancy",
    "fig10_messages",
    "fig11_random_failures",
    "fig12_max_failures",
    "fig13_area_failure",
    "fig14_restoration",
    "FIGURES",
    "FAILURE_SCHEDULE",
    "epoch_failure",
    "AvailabilityConfig",
    "AvailabilityReport",
    "simulate_availability",
    "MethodSummary",
    "method_summary",
    "format_summary_table",
    "format_figure_table",
    "figure_to_json",
    "figure_from_json",
    "figure_to_csv",
    "figure_from_csv",
    "SpanStats",
    "TraceSummary",
    "summarize_trace",
]

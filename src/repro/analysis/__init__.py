"""Analytic models, reports and charts for the evaluation.

:mod:`repro.analysis.complexity` encodes the Θ-expressions of the paper's
Table 1 so the complexity benchmark can compare measured flops against the
model; :mod:`repro.analysis.report` builds the per-run ``RunReport``, whose
compression and rank sections come from the factor's own count
(:meth:`repro.core.factor.NumericFactor.census`).
"""

from repro.analysis.complexity import (
    gemm_cost,
    lr2ge_cost,
    lr2lr_cost_rrqr,
    lr2lr_cost_svd,
    solver_flop_model,
)
from repro.analysis.charts import gantt_chart
from repro.analysis.report import (
    build_run_report,
    load_run_report,
    render_figures,
    render_markdown,
    save_run_report,
)
from repro.analysis.visualize import (
    structure_stats_table,
    structure_to_ascii,
    structure_to_svg,
)

__all__ = [
    "gemm_cost",
    "lr2ge_cost",
    "lr2lr_cost_rrqr",
    "lr2lr_cost_svd",
    "solver_flop_model",
    "structure_stats_table",
    "structure_to_ascii",
    "structure_to_svg",
    "gantt_chart",
    "build_run_report",
    "load_run_report",
    "render_figures",
    "render_markdown",
    "save_run_report",
]

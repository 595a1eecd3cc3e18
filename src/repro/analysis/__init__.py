"""Reporting utilities: tables, ASCII heat maps, paper comparisons."""

from repro.analysis.tables import format_table, format_figure5, format_table5
from repro.analysis.heatmap import ascii_heatmap
from repro.analysis.campaign import render_campaign_report
from repro.analysis.compare import RENDERERS, ComparisonRow, compare_to_paper
from repro.analysis.coupled import (
    format_epoch_trace,
    format_policy_comparison,
    format_spike_report,
    pareto_front,
)
from repro.analysis.figures import (
    SvgCanvas,
    render_all_figures,
    render_figure3,
    render_figure5,
    render_grouped_bars,
    render_lines,
    render_paper_comparison_bars,
)

__all__ = [
    "format_table",
    "format_figure5",
    "format_table5",
    "ascii_heatmap",
    "render_campaign_report",
    "RENDERERS",
    "ComparisonRow",
    "compare_to_paper",
    "format_epoch_trace",
    "format_policy_comparison",
    "format_spike_report",
    "pareto_front",
    "SvgCanvas",
    "render_all_figures",
    "render_figure3",
    "render_figure5",
    "render_grouped_bars",
    "render_lines",
    "render_paper_comparison_bars",
]

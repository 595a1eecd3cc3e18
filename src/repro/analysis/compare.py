"""Paper-vs-measured comparison rendering.

Puts every measured number next to its published counterpart with a
deviation, and maps each registered experiment id to the renderer that
``repro run`` prints its result through (:data:`RENDERERS`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Union

from repro.analysis.coupled import (
    format_epoch_trace,
    format_policy_comparison,
    format_spike_report,
)
from repro.analysis.tables import format_figure5, format_table5

Number = Union[int, float]


@dataclass(frozen=True)
class ComparisonRow:
    """One compared quantity.

    Attributes:
        name: Quantity label.
        paper: Published value (None if the paper gives only a shape).
        measured: Our value.
        unit: Display unit.
    """

    name: str
    paper: Optional[Number]
    measured: Number
    unit: str = ""

    @property
    def deviation_pct(self) -> Optional[float]:
        """Relative deviation from the paper value, percent."""
        if self.paper is None or self.paper == 0:
            return None
        return 100.0 * (self.measured - self.paper) / abs(self.paper)

    def render(self) -> str:
        paper = "-" if self.paper is None else f"{self.paper:.2f}"
        deviation = self.deviation_pct
        dev = "" if deviation is None else f"  ({deviation:+.1f}%)"
        unit = f" {self.unit}" if self.unit else ""
        return (
            f"{self.name:32} paper {paper:>8}{unit:6} "
            f"measured {self.measured:8.2f}{unit}{dev}"
        )


def compare_to_paper(
    paper: Mapping[str, Number],
    measured: Mapping[str, Number],
    unit: str = "",
    title: Optional[str] = None,
) -> str:
    """Render aligned paper-vs-measured rows for matching keys."""
    rows: List[str] = []
    if title:
        rows.append(title)
    for key, paper_value in paper.items():
        if key not in measured:
            continue
        rows.append(
            ComparisonRow(
                name=key,
                paper=float(paper_value),
                measured=float(measured[key]),
                unit=unit,
            ).render()
        )
    return "\n".join(rows)


Result = Mapping[str, Any]
Renderer = Callable[[Result, Result], str]


def _table4(result: Result, paper: Result) -> str:
    """Table 4 rows plus the totals, labelled with the result's keys."""
    renamed = {"total": "total_gain_pct",
               "stages_eliminated": "stages_eliminated_pct"}
    measured = dict(result["per_row_gains_pct"])
    measured.update({key: result[key] for key in renamed.values()})
    return compare_to_paper(
        {renamed.get(key, key): value for key, value in paper.items()},
        measured, unit="%",
    )


def _thermal(result: Result, paper: Result) -> str:
    return compare_to_paper(paper, result, unit="C")


#: Experiment id -> ``renderer(result, paper_values)``.  Ids without an
#: entry have no renderer; ``repro run`` prints their result as JSON.
RENDERERS: Dict[str, Renderer] = {
    "figure-5": lambda result, paper: (
        format_figure5(result["cpma"], result["bandwidth"])
        + "\n\n" + compare_to_paper(paper, result)
    ),
    "figure-6": _thermal,
    "figure-8": _thermal,
    "figure-11": _thermal,
    "table-4": _table4,
    "table-5": lambda result, paper: format_table5(result["rows"]),
    "table5_dynamic": lambda result, paper: (
        format_epoch_trace(result)
        + "\n\n" + compare_to_paper(paper, result["converged"])
    ),
    "dtm_load_spike": lambda result, paper: format_spike_report(result),
    "dtm_policy_compare": lambda result, paper: (
        format_policy_comparison(result["policies"])
    ),
    "headlines": lambda result, paper: compare_to_paper(paper, result, unit="%"),
}

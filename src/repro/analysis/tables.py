"""Plain-text table rendering for experiment results."""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: Optional[str] = None,
    float_format: str = "{:.2f}",
) -> str:
    """Render a simple aligned text table.

    Floats are formatted with *float_format*; everything else with str().
    """
    def cell(value: Any) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    text_rows = [[cell(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in text_rows))
        if text_rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(row[i].rjust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)


def format_figure5(
    cpma: Mapping[str, Mapping[str, float]],
    bandwidth: Mapping[str, Mapping[str, float]],
    config_names: Sequence[str] = ("2D 4MB", "3D 12MB", "3D 32MB", "3D 64MB"),
) -> str:
    """Render the Figure 5 sweep: CPMA and BW per workload and capacity."""
    headers = ["workload"]
    headers += [f"CPMA {name}" for name in config_names]
    headers += [f"BW {name}" for name in config_names]
    rows = []
    for workload in cpma:
        row: List[Any] = [workload]
        row += [cpma[workload][name] for name in config_names]
        row += [bandwidth[workload][name] for name in config_names]
        rows.append(row)
    # Average row, as in the figure's "Avg" group.
    avg: List[Any] = ["Avg"]
    n = len(cpma)
    for name in config_names:
        avg.append(sum(cpma[w][name] for w in cpma) / n)
    for name in config_names:
        avg.append(sum(bandwidth[w][name] for w in bandwidth) / n)
    rows.append(avg)
    return format_table(
        headers, rows,
        title="Figure 5: CPMA and off-die bandwidth (GB/s) vs capacity",
    )


def format_table5(rows: Sequence[Mapping[str, Any]]) -> str:
    """Render Table 5 rows (dicts with name/vcc/freq/power/perf/temp)."""
    headers = ["", "Pwr (W)", "Pwr %", "Temp (C)", "Perf %", "Vcc", "Freq"]
    body = []
    for row in rows:
        temp = row.get("temp_c")
        body.append(
            [
                row["name"],
                row["power_w"],
                row["power_pct"],
                temp if temp is not None else "-",
                row["perf_pct"],
                row["vcc"],
                row["freq"],
            ]
        )
    return format_table(
        headers, body,
        title="Table 5: frequency and voltage scaling of the 3D floorplan",
    )

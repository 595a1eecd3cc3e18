"""SVG renderings of the paper's figures.

Dependency-free SVG generation for the regenerated evaluation artifacts:
Figure 3 (conductivity sensitivity curves), Figure 5 (CPMA and off-die
bandwidth panels), and the Figure 8/11 peak-temperature bars with the
published values alongside.

Styling follows a validated categorical palette (fixed slot order —
ordering is the colour-vision-safety mechanism), thin marks with rounded
data ends, one value axis per panel (bandwidth gets its own panel rather
than a second y-axis), recessive grid, and text in ink colours rather
than series colours.  Every mark carries a ``<title>`` so browsers show
a value tooltip.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union
from xml.sax.saxutils import escape

#: Validated categorical palette, fixed slot order (light mode).
SERIES_COLORS = ["#2a78d6", "#1baf7a", "#eda100", "#008300",
                 "#4a3aa7", "#e34948"]
SURFACE = "#fcfcfb"
INK_PRIMARY = "#0b0b0b"
INK_SECONDARY = "#52514e"
GRID = "#e4e3df"


class SvgCanvas:
    """A minimal SVG document builder."""

    def __init__(self, width: int, height: int) -> None:
        if width <= 0 or height <= 0:
            raise ValueError("canvas must have positive dimensions")
        self.width = width
        self.height = height
        self._parts: List[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}" '
            f'font-family="Helvetica, Arial, sans-serif">',
            f'<rect width="{width}" height="{height}" fill="{SURFACE}"/>',
        ]

    def rect(self, x: float, y: float, w: float, h: float, fill: str,
             rx: float = 0.0, title: Optional[str] = None) -> None:
        tooltip = f"<title>{escape(title)}</title>" if title else ""
        self._parts.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{w:.1f}" '
            f'height="{h:.1f}" rx="{rx:.1f}" fill="{fill}">{tooltip}</rect>'
        )

    def line(self, x1: float, y1: float, x2: float, y2: float,
             stroke: str, width: float = 1.0, dash: str = "") -> None:
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self._parts.append(
            f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" '
            f'y2="{y2:.1f}" stroke="{stroke}" '
            f'stroke-width="{width}"{dash_attr}/>'
        )

    def polyline(self, points: Sequence[Sequence[float]], stroke: str,
                 width: float = 2.0) -> None:
        coords = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
        self._parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width}" stroke-linejoin="round"/>'
        )

    def circle(self, x: float, y: float, r: float, fill: str,
               title: Optional[str] = None) -> None:
        tooltip = f"<title>{escape(title)}</title>" if title else ""
        self._parts.append(
            f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{r:.1f}" '
            f'fill="{fill}" stroke="{SURFACE}" stroke-width="2">'
            f"{tooltip}</circle>"
        )

    def text(self, x: float, y: float, content: str, size: int = 11,
             fill: str = INK_PRIMARY, anchor: str = "start",
             rotate: Optional[float] = None) -> None:
        transform = (
            f' transform="rotate({rotate:.0f} {x:.1f} {y:.1f})"'
            if rotate is not None
            else ""
        )
        self._parts.append(
            f'<text x="{x:.1f}" y="{y:.1f}" font-size="{size}" '
            f'fill="{fill}" text-anchor="{anchor}"{transform}>'
            f"{escape(content)}</text>"
        )

    def to_string(self) -> str:
        return "\n".join(self._parts + ["</svg>"])

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.to_string())
        return path


def _nice_ceiling(value: float) -> float:
    """A pleasant axis maximum at or above *value*."""
    if value <= 0:
        return 1.0
    magnitude = 10 ** len(str(int(value))) / 10
    for factor in (1, 2, 2.5, 5, 10):
        if value <= factor * magnitude:
            return factor * magnitude
    return 10 * magnitude


def _value_axis(canvas: SvgCanvas, x0: float, y0: float, y1: float,
                vmax: float, label: str, ticks: int = 4) -> None:
    """Left value axis with a recessive grid across to the right edge."""
    for i in range(ticks + 1):
        value = vmax * i / ticks
        y = y1 - (y1 - y0) * i / ticks
        canvas.line(x0, y, canvas.width - 16, y, GRID, 1.0)
        canvas.text(x0 - 6, y + 4, f"{value:g}", size=10,
                    fill=INK_SECONDARY, anchor="end")
    canvas.text(14, (y0 + y1) / 2, label, size=11, fill=INK_SECONDARY,
                anchor="middle", rotate=-90)


def render_grouped_bars(
    groups: Mapping[str, Mapping[str, float]],
    series_names: Sequence[str],
    title: str,
    value_label: str,
    path: Union[str, Path],
    width: int = 960,
    height: int = 360,
) -> Path:
    """A grouped bar panel: one group per key, one bar per series.

    Bars use the fixed categorical slot order with a 2px surface gap and
    rounded data ends; a legend row names the series.
    """
    if not groups:
        raise ValueError("no groups to render")
    canvas = SvgCanvas(width, height)
    margin_left, margin_top, margin_bottom = 56, 52, 44
    plot_w = width - margin_left - 24
    plot_h = height - margin_top - margin_bottom
    y_base = margin_top + plot_h

    vmax = _nice_ceiling(
        max(row[name] for row in groups.values() for name in series_names)
    )
    canvas.text(margin_left, 22, title, size=14)
    _value_axis(canvas, margin_left, margin_top, y_base, vmax, value_label)

    n_groups = len(groups)
    n_series = len(series_names)
    group_w = plot_w / n_groups
    bar_w = max(3.0, (group_w - 14) / n_series - 2)

    for g_index, (group, row) in enumerate(groups.items()):
        gx = margin_left + g_index * group_w + 7
        for s_index, name in enumerate(series_names):
            value = row[name]
            h = (value / vmax) * plot_h if vmax else 0.0
            x = gx + s_index * (bar_w + 2)
            canvas.rect(
                x, y_base - h, bar_w, h,
                SERIES_COLORS[s_index % len(SERIES_COLORS)], rx=2.0,
                title=f"{group} — {name}: {value:.2f}",
            )
        canvas.text(gx + (group_w - 14) / 2, y_base + 16, group, size=10,
                    fill=INK_SECONDARY, anchor="middle")
    canvas.line(margin_left, y_base, margin_left + plot_w, y_base,
                INK_SECONDARY, 1.0)

    # Legend row (identity never by colour alone: swatch + name).
    lx = margin_left
    ly = height - 12
    for s_index, name in enumerate(series_names):
        canvas.rect(lx, ly - 9, 10, 10,
                    SERIES_COLORS[s_index % len(SERIES_COLORS)], rx=2.0)
        canvas.text(lx + 14, ly, name, size=10, fill=INK_SECONDARY)
        lx += 14 + 7 * len(name) + 22
    return canvas.save(path)


def render_lines(
    curves: Mapping[str, Mapping[float, float]],
    title: str,
    x_label: str,
    value_label: str,
    path: Union[str, Path],
    width: int = 760,
    height: int = 420,
) -> Path:
    """A line panel: one series per curve, markers on every point,
    direct labels at the line ends plus a legend."""
    if not curves:
        raise ValueError("no curves to render")
    canvas = SvgCanvas(width, height)
    margin_left, margin_top, margin_bottom = 60, 52, 56
    plot_w = width - margin_left - 120
    plot_h = height - margin_top - margin_bottom
    y_base = margin_top + plot_h

    xs = sorted({x for curve in curves.values() for x in curve})
    all_values = [v for curve in curves.values() for v in curve.values()]
    vmin = min(all_values)
    vmax = max(all_values)
    pad = max((vmax - vmin) * 0.15, 0.5)
    vmin -= pad
    vmax += pad

    def sx(x: float) -> float:
        span = xs[-1] - xs[0] or 1.0
        return margin_left + (x - xs[0]) / span * plot_w

    def sy(v: float) -> float:
        return y_base - (v - vmin) / (vmax - vmin) * plot_h

    canvas.text(margin_left, 22, title, size=14)
    for i in range(5):
        v = vmin + (vmax - vmin) * i / 4
        canvas.line(margin_left, sy(v), margin_left + plot_w, sy(v), GRID)
        canvas.text(margin_left - 6, sy(v) + 4, f"{v:.0f}", size=10,
                    fill=INK_SECONDARY, anchor="end")
    for x in xs:
        canvas.text(sx(x), y_base + 16, f"{x:g}", size=10,
                    fill=INK_SECONDARY, anchor="middle")
    canvas.text(margin_left + plot_w / 2, height - 14, x_label, size=11,
                fill=INK_SECONDARY, anchor="middle")
    canvas.text(16, (margin_top + y_base) / 2, value_label, size=11,
                fill=INK_SECONDARY, anchor="middle", rotate=-90)

    for index, (name, curve) in enumerate(curves.items()):
        color = SERIES_COLORS[index % len(SERIES_COLORS)]
        points = [(sx(x), sy(curve[x])) for x in sorted(curve)]
        canvas.polyline(points, color, 2.0)
        for x in sorted(curve):
            canvas.circle(sx(x), sy(curve[x]), 4.0, color,
                          title=f"{name} @ {x:g}: {curve[x]:.2f}")
        end_x, end_y = points[-1]
        canvas.text(end_x + 10, end_y + 4, name, size=11,
                    fill=INK_PRIMARY)
    return canvas.save(path)


def render_paper_comparison_bars(
    measured: Mapping[str, float],
    paper: Mapping[str, float],
    title: str,
    value_label: str,
    path: Union[str, Path],
    width: int = 640,
    height: int = 360,
) -> Path:
    """Measured-vs-paper paired bars (Figures 8a and 11)."""
    groups: Dict[str, Dict[str, float]] = {}
    for name, value in measured.items():
        groups[name] = {"measured": value}
        if name in paper:
            groups[name]["paper"] = paper[name]
    return render_grouped_bars(
        groups, ["measured", "paper"], title, value_label, path,
        width=width, height=height,
    )


def render_figure3(
    result: Mapping[str, Mapping[float, float]], path: Union[str, Path]
) -> Path:
    """Figure 3: peak temperature vs layer thermal conductivity."""
    curves = {
        "Cu metal layers": dict(result["cu_metal"]),
        "Bonding layer": dict(result["bond"]),
    }
    return render_lines(
        curves,
        "Figure 3: heat dissipation sensitivity",
        "thermal conductivity (W/mK)",
        "peak temperature (C)",
        path,
    )


def render_figure5(
    cpma: Mapping[str, Mapping[str, float]],
    bandwidth: Mapping[str, Mapping[str, float]],
    cpma_path: Union[str, Path],
    bandwidth_path: Union[str, Path],
) -> List[Path]:
    """Figure 5 as two single-axis panels (CPMA bars; bandwidth bars).

    The paper overlays bandwidth on a secondary axis; two aligned panels
    carry the same content with one scale each.
    """
    config_names = ["2D 4MB", "3D 12MB", "3D 32MB", "3D 64MB"]
    return [
        render_grouped_bars(
            cpma, config_names,
            "Figure 5 (panel 1): cycles per memory access",
            "CPMA", cpma_path,
        ),
        render_grouped_bars(
            bandwidth, config_names,
            "Figure 5 (panel 2): off-die bandwidth",
            "GB/s", bandwidth_path,
        ),
    ]


def render_all_figures(
    out_dir: Union[str, Path],
    scale: int = 16,
    length_factor: float = 0.5,
    nx: int = 40,
    workloads: Optional[List[str]] = None,
) -> List[Path]:
    """Regenerate every renderable figure into *out_dir*.

    Runs the underlying experiments at reduced size (see the arguments)
    and writes ``figure3.svg``, ``figure5_cpma.svg``, ``figure5_bw.svg``,
    ``figure8.svg``, and ``figure11.svg``.
    """
    from repro.core.experiments import get_experiment

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []

    fig3 = get_experiment("figure-3").run(nx=nx)
    written.append(render_figure3(fig3, out / "figure3.svg"))

    memory = get_experiment("figure-5").run(
        workloads=workloads, scale=scale, length_factor=length_factor
    )
    written.extend(
        render_figure5(
            memory["cpma"], memory["bandwidth"],
            out / "figure5_cpma.svg", out / "figure5_bw.svg",
        )
    )

    for experiment_id, title, name in (
        ("figure-8", "Figure 8a: peak temperature by configuration",
         "figure8.svg"),
        ("figure-11", "Figure 11: Logic+Logic peak temperature",
         "figure11.svg"),
    ):
        experiment = get_experiment(experiment_id)
        written.append(
            render_paper_comparison_bars(
                experiment.run(nx=nx), experiment.paper_values, title,
                "peak C", out / name,
            )
        )
    return written

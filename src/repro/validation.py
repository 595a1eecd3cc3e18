"""Acceptance harness: run every experiment and grade it against the paper.

Produces the machine-readable counterpart of EXPERIMENTS.md: one
:class:`Check` per compared quantity, each graded ``pass`` (within
tolerance), ``shape`` (ordering/direction reproduced but the absolute
value deviates — acceptable per DESIGN.md's reproduction contract), or
``fail``.  Driven by ``python -m repro validate`` and by the integration
test suite.  Published numbers come from the experiment registry's
``paper_values``; the tolerances live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.experiments import get_experiment
from repro.thermal.solver import SolverConfig

PASS = "pass"
SHAPE = "shape"
FAIL = "fail"


@dataclass(frozen=True)
class Check:
    """One graded quantity.

    Attributes:
        experiment: Paper artifact id (e.g. ``figure-8``).
        name: Quantity label.
        paper: Published value (None for pure-shape checks).
        measured: Our value.
        grade: ``pass`` / ``shape`` / ``fail``.
        note: Human-readable context.
    """

    experiment: str
    name: str
    paper: Optional[float]
    measured: float
    grade: str
    note: str = ""

    def render(self) -> str:
        paper = "-" if self.paper is None else f"{self.paper:8.2f}"
        marker = {PASS: "PASS ", SHAPE: "SHAPE", FAIL: "FAIL "}[self.grade]
        note = f"  ({self.note})" if self.note else ""
        return (
            f"[{marker}] {self.experiment:10} {self.name:38} "
            f"paper {paper}  measured {self.measured:8.2f}{note}"
        )


@dataclass
class ValidationReport:
    """All checks from one validation run."""

    checks: List[Check] = field(default_factory=list)

    def add(self, check: Check) -> None:
        self.checks.append(check)

    @property
    def failures(self) -> List[Check]:
        return [c for c in self.checks if c.grade == FAIL]

    @property
    def counts(self) -> Dict[str, int]:
        counts = {PASS: 0, SHAPE: 0, FAIL: 0}
        for check in self.checks:
            counts[check.grade] += 1
        return counts

    def render(self) -> str:
        lines = [check.render() for check in self.checks]
        counts = self.counts
        lines.append(
            f"\n{counts[PASS]} pass, {counts[SHAPE]} shape-only, "
            f"{counts[FAIL]} fail over {len(self.checks)} checks"
        )
        return "\n".join(lines)


def _grade(
    report: ValidationReport,
    experiment: str,
    name: str,
    paper: float,
    measured: float,
    abs_tol: float,
    shape_ok: bool = True,
    note: str = "",
) -> None:
    """Grade one quantity: within tolerance -> pass; else shape/fail."""
    if abs(measured - paper) <= abs_tol:
        grade = PASS
    elif shape_ok:
        grade = SHAPE
    else:
        grade = FAIL
    report.add(Check(experiment, name, paper, measured, grade, note))


def validate_thermals(
    report: ValidationReport, grid: SolverConfig
) -> None:
    """Figures 6, 8, and 11: the thermal operating points."""
    from repro.core.logic_on_logic import run_thermal_study as logic_thermals
    from repro.core.memory_on_logic import (
        run_thermal_study as memory_thermals,
    )
    from repro.floorplan import core2duo_floorplan
    from repro.thermal import simulate_planar

    baseline = simulate_planar(core2duo_floorplan(), grid)
    fig6 = get_experiment("figure-6").paper_values
    _grade(report, "figure-6", "peak temperature (C)", fig6["peak_c"],
           baseline.peak_temperature(), abs_tol=2.0)
    _grade(report, "figure-6", "coolest on-die (C)", fig6["coolest_c"],
           baseline.coolest_on_die(), abs_tol=2.0)

    temps = memory_thermals(grid)
    for name, paper in get_experiment("figure-8").paper_values.items():
        _grade(report, "figure-8", f"{name} peak (C)", paper,
               temps[name], abs_tol=2.5)
    ordering_ok = temps["3D 12MB"] == max(temps.values())
    report.add(Check(
        "figure-8", "SRAM stack is the hottest option", None,
        temps["3D 12MB"], PASS if ordering_ok else FAIL,
        "ordering check",
    ))

    logic = logic_thermals(grid)
    fig11 = get_experiment("figure-11").paper_values
    _grade(report, "figure-11", "2D baseline (C)", fig11["2D Baseline"],
           logic["2D Baseline"], abs_tol=2.0)
    _grade(report, "figure-11", "3D floorplan (C)", fig11["3D"],
           logic["3D"], abs_tol=3.0,
           note="repaired floorplan runs cooler; see EXPERIMENTS.md")
    _grade(report, "figure-11", "3D worst case (C)", fig11["3D Worstcase"],
           logic["3D Worstcase"], abs_tol=3.5)
    monotone = logic["2D Baseline"] < logic["3D"] < logic["3D Worstcase"]
    report.add(Check(
        "figure-11", "baseline < 3D < worst case", None, logic["3D"],
        PASS if monotone else FAIL, "ordering check",
    ))


def validate_logic_performance(report: ValidationReport) -> None:
    """Table 4 and the Section 4 power/performance headlines."""
    from repro.core.logic_on_logic import run_performance_study

    result = run_performance_study()
    table4 = get_experiment("table-4").paper_values
    for area, measured in result.per_row_gains.items():
        paper = table4[area]
        _grade(report, "table-4", f"{area} gain (%)", paper, measured,
               abs_tol=max(0.35, paper * 0.2))
    _grade(report, "table-4", "total gain (%)", table4["total"],
           result.total_gain_pct, abs_tol=1.0, shape_ok=False)
    _grade(report, "table-4", "stages eliminated (%)",
           table4["stages_eliminated"], result.stages_eliminated_pct,
           abs_tol=3.0)
    headlines = get_experiment("headlines").paper_values
    _grade(report, "headlines", "logic power reduction (%)",
           headlines["logic_power_reduction_pct"],
           result.power_reduction_pct, abs_tol=1.0, shape_ok=False)


def validate_dvfs(report: ValidationReport, grid: SolverConfig) -> None:
    """Table 5's power/performance columns (the exact-arithmetic rows)."""
    from repro.core.logic_on_logic import thermal_map_3d_power
    from repro.uarch.dvfs import table5_points

    rows = {p.name: p for p in table5_points(thermal_map_3d_power(grid))}
    for name, paper in get_experiment("table-5").paper_values.items():
        if name == "Baseline":  # the reference row, 100% by definition
            continue
        _grade(report, "table-5", f"{name} power (W)", paper["power_w"],
               rows[name].power_w, abs_tol=1.5, shape_ok=False)
        _grade(report, "table-5", f"{name} perf (%)", paper["perf_pct"],
               rows[name].perf_pct, abs_tol=1.0, shape_ok=False)


def validate_memory(
    report: ValidationReport,
    scale: int = 16,
    length_factor: float = 0.5,
) -> None:
    """Figure 5's shape on a representative workload subset."""
    from repro.core.memory_on_logic import run_performance_study

    result = run_performance_study(
        workloads=["gauss", "sus", "svm", "ssym", "savdf"],
        scale=scale,
        length_factor=length_factor,
    )
    figure5 = get_experiment("figure-5").paper_values
    _grade(report, "figure-5", "max CPMA reduction at 32MB (%)",
           100.0 * figure5["max_cpma_reduction_32mb"],
           100.0 * result.max_cpma_reduction(), abs_tol=12.0)
    for winner in ("gauss", "sus"):
        row = result.cpma[winner]
        reduction = 100.0 * (1 - row["3D 32MB"] / row["2D 4MB"])
        report.add(Check(
            "figure-5", f"{winner} improves dramatically", None, reduction,
            PASS if reduction > 25.0 else FAIL, "capacity winner",
        ))
    for fitter in ("ssym", "savdf"):
        row = result.cpma[fitter]
        gain_12 = 100.0 * (1 - row["3D 12MB"] / row["2D 4MB"])
        report.add(Check(
            "figure-5", f"{fitter} gains nothing from 12MB", None, gain_12,
            PASS if gain_12 < 5.0 else FAIL, "fits the 4MB baseline",
        ))
    bw_reduction = 100.0 * result.bus_power_reduction()
    _grade(report, "figure-5", "bus power reduction (%)",
           get_experiment("headlines").paper_values[
               "memory_bus_power_reduction_pct"],
           bw_reduction, abs_tol=20.0)


def run_validation(
    grid: Optional[SolverConfig] = None,
    scale: int = 16,
    length_factor: float = 0.5,
    include_memory: bool = True,
) -> ValidationReport:
    """Run the full acceptance suite; see the module docstring."""
    grid = grid or SolverConfig(nx=48, ny=48)
    report = ValidationReport()
    validate_thermals(report, grid)
    validate_logic_performance(report)
    validate_dvfs(report, grid)
    if include_memory:
        validate_memory(report, scale=scale, length_factor=length_factor)
    return report

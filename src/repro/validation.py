"""Acceptance harness: run every paper result once and grade it.

Produces the machine-readable counterpart of EXPERIMENTS.md: one
:class:`Check` per compared quantity, each graded ``pass`` (within
tolerance of the paper), ``shape`` (the row's bound holds -- an
ordering, a direction or a wider band -- but the absolute value
deviates; acceptable per DESIGN.md's reproduction contract), or
``fail`` (the bound does not hold).  Each graded experiment runs once
through :func:`~repro.core.experiments.run_experiment`, the same run
``repro run <id>`` does, and its grader in :data:`GRADERS` turns the
result into rows.  Driven by ``python -m repro validate``.  Published
numbers come from the experiment registry's ``paper_values``; the
tolerances and bounds live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.experiments import get_experiment, run_experiment
from repro.thermal.materials import TABLE2_CONSTANTS

PASS = "pass"
SHAPE = "shape"
FAIL = "fail"

#: An experiment's result dict or its ``paper_values``.
Values = Dict[str, Any]


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
    experiment: str,
    name: str,
    paper: Optional[float],
    measured: float,
    holds: bool,
    abs_tol: Optional[float] = None,
    note: str = "",
) -> Check:
    """Grade one row: FAIL unless its bound *holds*; then PASS within
    *abs_tol* of *paper* (or with no tolerance to meet), else SHAPE."""
    if not holds:
        grade = FAIL
    elif abs_tol is not None and abs(measured - paper) > abs_tol:
        grade = SHAPE
    else:
        grade = PASS
    return Check(experiment, name, paper, measured, grade, note)


def _near(
    experiment: str,
    name: str,
    paper: float,
    measured: float,
    abs_tol: float,
    shape_tol: Optional[float] = None,
    note: str = "",
) -> Check:
    """PASS within *abs_tol* of *paper*, SHAPE within *shape_tol*,
    else FAIL."""
    bound = abs_tol if shape_tol is None else shape_tol
    return _grade(experiment, name, paper, measured,
                  abs(measured - paper) <= bound, abs_tol, note)


def _span(curve: Dict[float, float]) -> float:
    return max(curve.values()) - min(curve.values())


def _grade_figure3(result: Values, paper: Values) -> List[Check]:
    """Both curves fall with k, Cu metal is the more sensitive layer, and
    the two sweeps agree at the actual (Table 2) conductivities."""
    row = partial(_grade, "figure-3")
    checks = []
    for curve, label in (("cu_metal", "Cu-metal"), ("bond", "bond")):
        temps = [result[curve][k] for k in sorted(result[curve])]
        falls = all(a >= b - 1e-6 for a, b in zip(temps, temps[1:]))
        checks.append(row(f"{label} curve falls with k (C)", None,
                          _span(result[curve]), falls, note="shape check"))
    (cu_lo, cu_hi), (bond_lo, bond_hi) = (paper["cu_range_c"],
                                          paper["bond_range_c"])
    excess = _span(result["cu_metal"]) - _span(result["bond"])
    checks.append(row("Cu span - bond span (C)",
                      (cu_hi - cu_lo) - (bond_hi - bond_lo), excess,
                      excess > 0))
    gap = (result["cu_metal"][TABLE2_CONSTANTS["cu_metal_conductivity"]]
           - result["bond"][TABLE2_CONSTANTS["bond_conductivity"]])
    checks.append(row("curves meet at the actual k (C)", None, gap,
                      abs(gap) <= 0.5, note="same nominal stack"))
    return checks


#: Default figure-5 workloads whose 64 MB cell is a copy of their 32 MB
#: cell: all but smvm, the one whose 32 MB DRAM cache evicts pages.  A
#: model change that separates the two columns moves this count.
DERIVED_64MB_CELLS = 11


def _grade_figure5(result: Values, paper: Values) -> List[Check]:
    """The capacity winners win, the fitting workloads do not need the
    capacity, off-die traffic collapses (Section 3 headlines), and the
    count of derived 64 MB cells is the pinned one."""
    row = partial(_grade, "figure-5")
    cpma = result["cpma"]

    def reduction(workload: str, config: str) -> float:
        return 100.0 * (1 - cpma[workload][config] / cpma[workload]["2D 4MB"])

    max_reduction = 100.0 * result["max_cpma_reduction_32mb"]
    checks = [row("max CPMA reduction at 32MB (%)",
                  100.0 * paper["max_cpma_reduction_32mb"], max_reduction,
                  max_reduction > 40.0, abs_tol=12.0)]
    for winner in ("gauss", "sus", "pcg"):
        gain = reduction(winner, "3D 32MB")
        checks.append(row(f"{winner} improves dramatically", None, gain,
                          gain > 25.0, note="capacity winner"))
    for fitter in ("ssym", "savdf", "svd"):
        gain = reduction(fitter, "3D 12MB")
        checks.append(row(f"{fitter} gains nothing from 12MB", None, gain,
                          gain < 5.0, note="fits the 4MB baseline"))
    bus = 100.0 * result["bus_power_reduction_32mb"]
    checks.append(row("bus power reduction (%)",
                      100.0 * paper["bus_power_reduction_32mb"], bus,
                      bus > 50.0, abs_tol=20.0))
    excess = max(bw["3D 64MB"] - bw["3D 32MB"]
                 for bw in result["bandwidth"].values())
    checks.append(row("worst 64MB BW over 32MB BW (GB/s)", None, excess,
                      excess <= 0.2, note="64MB at least as good"))
    average = 100.0 * result["avg_cpma_reduction_32mb"]
    checks.append(row("average CPMA improves at 32MB (%)",
                      100.0 * paper["avg_cpma_reduction_32mb"], average,
                      average > 0, note="known gap; see EXPERIMENTS.md"))
    derived = result["cells_derived_64mb"]
    checks.append(row("64MB cells derived from 32MB", None, derived,
                      derived == DERIVED_64MB_CELLS,
                      note=f"pinned: {DERIVED_64MB_CELLS} at default"))
    return checks


#: Largest figure-6 peak change, C, from doubling the die cells (the
#: default grid, 17 die cells, reads 0.12 C).
GRID_ERROR_BOUND_C = 0.3


def _grade_figure6(result: Values, paper: Values) -> List[Check]:
    """Peak and coolest on-die temperature, and the grid error of the
    peak against the grid with twice the die cells."""
    grid_error = abs(result["peak_c_fine"] - result["peak_c"])
    return [
        _near("figure-6", "peak temperature (C)", paper["peak_c"],
              result["peak_c"], 2.0),
        _near("figure-6", "coolest on-die (C)", paper["coolest_c"],
              result["coolest_c"], 2.0),
        _grade("figure-6", "peak grid error vs 2x die cells (C)", None,
               grid_error, grid_error <= GRID_ERROR_BOUND_C,
               note=f"bound {GRID_ERROR_BOUND_C} C"),
    ]


def _grade_figure8(result: Values, paper: Values) -> List[Check]:
    """Each stack's peak; the SRAM stack costs the most, and the 32 MB
    DRAM stack is thermally negligible (the Section 3 headline)."""
    row = partial(_grade, "figure-8")
    temps = {name: result[name] for name in paper}
    checks = [
        _near("figure-8", f"{name} peak (C)", value, temps[name], 2.5)
        for name, value in paper.items()
    ]
    checks.append(row("SRAM stack is the hottest option", None,
                      temps["3D 12MB"],
                      temps["3D 12MB"] == max(temps.values()),
                      note="ordering check"))
    delta = temps["3D 32MB"] - temps["2D 4MB"]
    checks.append(row("32MB DRAM thermal cost (C)",
                      paper["3D 32MB"] - paper["2D 4MB"], delta,
                      abs(delta) < 1.5, note="negligible: within 1.5 C"))
    checks.append(row("2D 4MB < 3D 64MB < 3D 12MB", None, temps["3D 64MB"],
                      temps["2D 4MB"] < temps["3D 64MB"] < temps["3D 12MB"],
                      note="ordering check"))
    return checks


def _grade_figure11(result: Values, paper: Values) -> List[Check]:
    """The three peaks, their ordering, and a moderate 3D rise that the
    no-savings worst case dwarfs (the Section 4 thermal headline)."""
    row = partial(_grade, "figure-11")
    base, mid, worst = (result[k]
                        for k in ("2D Baseline", "3D", "3D Worstcase"))
    rise, worst_rise = mid - base, worst - base
    paper_rise = paper["3D"] - paper["2D Baseline"]
    return [
        _near("figure-11", "2D baseline (C)", paper["2D Baseline"], base, 2.0),
        _near("figure-11", "3D floorplan (C)", paper["3D"], mid, 3.0,
              shape_tol=6.0,
              note="repaired floorplan runs cooler; see EXPERIMENTS.md"),
        _near("figure-11", "3D worst case (C)", paper["3D Worstcase"],
              worst, 3.5),
        row("baseline < 3D < worst case", None, mid, base < mid < worst,
            note="ordering check"),
        row("3D thermal cost (C)", paper_rise, rise, 5.0 <= rise <= 18.0,
            note="moderate: 5-18 C"),
        row("worst-case rise / 3D rise",
            (paper["3D Worstcase"] - paper["2D Baseline"]) / paper_rise,
            worst_rise / rise if rise > 0 else float("nan"),
            worst_rise > 1.8 * rise, note="above 1.8"),
    ]


def _grade_table4(result: Values, paper: Values) -> List[Check]:
    """Per-area gains, the totals, and the paper's ordering of the three
    biggest rows."""
    row = partial(_grade, "table-4")
    gains = result["per_row_gains_pct"]
    checks = [
        _near("table-4", f"{area} gain (%)", paper[area], gain,
              max(0.35, paper[area] * 0.2))
        for area, gain in gains.items()
    ]
    checks.append(_near("table-4", "total gain (%)", paper["total"],
                        result["total_gain_pct"], 1.0))
    checks.append(_near("table-4", "stages eliminated (%)",
                        paper["stages_eliminated"],
                        result["stages_eliminated_pct"], 3.0))
    first, second, third = sorted(gains, key=paper.get, reverse=True)[:3]
    checks.append(row(f"{first} is the biggest gain", None, gains[first],
                      max(gains, key=gains.get) == first,
                      note="ordering check"))
    checks.append(row(f"{first} > {second} > {third}", None, gains[first],
                      gains[first] > gains[second] > gains[third],
                      note="ordering check"))
    return checks


def _grade_table5(result: Values, paper: Values) -> List[Check]:
    """Every scaling point's power/perf (exact arithmetic) and temperature
    (our solver), plus the Section 4 DVFS headlines."""
    rows = {r["name"]: r for r in result["rows"]}
    checks = []
    for name, value in paper.items():
        measured = rows[name]
        checks += [
            _near("table-5", f"{name} power (W)", value["power_w"],
                  measured["power_w"], 1.5),
            _near("table-5", f"{name} perf (%)", value["perf_pct"],
                  measured["perf_pct"], 1.0),
            _near("table-5", f"{name} temp (C)", value["temp_c"],
                  measured["temp_c"], 10.0),
        ]
    baseline_w = paper["Baseline"]["power_w"]
    for name in ("Same Temp", "Same Perf."):
        checks.append(_near(
            "table-5", f"{name} power reduction (%)",
            100.0 * (1 - paper[name]["power_w"] / baseline_w),
            100.0 - rows[name]["power_pct"], 1.5,
        ))
    return checks


def _grade_headlines(result: Values, paper: Values) -> List[Check]:
    """The simultaneous Section 4 power saving and performance gain."""
    return [
        _near("headlines", "logic power reduction (%)",
              paper["logic_power_reduction_pct"],
              result["logic_power_reduction_pct"], 1.0),
        _near("headlines", "logic perf gain (%)",
              paper["logic_perf_gain_pct"], result["logic_perf_gain_pct"],
              1.0),
    ]


Grader = Callable[[Values, Values], List[Check]]

#: Experiment id -> ``grade(result, paper_values)``, in run order.
GRADERS: Dict[str, Grader] = {
    "figure-3": _grade_figure3,
    "figure-5": _grade_figure5,
    "figure-6": _grade_figure6,
    "figure-8": _grade_figure8,
    "figure-11": _grade_figure11,
    "table-4": _grade_table4,
    "table-5": _grade_table5,
    "headlines": _grade_headlines,
}


def run_validation(
    experiment_ids: Optional[Sequence[str]] = None, **kwargs: Any
) -> ValidationReport:
    """Run each graded experiment once and grade its result.

    Args:
        experiment_ids: Ids to grade, in order (every :data:`GRADERS`
            id by default); repeats run once.
        **kwargs: Forwarded to every run, the way ``repro run`` forwards
            ``--nx`` and ``--scale``.

    A run that raises grades as one FAIL row carrying its error.

    Raises:
        KeyError: An id has no grader; the message names every graded id.
    """
    ids = list(dict.fromkeys(experiment_ids or GRADERS))
    for experiment_id in ids:
        if experiment_id not in GRADERS:
            raise KeyError(
                f"no grader for experiment {experiment_id!r}; "
                f"graded: {list(GRADERS)}"
            )
    report = ValidationReport()
    for experiment_id in ids:
        outcome = run_experiment(experiment_id, **kwargs)
        if not outcome.ok:
            report.add(Check(
                experiment_id, "run failed", None, float("nan"), FAIL,
                f"{outcome.error_type}: {outcome.error}",
            ))
            continue
        paper = get_experiment(experiment_id).paper_values
        report.checks.extend(GRADERS[experiment_id](outcome.result, paper))
    return report

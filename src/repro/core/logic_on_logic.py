"""Section 4: Logic+Logic stacking — performance, power, thermals, DVFS.

Combines the substrates into the paper's Logic+Logic flow:

1. evaluate the planar and 3D pipelines over the 650-trace suite
   (Table 4's per-row and total performance gains);
2. roll up the 3D power saving (repeaters, latches, clock grid);
3. solve the planar floorplan, the repaired 3D floorplan, and the 2x
   worst case thermally (Figure 11);
4. scale voltage/frequency per Table 5, with temperatures from the
   thermal model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.floorplan.pentium4 import (
    pentium4_3d_floorplans,
    pentium4_planar_floorplan,
    pentium4_worstcase_3d,
)
from repro.floorplan.stacking import power_density_report
from repro.thermal.stack import DieSpec, build_stack
from repro.uarch.dvfs import ScalingPoint, table5_points
from repro.uarch.interval import geomean_ipc
from repro.uarch.pipeline import (
    TABLE4_ELIMINATIONS,
    PipelineConfig,
    planar_pipeline,
    stacked_pipeline,
    stages_eliminated_fraction,
)
from repro.uarch.power import (
    planar_power_breakdown,
    power_reduction_fraction,
    stacked_power_breakdown,
)
from repro.uarch.workloads import SuiteColumns, WorkloadProfile, workload_suite

if TYPE_CHECKING:
    from repro.thermal.solver import SolverConfig


@dataclass
class LogicOnLogicResult:
    """Results of the full Section 4 study.

    Attributes:
        per_row_gains: Table 4: functional area -> performance gain (%).
        total_gain_pct: Total 3D performance gain (%; paper ~15).
        stages_eliminated_pct: Pipe stages eliminated (%; paper ~25).
        planar_power_w: Planar total power (147).
        stacked_power_w: 3D total power (paper ~125).
        power_reduction_pct: Power saving (%; paper 15).
        peak_temp_2d: Planar peak temperature, C (paper 98.6).
        peak_temp_3d: 3D floorplan peak temperature, C (paper 112.5).
        peak_temp_worstcase: 2x-density worst case, C (paper 124.75).
        density_ratio_3d: Peak combined power density vs planar (paper ~1.3).
        density_ratio_worstcase: Same for the worst case (2.0).
        table5: Table 5 scaling points with solved temperatures.
    """

    per_row_gains: Dict[str, float]
    total_gain_pct: float
    stages_eliminated_pct: float
    planar_power_w: float
    stacked_power_w: float
    power_reduction_pct: float
    peak_temp_2d: float = 0.0
    peak_temp_3d: float = 0.0
    peak_temp_worstcase: float = 0.0
    density_ratio_3d: float = 0.0
    density_ratio_worstcase: float = 0.0
    table5: List[ScalingPoint] = field(default_factory=list)


def run_performance_study(
    suite: Optional[List[WorkloadProfile]] = None,
) -> LogicOnLogicResult:
    """Table 4: per-row and total gains over the workload suite.

    Every row shares one planar baseline geomean over one set of suite
    columns.
    """
    columns = SuiteColumns.of(suite or workload_suite())
    planar = planar_pipeline()
    stacked = stacked_pipeline(planar)
    base = geomean_ipc(columns, planar)

    def gain_pct(pipeline: PipelineConfig) -> float:
        return 100.0 * (geomean_ipc(columns, pipeline) / base - 1.0)

    per_row = {
        area: gain_pct(stacked_pipeline(planar, {area: removed}))
        for area, removed in TABLE4_ELIMINATIONS.items()
    }
    total = gain_pct(stacked)
    breakdown = planar_power_breakdown()
    stacked_w = stacked_power_breakdown(breakdown).total
    return LogicOnLogicResult(
        per_row_gains=per_row,
        total_gain_pct=total,
        stages_eliminated_pct=100.0
        * stages_eliminated_fraction(planar, stacked),
        planar_power_w=breakdown.total,
        stacked_power_w=stacked_w,
        power_reduction_pct=100.0 * power_reduction_fraction(),
    )


def thermal_map_3d_power(
    solver: Optional[SolverConfig] = None,
) -> Callable[[float], float]:
    """A power->temperature map for the 3D floorplan.

    Steady-state conduction is linear in power, so one solve of the 3D
    floorplan at its nominal 125 W yields peak temperature at any power
    by scaling the rise over ambient.  Used for Table 5's temperature
    column.
    """
    # Imported here, not at module level: only a heat solve pays for
    # scipy, so the Table 4 performance study never loads it.
    from repro.thermal.solver import solve_steady_state

    bottom, top = pentium4_3d_floorplans()
    nominal = bottom.total_power + top.total_power
    solution = solve_steady_state(
        build_stack([DieSpec(bottom), DieSpec(top)]), solver
    )
    ambient = solution.config.ambient_c
    rise = solution.peak_temperature() - ambient

    def temp_at(power_w: float) -> float:
        if power_w < 0:
            raise ValueError("power must be non-negative")
        return ambient + rise * power_w / nominal

    return temp_at


def run_thermal_study(
    solver: Optional[SolverConfig] = None,
) -> Dict[str, float]:
    """Figure 11: 2D baseline, repaired 3D, and worst-case peak temps."""
    from repro.thermal.solver import solve_steady_state

    stacks = {
        "2D Baseline": [pentium4_planar_floorplan()],
        "3D": pentium4_3d_floorplans(),
        "3D Worstcase": pentium4_worstcase_3d(),
    }
    return {
        name: solve_steady_state(
            build_stack([DieSpec(plan) for plan in plans]), solver
        ).peak_temperature()
        for name, plans in stacks.items()
    }


def run_logic_study(
    suite: Optional[List[WorkloadProfile]] = None,
    solver: Optional[SolverConfig] = None,
    solve_temp_point: bool = False,
) -> LogicOnLogicResult:
    """The complete Section 4 study."""
    result = run_performance_study(suite)
    temps = run_thermal_study(solver)
    result.peak_temp_2d = temps["2D Baseline"]
    result.peak_temp_3d = temps["3D"]
    result.peak_temp_worstcase = temps["3D Worstcase"]

    planar = pentium4_planar_floorplan()
    bottom, top = pentium4_3d_floorplans()
    report = power_density_report(bottom, top, reference=planar)
    result.density_ratio_3d = report.peak_vs_reference or 0.0
    worst_b, worst_t = pentium4_worstcase_3d()
    report_worst = power_density_report(worst_b, worst_t, reference=planar)
    result.density_ratio_worstcase = report_worst.peak_vs_reference or 0.0

    thermal = thermal_map_3d_power(solver)
    result.table5 = table5_points(
        thermal=thermal,
        baseline_temp=result.peak_temp_2d,
        solve_temp_point=solve_temp_point,
    )
    return result

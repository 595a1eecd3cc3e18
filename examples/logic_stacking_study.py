#!/usr/bin/env python
"""Section 4 study: Logic+Logic stacking of a Pentium 4-class machine.

Reproduces Table 4 (per-functional-area stage eliminations and
performance gains over the 650-trace suite), the power roll-up (15%
saving), Figure 11 (2D / 3D / worst-case thermals), and Table 5 (the
voltage/frequency scaling trade-offs), and cross-validates the interval
performance model against the cycle-level core simulator.
"""

import argparse

from repro.analysis import compare_to_paper, format_table, format_table5
from repro.core.experiments import get_experiment
from repro.core.logic_on_logic import run_logic_study
from repro.uarch.cycle import simulate_cycles
from repro.uarch.pipeline import planar_pipeline, stacked_pipeline
from repro.uarch.workloads import make_profile

def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--solve-temp", action="store_true",
        help="solve the Same Temp Vcc with our thermal model instead of "
             "using the paper's published 0.92",
    )
    args = parser.parse_args()

    result = run_logic_study(solve_temp_point=args.solve_temp)
    table4 = get_experiment("table-4").paper_values
    headlines = get_experiment("headlines").paper_values

    print("Table 4: per-area performance gains (%, geomean over 656 traces)")
    print(compare_to_paper(table4, result.per_row_gains, unit="%"))
    print(f"\n  stages eliminated: {result.stages_eliminated_pct:5.1f}%  "
          f"(paper ~{table4['stages_eliminated']:.0f}%)")
    print(f"  total perf gain:   {result.total_gain_pct:5.1f}%  "
          f"(paper ~{table4['total']:.0f}%)")
    print(f"  power:             {result.planar_power_w:.0f} W -> "
          f"{result.stacked_power_w:.1f} W  "
          f"(-{result.power_reduction_pct:.1f}%, "
          f"paper -{headlines['logic_power_reduction_pct']:.0f}%)")

    print("\nFigure 11: peak temperatures")
    paper = get_experiment("figure-11").paper_values
    measured = {
        "2D Baseline": result.peak_temp_2d,
        "3D": result.peak_temp_3d,
        "3D Worstcase": result.peak_temp_worstcase,
    }
    print(compare_to_paper(paper, measured, unit="C"))
    print(f"  3D combined power-density ratio: "
          f"{result.density_ratio_3d:.2f}x  (paper ~1.3x)")
    print(f"  worst-case density ratio:        "
          f"{result.density_ratio_worstcase:.2f}x  (paper 2.0x)")

    print()
    print(format_table5([
        {
            "name": p.name, "vcc": p.vcc, "freq": p.freq,
            "power_w": p.power_w, "power_pct": p.power_pct,
            "perf_pct": p.perf_pct, "temp_c": p.temp_c,
        }
        for p in result.table5
    ]))

    print("\nCross-validation: interval model vs cycle-level simulator")
    planar = planar_pipeline()
    stacked = stacked_pipeline(planar)
    rows = []
    for category in ("specint", "specfp", "server"):
        profile = make_profile(category, 0)
        base = simulate_cycles(planar, profile, 30_000)
        improved = simulate_cycles(stacked, profile, 30_000)
        rows.append([
            profile.name, base.ipc, improved.ipc,
            100.0 * (improved.ipc / base.ipc - 1.0),
        ])
    print(format_table(
        ["trace", "planar IPC", "3D IPC", "gain %"], rows,
    ))


if __name__ == "__main__":
    main()

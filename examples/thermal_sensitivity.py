#!/usr/bin/env python
"""Thermal deep-dive: Figure 3's conductivity sensitivity and the
Figure 6/8 thermal maps, rendered as ASCII.

Shows the paper's key thermal finding: the existing Cu metal layers —
not the new 3D bond layer — are the dominant thermal bottleneck in a
face-to-face stack.
"""

import argparse

from repro.analysis import ascii_heatmap, format_table
from repro.core.experiments import get_experiment
from repro.floorplan import core2duo_floorplan, stacked_cache_die
from repro.thermal import DieSpec, build_stack, solve_steady_state
from repro.thermal.solver import SolverConfig


def figure3(nx: int) -> None:
    print("Figure 3: peak temperature vs layer thermal conductivity")
    result = get_experiment("figure-3").run(nx=nx)
    rows = []
    for k in sorted(result["cu_metal"], reverse=True):
        rows.append([k, result["cu_metal"][k], result["bond"][k]])
    print(format_table(
        ["k (W/mK)", "Cu metal swept (C)", "Bond swept (C)"], rows,
    ))
    cu_span = max(result["cu_metal"].values()) - min(result["cu_metal"].values())
    bond_span = max(result["bond"].values()) - min(result["bond"].values())
    print(f"\n  Cu-metal sweep spans {cu_span:.1f} C, bond sweep "
          f"{bond_span:.1f} C -> the metal layers dominate, as the paper "
          "concludes.")


def thermal_maps(nx: int) -> None:
    config = SolverConfig(nx=nx, ny=nx)
    fig6 = get_experiment("figure-6").paper_values
    fig8 = get_experiment("figure-8").paper_values

    print("\nFigure 6b: baseline Core 2 Duo thermal map (active layer)")
    base_die = core2duo_floorplan()
    planar = solve_steady_state(build_stack([DieSpec(base_die)]), config)
    print(ascii_heatmap(planar.die_map("metal-1"), width=56))
    print(f"  peak {planar.peak_temperature():.2f} C "
          f"(paper {fig6['peak_c']:.2f}), coolest "
          f"{planar.coolest_on_die():.2f} C (paper {fig6['coolest_c']:.0f})")

    print("\nFigure 8b: 3D 32MB stack thermal map (CPU active layer)")
    cpu_die = core2duo_floorplan(with_l2=False)
    dram_die = stacked_cache_die("dram-32mb", cpu_die)
    stacked = solve_steady_state(
        build_stack([DieSpec(cpu_die), DieSpec(dram_die, "al")]), config
    )
    print(ascii_heatmap(stacked.die_map("metal-1"), width=56))
    print(f"  peak {stacked.peak_temperature():.2f} C "
          f"(paper {fig8['3D 32MB']:.2f}); the "
          "hotspot shape matches the planar map because the cache die has "
          "uniform power.")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nx", type=int, default=48, help="solver grid")
    args = parser.parse_args()
    figure3(args.nx)
    thermal_maps(args.nx)


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Quickstart: a first tour of the repro library.

Runs in under a minute:

1. replay one RMS workload (svm) against the 2D baseline and the 32 MB
   stacked-DRAM hierarchy and compare CPMA / off-die bandwidth;
2. solve the baseline and stacked configurations thermally;
3. print the Logic+Logic headline numbers (Table 4 / power roll-up).
"""

from repro.core.experiments import get_experiment
from repro.core.memory_on_logic import build_memory_configs
from repro.core.logic_on_logic import run_performance_study
from repro.core.stack import build_stack
from repro.floorplan import core2duo_floorplan, stacked_cache_die
from repro.memsim import replay_trace
from repro.thermal import simulate_planar, simulate_stack
from repro.traces import generate_trace

SCALE = 16  # capacities and footprints divided by 16 (shape-preserving)


def memory_demo() -> None:
    print("=== Memory+Logic: svm on 4 MB baseline vs 32 MB stacked DRAM ===")
    trace = generate_trace("svm", n_records=600_000, scale=SCALE)
    configs = {c.name: c for c in build_memory_configs(SCALE)}
    for name in ("2D 4MB", "3D 32MB"):
        stats = replay_trace(
            trace, configs[name].hierarchy, warmup_fraction=0.45
        )
        print(
            f"  {name:8} CPMA {stats.cpma:6.2f}   "
            f"off-die BW {stats.bandwidth_gbps:5.2f} GB/s   "
            f"bus power {stats.bus_power_w:5.3f} W"
        )


def thermal_demo() -> None:
    print("\n=== Thermals: stacking a 32 MB DRAM cache ===")
    paper = get_experiment("figure-8").paper_values
    base_die = core2duo_floorplan()
    planar = simulate_planar(base_die)
    print(f"  2D baseline   peak {planar.peak_temperature():6.2f} C "
          f"(paper: {paper['2D 4MB']:.2f} C)")

    cpu_die = core2duo_floorplan(with_l2=False)
    dram_die = stacked_cache_die("dram-32mb", cpu_die)
    stacked = simulate_stack(cpu_die, dram_die, die2_metal="al")
    print(f"  3D 32MB DRAM  peak {stacked.peak_temperature():6.2f} C "
          f"(paper: {paper['3D 32MB']:.2f} C)")

    stack = build_stack(cpu_die, dram_die, bumps_kind="dram")
    print(f"  d2d interface bandwidth: "
          f"{stack.interface_bandwidth_gbps():,.0f} GB/s available")
    issues = stack.validate()
    print(f"  stack design rules: {'clean' if not issues else issues}")


def logic_demo() -> None:
    print("\n=== Logic+Logic: splitting the P4-class machine across 2 dies ===")
    result = run_performance_study()
    table4 = get_experiment("table-4").paper_values
    power_cut = get_experiment("headlines").paper_values[
        "logic_power_reduction_pct"]
    print(f"  pipe stages eliminated: {result.stages_eliminated_pct:5.1f}% "
          f"(paper: ~{table4['stages_eliminated']:.0f}%)")
    print(f"  performance gain:       {result.total_gain_pct:5.1f}% "
          f"(paper: ~{table4['total']:.0f}%)")
    print(f"  power:                  {result.planar_power_w:.0f} W -> "
          f"{result.stacked_power_w:.1f} W "
          f"(-{result.power_reduction_pct:.1f}%, paper: -{power_cut:.0f}%)")


if __name__ == "__main__":
    memory_demo()
    thermal_demo()
    logic_demo()

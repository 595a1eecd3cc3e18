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
from repro.memsim import replay_trace
from repro.thermal import build_stack, solve_steady_state
from repro.traces import TraceGenerator, WorkloadSpec

SCALE = 16  # capacities and footprints divided by 16 (shape-preserving)


def memory_demo() -> None:
    print("=== Memory+Logic: svm on 4 MB baseline vs 32 MB stacked DRAM ===")
    spec = WorkloadSpec("svm", n_records=600_000)
    trace = list(TraceGenerator(spec, scale=SCALE).records())
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
    configs = {c.name: c for c in build_memory_configs()}
    for name, label in (("2D 4MB", "2D baseline"), ("3D 32MB", "3D 32MB DRAM")):
        # Each configuration lists its dies, CPU die (nearest the sink) first.
        solution = solve_steady_state(build_stack(configs[name].dies))
        print(f"  {label:13} peak {solution.peak_temperature():6.2f} C "
              f"(paper: {paper[name]:.2f} C)")


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

#!/usr/bin/env python
"""Extension study: stacking *many* DRAM dies (the paper's future work).

The paper limits its analysis to two-die stacks but notes "it is also
possible to stack many die."  This example follows that thread — the one
that led to HBM and 3D V-Cache:

1. grow the stacked DRAM cache from 32 MB (one die) to 128 MB (four
   dies) and solve each stack thermally;
2. check the memory-hierarchy payoff of the extra capacity on a
   larger-than-32MB workload;
3. watch the 4-die stack warm up from power-on with the transient solver
   and respond to a DVFS power step.
"""

from repro.floorplan import core2duo_floorplan, stacked_cache_die
from repro.memsim import replay_trace, stacked_dram_config
from repro.thermal import (
    DieSpec,
    SolverConfig,
    build_stack,
    solve_steady_state,
    solve_transient,
)
from repro.traces import TraceGenerator, WorkloadSpec
from repro.traces.kernels.base import KernelParams

GRID = SolverConfig(nx=40, ny=40)


def thermal_scaling() -> None:
    print("=== Thermal cost of stacking 1-4 DRAM dies (32 MB each) ===")
    cpu = core2duo_floorplan(with_l2=False)
    dram = stacked_cache_die("dram-32mb", cpu)
    baseline = solve_steady_state(
        build_stack([DieSpec(core2duo_floorplan())]), GRID
    ).peak_temperature()
    print(f"  2D baseline: {baseline:6.2f} C")
    for n_dram in (1, 2, 3, 4):
        dies = [DieSpec(cpu)] + [
            DieSpec(dram, metal="al") for _ in range(n_dram)
        ]
        stack = build_stack(dies)
        peak = solve_steady_state(stack, GRID).peak_temperature()
        print(f"  CPU + {n_dram} DRAM die(s) = {32 * n_dram:3d} MB: "
              f"{peak:6.2f} C  ({peak - baseline:+.2f} C, "
              f"{stack.total_power:.1f} W)")
    print("  -> even 128 MB of stacked DRAM costs only a few degrees: the")
    print("     observation that presaged HBM-class stacking.")


def capacity_payoff() -> None:
    print("\n=== Does a second DRAM die pay off? ===")
    # A workload whose footprint exceeds one 32 MB die (scaled by 16:
    # 48 MB -> 3 MB vs 2 MB/4 MB stacked capacities).
    scale = 16
    params = KernelParams(footprint_bytes=48 << 20, scale=scale)
    spec = WorkloadSpec("gauss", n_records=1_200_000, params=params)
    trace = list(TraceGenerator(spec, scale=scale).records())
    for capacity in (32, 64):
        stats = replay_trace(
            trace, stacked_dram_config(capacity, scale), warmup_fraction=0.35
        )
        print(f"  {capacity} MB stacked DRAM: CPMA {stats.cpma:6.2f}, "
              f"off-die BW {stats.bandwidth_gbps:5.2f} GB/s")


def transient_behaviour() -> None:
    print("\n=== 4-die stack: power-on warm-up and a DVFS step ===")
    cpu = core2duo_floorplan(with_l2=False)
    dram = stacked_cache_die("dram-32mb", cpu)
    stack = build_stack(
        [DieSpec(cpu)] + [DieSpec(dram, metal="al") for _ in range(4)]
    )
    run = solve_transient(stack, GRID, duration_s=120.0, dt_s=2.0)
    print(f"  power-on: {run.peak_c[0]:.1f} C -> {run.peak_c[-1]:.1f} C; "
          f"63% of the rise in {run.time_to_fraction(0.63):.0f} s")
    stepped = solve_transient(
        stack, GRID, duration_s=120.0, dt_s=2.0,
        power_schedule=lambda t: 0.66 if t > 60.0 else 1.0,
    )
    idx = stepped.times_s.index(60.0)
    print(f"  DVFS step to 66% power at t=60s: "
          f"{stepped.peak_c[idx]:.1f} C -> {stepped.peak_c[-1]:.1f} C")


if __name__ == "__main__":
    thermal_scaling()
    capacity_payoff()
    transient_behaviour()

#!/usr/bin/env python
"""Designing your own 3D stack with the library's public API.

Walks through what a downstream architect would do with this toolkit:

1. describe a custom two-core accelerator die as a block floorplan;
2. propose a naive second logic die, observe the combined power-density
   problem, and run the paper's iterative hotspot repair;
3. solve the repaired stack thermally and compare against the naive
   placement;
4. size a stacked DRAM cache for the design and estimate its benefit on
   a pointer-chasing workload.
"""

from repro.floorplan import (
    Block,
    Floorplan,
    power_density_report,
    repair_hotspots,
)
from repro.memsim import (
    CacheConfig,
    DramCacheConfig,
    HierarchyConfig,
    replay_trace,
)
from repro.thermal import DieSpec, build_stack, solve_steady_state
from repro.traces import TraceGenerator, WorkloadSpec

KB, MB = 1 << 10, 1 << 20


def build_accelerator_die() -> Floorplan:
    """A 10x10 mm accelerator: two hot compute clusters + SRAM + I/O."""
    plan = Floorplan("accelerator (bottom die)", 10.0, 10.0)
    plan.add(Block("cluster0", 0.0, 0.0, 3.0, 3.0, 22.0))
    plan.add(Block("cluster1", 3.0, 0.0, 3.0, 3.0, 22.0))
    plan.add(Block("sram", 0.0, 3.0, 6.0, 4.0, 6.0))
    plan.add(Block("noc", 6.0, 0.0, 1.6, 7.0, 8.0))
    plan.add(Block("io", 7.6, 0.0, 2.4, 7.0, 7.0))
    plan.add(Block("misc", 0.0, 7.0, 10.0, 3.0, 5.0))
    return plan


def build_naive_top_die() -> Floorplan:
    """A second die placed carelessly: its hot vector unit lands right on
    top of the bottom die's compute clusters."""
    plan = Floorplan("top die (naive)", 10.0, 10.0)
    plan.add(Block("vector", 0.5, 0.5, 4.0, 2.0, 24.0))
    plan.add(Block("scratchpad", 0.0, 3.0, 6.0, 4.0, 4.0))
    plan.add(Block("dma", 6.5, 1.0, 2.5, 3.0, 6.0))
    plan.add(Block("ctrl", 0.0, 7.5, 5.0, 2.0, 3.0))
    return plan


def floorplan_study() -> Floorplan:
    bottom = build_accelerator_die()
    naive_top = build_naive_top_die()

    report = power_density_report(bottom, naive_top)
    print("Naive stacking:")
    print(f"  total power       {report.total_power:6.1f} W")
    print(f"  peak density      {report.peak_density:6.2f} W/mm^2")

    # The paper's recipe: place, observe densities, repair outliers.
    target = report.peak_density * 0.72
    repaired, iterations = repair_hotspots(
        bottom, naive_top, target_peak_density=target
    )
    fixed = power_density_report(bottom, repaired)
    print(f"\nAfter hotspot repair ({iterations} moves):")
    print(f"  peak density      {fixed.peak_density:6.2f} W/mm^2 "
          f"(target {target:.2f})")

    naive_temp, fixed_temp = (
        solve_steady_state(
            build_stack([DieSpec(bottom), DieSpec(top)])
        ).peak_temperature()
        for top in (naive_top, repaired)
    )
    print(f"\nThermal check: naive {naive_temp:.1f} C -> "
          f"repaired {fixed_temp:.1f} C "
          f"({fixed_temp - naive_temp:+.1f} C)")
    return repaired


def cache_study() -> None:
    print("\nStacked DRAM cache sizing for the accelerator:")
    # A pointer-chasing workload (pcg's dependent gathers) over a 14 MB
    # working set, scaled by 8 like the paper sweep.
    spec = WorkloadSpec("pcg", n_records=600_000)
    trace = list(TraceGenerator(spec, scale=8).records())
    small = HierarchyConfig(
        l2=CacheConfig(512 * KB, ways=16, latency=16)
    )
    stacked = HierarchyConfig(
        l2=None,
        stacked_dram=DramCacheConfig(size_bytes=4 * MB),
    )
    base = replay_trace(trace, small, warmup_fraction=0.35)
    best = replay_trace(trace, stacked, warmup_fraction=0.35)
    print(f"  on-die 512KB SRAM only: CPMA {base.cpma:6.2f}, "
          f"off-die BW {base.bandwidth_gbps:.2f} GB/s")
    print(f"  + 4MB stacked DRAM:     CPMA {best.cpma:6.2f}, "
          f"off-die BW {best.bandwidth_gbps:.2f} GB/s")
    print(f"  -> {100 * (1 - best.cpma / base.cpma):.0f}% fewer cycles per "
          "access, "
          f"{100 * (1 - best.bandwidth_gbps / max(base.bandwidth_gbps, 1e-9)):.0f}% "
          "less off-die traffic")


if __name__ == "__main__":
    floorplan_study()
    cache_study()

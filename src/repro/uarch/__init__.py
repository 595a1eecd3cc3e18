"""Microarchitecture performance, power, and DVFS models for Logic+Logic
stacking (Section 4).

The paper's Logic+Logic study runs a Pentium 4 design-team performance
simulator over 650 single-threaded traces, measures the IPC effect of
eliminating pipe stages with the 3D floorplan (Table 4), rolls up the
power effect of removing repeaters, latches, and clock-grid metal, and
scales voltage/frequency to trade the gains (Table 5).

This package rebuilds that flow:

* :mod:`repro.uarch.pipeline` — the deeply pipelined machine described as
  per-functional-area pipe-stage counts, including the wire-delay stages
  the 3D floorplan eliminates (Table 4's rows).
* :mod:`repro.uarch.workloads` — a 650-trace synthetic workload suite
  across the paper's eight categories.
* :mod:`repro.uarch.interval` — an interval-analysis performance model
  (the fast path used to evaluate all 650 workloads).
* :mod:`repro.uarch.cycle` — a cycle-level out-of-order core simulator
  used to validate the interval model on representative workloads.
* :mod:`repro.uarch.power` — the block-level power roll-up and its 3D
  scaling (repeaters, repeating latches, clock grid, global metal).
* :mod:`repro.uarch.dvfs` — Table 5's voltage/frequency scaling model.
"""

from repro.uarch.pipeline import (
    PipelineConfig,
    planar_pipeline,
    stacked_pipeline,
)
from repro.uarch.workloads import WorkloadProfile, workload_suite
from repro.uarch.interval import speedup
from repro.uarch.cycle import CycleCoreSimulator, simulate_cycles
from repro.uarch.power import PowerBreakdown, planar_power_breakdown, stacked_power_w
from repro.uarch.dvfs import ScalingPoint, scale_operating_point, table5_points

__all__ = [
    "PipelineConfig",
    "planar_pipeline",
    "stacked_pipeline",
    "WorkloadProfile",
    "workload_suite",
    "speedup",
    "CycleCoreSimulator",
    "simulate_cycles",
    "PowerBreakdown",
    "planar_power_breakdown",
    "stacked_power_w",
    "ScalingPoint",
    "scale_operating_point",
    "table5_points",
]

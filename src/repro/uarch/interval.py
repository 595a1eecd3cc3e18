"""Interval-analysis performance model for the deeply pipelined machine.

Estimates IPC for a :class:`~repro.uarch.workloads.WorkloadProfile` on a
:class:`~repro.uarch.pipeline.PipelineConfig` by composing the classic
interval-analysis CPI adders, each tied to the pipe-stage groups of
Table 4 so that stage elimination translates into performance exactly
through the mechanisms the paper names:

* branch mispredictions pay the front-end refill loop (trace cache read,
  rename/allocation, scheduler loop, register read, resolve) — P4-style,
  refilling from the trace cache, so the fetch/decode *front end* is only
  exposed on trace-cache misses;
* dependent loads pay the load-to-use latency (D$ read wire stages);
* dependent FP ops pay the FP latency including the planar RF->SIMD->FP
  wire detour, and FP loads the FP load pipeline;
* L1 misses re-dispatch through the scheduler loop (replay);
* resource recovery after a mispredict additionally pays the
  retire-to-deallocation depth;
* stores occupy store-queue entries for their post-retirement lifetime,
  bounding sustainable IPC via Little's law.

Main-memory stalls are modeled but (as in the paper) unaffected by the
3D floorplan, which is why performance does not scale 1:1 with frequency
in Table 5.

The adders are computed once per suite, columnwise
(:func:`cpi_columns`); a single profile is a one-row suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Iterable, Union

import numpy as np

from repro.uarch.pipeline import PipelineConfig
from repro.uarch.workloads import SuiteColumns, WorkloadProfile

#: Calibration coefficients (dimensionless exposure factors).  Tuned once
#: against Table 4's per-row gains; ``repro validate table-4`` grades them.
COEFFS: Dict[str, float] = {
    # Fraction of the refill-loop stages exposed per mispredict.
    "mispredict_exposure": 1.10018,
    # Trace-cache miss events per instruction (expose the front end).
    "tc_miss_freq": 0.00352,
    # Fraction of load-to-use latency exposed on dependent loads.
    "load_use_exposure": 0.23065,
    # Fraction of FP latency exposed on dependent FP ops.
    "fp_exposure": 0.65411,
    # Fraction of the FP-load pipeline exposed on dependent FP loads.
    "fp_load_exposure": 0.25896,
    # Scheduler-replay exposure per L1 miss.
    "replay_exposure": 0.83975,
    # Resource-recovery (retire to dealloc) exposure per mispredict;
    # greater than one because a recovery stage stalls dispatch for
    # several cycles while rename tables and buffers drain.
    "recovery_exposure": 2.8287,
    # Allocation-serialization events per instruction (expose the rename/
    # allocation depth outside the mispredict path).
    "alloc_events": 0.00481,
    # L2 hit latency seen by L1 misses, cycles.
    "l2_latency": 18.0,
    # Fraction of memory latency exposed per L2 miss (overlap).
    "memory_exposure": 0.6,
    # Cycles per store-lifetime stage (each stage is multi-cycle once
    # cache write bandwidth and ordering are accounted).
    "store_lifetime_cycles_per_stage": 11.0,
    # Store-queue congestion coefficient (see the rho**3 term below).
    "store_congestion": 0.06854,
}


@dataclass(frozen=True)
class CpiBreakdown:
    """CPI adders (cycles/instruction), one array entry per suite trace
    (:func:`cpi_columns`)."""

    base: np.ndarray
    branch: np.ndarray
    front_end: np.ndarray
    alloc: np.ndarray
    load_use: np.ndarray
    fp: np.ndarray
    fp_load: np.ndarray
    replay: np.ndarray
    recovery: np.ndarray
    memory: np.ndarray
    store: np.ndarray

    @property
    def total_cpi(self) -> np.ndarray:
        return (
            self.base + self.branch + self.front_end + self.alloc
            + self.load_use + self.fp + self.fp_load + self.replay
            + self.recovery + self.memory + self.store
        )

    @property
    def ipc(self) -> np.ndarray:
        return 1.0 / self.total_cpi


Workloads = Union[SuiteColumns, Iterable[WorkloadProfile]]


def _columns(workloads: Workloads) -> SuiteColumns:
    if isinstance(workloads, SuiteColumns):
        return workloads
    return SuiteColumns.of(workloads)


def cpi_columns(
    columns: SuiteColumns,
    pipeline: PipelineConfig,
    coeffs: Dict[str, float] = COEFFS,
) -> CpiBreakdown:
    """The CPI adders of every suite trace on *pipeline*, one array each.

    Elementwise ``+ - * /`` and ``np.minimum`` round exactly as Python
    floats do, so each entry equals the scalar evaluation of its trace
    bit for bit; the one transcendental, ``rho ** 3``, goes through
    Python's ``**`` (libm ``pow``) per element for the same reason.
    """
    c = coeffs
    w = columns
    n = len(w)
    mispredicts = w.branch_freq * w.mispredict_rate
    refill = (
        pipeline.trace_cache
        + pipeline.rename_alloc
        + pipeline.instruction_loop
        + pipeline.int_rf_read
        + 4  # execute + resolve
    )
    l1_misses = w.load_freq * w.l1_miss_per_load
    l2_misses = w.load_freq * w.l2_miss_per_load

    store_lifetime_cycles = (
        pipeline.store_lifetime * c["store_lifetime_cycles_per_stage"]
    )
    # Store-queue congestion via Little's law: occupancy rho grows with
    # store rate and post-retirement lifetime; the stall term rises
    # steeply (rho^3) as the queue saturates.
    ipc_estimate = np.minimum(w.base_ilp, 2.0)
    rho = np.minimum(
        w.store_freq * ipc_estimate * store_lifetime_cycles
        / pipeline.store_queue_entries,
        1.5,
    )
    rho_cubed = np.array([r ** 3 for r in rho.tolist()])
    cpi_store = (
        c["store_congestion"]
        * w.store_freq
        * store_lifetime_cycles
        * rho_cubed
        / pipeline.store_queue_entries
    )
    memory = (
        l1_misses * c["l2_latency"]
        + l2_misses * w.memory_latency * c["memory_exposure"]
    )

    return CpiBreakdown(
        base=1.0 / w.base_ilp,
        branch=mispredicts * refill * c["mispredict_exposure"],
        front_end=np.full(n, c["tc_miss_freq"] * pipeline.front_end),
        alloc=np.full(n, c["alloc_events"] * pipeline.rename_alloc),
        load_use=(
            w.load_freq
            * w.load_chain_density
            * (pipeline.load_to_use - 1)
            * c["load_use_exposure"]
        ),
        fp=(
            w.fp_freq
            * w.fp_chain_density
            * (pipeline.fp_latency - 1)
            * c["fp_exposure"]
        ),
        fp_load=(
            w.fp_load_freq
            * w.fp_chain_density
            * pipeline.fp_load_latency
            * c["fp_load_exposure"]
        ),
        replay=l1_misses * pipeline.instruction_loop * c["replay_exposure"],
        recovery=(
            mispredicts * pipeline.retire_dealloc * c["recovery_exposure"]
        ),
        memory=memory,
        store=cpi_store,
    )


def geomean_ipc(
    workloads: Workloads,
    pipeline: PipelineConfig,
    coeffs: Dict[str, float] = COEFFS,
) -> float:
    """Geometric-mean IPC over a suite (the paper's aggregate).

    The log-sum runs through ``math.log`` in suite order, so the result
    does not depend on numpy's transcendentals or pairwise summation.
    """
    columns = _columns(workloads)
    if len(columns) == 0:
        raise ValueError("empty workload suite")
    log_sum = 0.0
    for ipc in cpi_columns(columns, pipeline, coeffs).ipc.tolist():
        log_sum += math.log(ipc)
    return math.exp(log_sum / len(columns))


def speedup(
    workloads: Workloads,
    baseline: PipelineConfig,
    improved: PipelineConfig,
    coeffs: Dict[str, float] = COEFFS,
) -> float:
    """Geomean speedup of *improved* over *baseline* (1.15 = +15%)."""
    columns = _columns(workloads)
    return geomean_ipc(columns, improved, coeffs) / geomean_ipc(
        columns, baseline, coeffs
    )


def frequency_scaling_slope(
    workloads: Workloads,
    pipeline: PipelineConfig,
    delta: float = 0.05,
    coeffs: Dict[str, float] = COEFFS,
) -> float:
    """Performance change per unit frequency change (paper: 0.82).

    Raising frequency leaves main-memory latency fixed in nanoseconds, so
    it grows in cycles; everything else scales.  The slope is measured by
    re-evaluating the suite with memory latency scaled by (1 + delta) and
    converting the IPC loss into wall-clock performance.
    """
    columns = _columns(workloads)
    base = geomean_ipc(columns, pipeline, coeffs)
    scaled = geomean_ipc(
        replace(columns, memory_latency=columns.memory_latency * (1 + delta)),
        pipeline,
        coeffs,
    )
    # Wall-clock speed at (1+delta) frequency = (1+delta) * scaled-IPC.
    perf_ratio = (1 + delta) * scaled / base
    return math.log(perf_ratio) / math.log(1 + delta)

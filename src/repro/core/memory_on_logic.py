"""Section 3: Memory+Logic stacking — configurations, performance, thermals.

Builds the four configurations of Figure 7:

(a) the 2D baseline with its on-die 4 MB SRAM L2;
(b) +8 MB stacked SRAM for a 12 MB L2 (total power +14 W);
(c) 32 MB stacked DRAM replacing the SRAM L2 (tags on the CPU die);
(d) 64 MB stacked DRAM on the unchanged baseline die (the 4 MB SRAM
    becomes the tag store).

and evaluates each on the RMS trace suite (CPMA + off-die bandwidth +
bus power, Figure 5) and in the thermal model (Figure 8).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.stack import DieStack, build_stack
from repro.floorplan.blocks import Floorplan
from repro.floorplan.core2duo import core2duo_floorplan, stacked_cache_die
from repro.memsim.config import (
    HierarchyConfig,
    baseline_config,
    stacked_dram_config,
    stacked_sram_config,
)
from repro.memsim.replay import ReplayStats, replay_trace
from repro.oracles.config import (
    OracleConfig,
    get_oracle_config,
    set_oracle_mode,
)
from repro.oracles.invariants import check_cpma_band
from repro.oracles.report import (
    OracleReport,
    oracle_report,
    record_check,
    record_violation,
    reset_oracles,
)
from repro.thermal.model import simulate_planar, simulate_stack
from repro.thermal.solver import SolverConfig
from repro.traces.generator import TraceGenerator, WorkloadSpec
from repro.traces.kernels.registry import kernel_names

#: Configuration names in Figure 5/7/8 order.
MEMORY_CONFIG_NAMES: Tuple[str, ...] = ("2D 4MB", "3D 12MB", "3D 32MB", "3D 64MB")

#: Per-workload trace length and warmup fraction at the reference scale
#: (scale=8).  Long enough that fitting workloads reach steady state
#: within the warmup and capacity-sensitive workloads make multiple
#: passes over their footprints afterwards.
TRACE_PLAN: Dict[str, Tuple[int, float]] = {
    "conj": (600_000, 0.50),
    "dsym": (600_000, 0.50),
    "gauss": (1_600_000, 0.35),
    "pcg": (1_500_000, 0.35),
    "smvm": (1_500_000, 0.35),
    "ssym": (600_000, 0.50),
    "strans": (1_600_000, 0.35),
    "savdf": (500_000, 0.50),
    "savif": (500_000, 0.50),
    "sus": (1_000_000, 0.40),
    "svd": (600_000, 0.55),
    "svm": (1_800_000, 0.35),
}


@dataclass(frozen=True)
class MemoryOnLogicConfig:
    """One Memory+Logic configuration: hierarchy + physical stack.

    Attributes:
        name: Figure 7 label.
        hierarchy: Memory-hierarchy configuration (Table 3 derived).
        cpu_die: CPU die floorplan.
        cache_die: Stacked cache die floorplan, or None for the planar
            baseline.
        cache_die_metal: ``"cu"`` (SRAM die) or ``"al"`` (DRAM die).
    """

    name: str
    hierarchy: HierarchyConfig
    cpu_die: Floorplan
    cache_die: Optional[Floorplan]
    cache_die_metal: str = "cu"

    @property
    def total_power_w(self) -> float:
        power = self.cpu_die.total_power
        if self.cache_die is not None:
            power += self.cache_die.total_power
        return power


def build_memory_configs(scale: int = 1) -> List[MemoryOnLogicConfig]:
    """The four Figure 7 configurations.

    *scale* divides cache capacities (see
    :func:`repro.memsim.config.baseline_config`); floorplans and thermals
    are unaffected (the thermal experiment uses the published die powers).
    """
    base_die = core2duo_floorplan()
    nol2_die = core2duo_floorplan(with_l2=False)
    return [
        MemoryOnLogicConfig(
            name="2D 4MB",
            hierarchy=baseline_config(scale),
            cpu_die=base_die,
            cache_die=None,
        ),
        MemoryOnLogicConfig(
            name="3D 12MB",
            hierarchy=stacked_sram_config(scale),
            cpu_die=base_die,
            cache_die=stacked_cache_die("sram-8mb", base_die),
            cache_die_metal="cu",
        ),
        MemoryOnLogicConfig(
            name="3D 32MB",
            hierarchy=stacked_dram_config(32, scale),
            cpu_die=nol2_die,
            cache_die=stacked_cache_die("dram-32mb", nol2_die),
            cache_die_metal="al",
        ),
        MemoryOnLogicConfig(
            name="3D 64MB",
            hierarchy=stacked_dram_config(64, scale),
            cpu_die=base_die,
            cache_die=stacked_cache_die("dram-64mb", base_die),
            cache_die_metal="al",
        ),
    ]


def stack_for_config(config: MemoryOnLogicConfig) -> Optional[DieStack]:
    """The physical die stack of a stacked configuration (None for 2D)."""
    if config.cache_die is None:
        return None
    kind = "dram" if config.cache_die_metal == "al" else "logic"
    return build_stack(config.cpu_die, config.cache_die, bumps_kind=kind)


@dataclass
class MemoryOnLogicResult:
    """Results of the full Section 3 study.

    Attributes:
        cpma: ``cpma[workload][config_name]`` cycles per memory access.
        bandwidth: Same shape, off-die bandwidth GB/s.
        bus_power: Same shape, bus power W.
        peak_temps: ``peak_temps[config_name]`` peak die temperature, C.
        replay: Full :class:`ReplayStats` per (workload, config).
    """

    cpma: Dict[str, Dict[str, float]]
    bandwidth: Dict[str, Dict[str, float]]
    bus_power: Dict[str, Dict[str, float]]
    peak_temps: Dict[str, float]
    replay: Dict[str, Dict[str, ReplayStats]]

    def average_cpma(self, config_name: str) -> float:
        """Mean CPMA over the workloads (the figure's "Avg" group)."""
        values = [row[config_name] for row in self.cpma.values()]
        return sum(values) / len(values)

    def average_bandwidth(self, config_name: str) -> float:
        values = [row[config_name] for row in self.bandwidth.values()]
        return sum(values) / len(values)

    def cpma_reduction(self, config_name: str = "3D 32MB") -> float:
        """Average-CPMA reduction vs the baseline (paper: 13% at 32 MB)."""
        return 1.0 - self.average_cpma(config_name) / self.average_cpma("2D 4MB")

    def max_cpma_reduction(self, config_name: str = "3D 32MB") -> float:
        """Best per-workload CPMA reduction (paper: up to ~55%)."""
        return max(
            1.0 - row[config_name] / row["2D 4MB"]
            for row in self.cpma.values()
        )

    def bus_power_reduction(self, config_name: str = "3D 32MB") -> float:
        """Average bus-power reduction (paper: ~66% / ~0.5 W)."""
        base = self.average_bandwidth("2D 4MB")
        new = self.average_bandwidth(config_name)
        return 1.0 - new / base if base else 0.0


#: The trace a replay worker process was started with (see
#: :func:`_start_cell_worker`); None outside worker processes.
_CELL_TRACE: Optional[np.ndarray] = None

#: How often a replay worker checks that its caller is still alive, s.
_ORPHAN_POLL_S = 0.2


def _start_cell_worker(caller_pid: int, records: np.ndarray) -> None:
    """Pool initializer: keep the trace, and die with the caller.

    Under ``fork`` the initializer's arguments are inherited, not
    pickled, so every worker shares the caller's trace pages.  A
    SIGKILLed caller cannot shut its pool down, and the sibling workers
    keep the call queue's write end open, so no worker would ever see
    EOF; the watchdog exits once the worker is reparented instead.
    """
    global _CELL_TRACE
    _CELL_TRACE = records
    threading.Thread(
        target=_exit_when_orphaned, args=(caller_pid,), daemon=True
    ).start()


def _exit_when_orphaned(caller_pid: int) -> None:
    while os.getppid() == caller_pid:
        time.sleep(_ORPHAN_POLL_S)
    os._exit(1)


def _replay_cell(
    hierarchy: HierarchyConfig, warmup: float, oracles: OracleConfig
) -> Tuple[ReplayStats, OracleReport]:
    """One (workload, config) cell, run in a replay worker process."""
    set_oracle_mode(oracles)
    reset_oracles()
    stats = replay_trace(_CELL_TRACE, hierarchy, warmup_fraction=warmup)
    return stats, oracle_report()


def _merge_oracle_report(report: OracleReport) -> None:
    """Replay a worker's scoreboard into this process's scoreboard."""
    for oracle, n in report.checks.items():
        record_check(oracle, n)
    for v in report.violations:
        record_violation(v.oracle, v.engine, v.detail, v.action)


def run_performance_study(
    workloads: Optional[List[str]] = None,
    scale: int = 8,
    length_factor: float = 1.0,
    seed: int = 1234,
) -> MemoryOnLogicResult:
    """Run the Figure 5 sweep: every workload on every configuration.

    Each workload's trace is generated here, then its four
    configurations replay in parallel worker processes (forked, so they
    share the trace); their results and oracle scoreboards are taken in
    configuration order before the next trace is generated.

    Args:
        workloads: Subset of RMS kernels (default: all twelve).
        scale: Capacity/footprint scale divisor (see DESIGN.md; 8 keeps
            the full sweep to a few minutes).
        length_factor: Multiplier on the per-workload trace lengths (use
            < 1 for quick runs; shapes degrade below ~0.25).
        seed: Trace generation seed.

    Returns:
        A :class:`MemoryOnLogicResult` without thermals (see
        :func:`run_thermal_study`).
    """
    # Imported here: this module is imported by every ``repro.core``
    # user, and only this function needs a process pool.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    workloads = workloads or kernel_names()
    configs = build_memory_configs(scale)
    oracles = get_oracle_config()
    context = multiprocessing.get_context("fork")
    n_workers = min(len(os.sched_getaffinity(0)), len(configs))
    cpma: Dict[str, Dict[str, float]] = {}
    bandwidth: Dict[str, Dict[str, float]] = {}
    bus_power: Dict[str, Dict[str, float]] = {}
    replay: Dict[str, Dict[str, ReplayStats]] = {}
    for name in workloads:
        n_records, warmup = TRACE_PLAN[name]
        n_records = max(10_000, int(n_records * length_factor))
        spec = WorkloadSpec(name=name, n_records=n_records, seed=seed)
        records = TraceGenerator(spec, scale=scale).arrays()
        pool = ProcessPoolExecutor(
            n_workers,
            mp_context=context,
            initializer=_start_cell_worker,
            initargs=(os.getpid(), records),
        )
        try:
            futures = [
                pool.submit(_replay_cell, config.hierarchy, warmup, oracles)
                for config in configs
            ]
            cells = [future.result() for future in futures]
        finally:
            pool.shutdown(cancel_futures=True)
        cpma[name] = {}
        bandwidth[name] = {}
        bus_power[name] = {}
        replay[name] = {}
        for config, (stats, report) in zip(configs, cells):
            _merge_oracle_report(report)
            cpma[name][config.name] = stats.cpma
            bandwidth[name][config.name] = stats.bandwidth_gbps
            bus_power[name][config.name] = stats.bus_power_w
            replay[name][config.name] = stats
            if oracles.enabled:
                # CPMA sanity band per Table 1 kernel: a value far
                # outside the published behaviour means bookkeeping
                # corruption, not a modelling change.
                record_check("uarch.cpma-band")
                for problem in check_cpma_band(name, stats.cpma):
                    record_violation(
                        "uarch.cpma-band",
                        "memsim",
                        f"{config.name}: {problem}",
                    )
    return MemoryOnLogicResult(
        cpma=cpma,
        bandwidth=bandwidth,
        bus_power=bus_power,
        peak_temps={},
        replay=replay,
    )


def run_thermal_study(
    solver: Optional[SolverConfig] = None,
    solver_meta: Optional[Dict[str, Dict[str, object]]] = None,
) -> Dict[str, float]:
    """Solve the four configurations thermally (Figure 8a).

    Returns peak temperature per configuration name.  If *solver_meta*
    is given, it is filled with each configuration's solver provenance
    (residual/method/degraded) so degraded fallback solves stay visible
    in campaign reports.
    """
    temps: Dict[str, float] = {}
    for config in build_memory_configs():
        if config.cache_die is None:
            solution = simulate_planar(config.cpu_die, solver)
        else:
            solution = simulate_stack(
                config.cpu_die,
                config.cache_die,
                die2_metal=config.cache_die_metal,
                config=solver,
            )
        temps[config.name] = solution.peak_temperature()
        if solver_meta is not None:
            solver_meta[config.name] = solution.solver_info()
    return temps


def run_memory_study(
    workloads: Optional[List[str]] = None,
    scale: int = 8,
    length_factor: float = 1.0,
    solver: Optional[SolverConfig] = None,
    with_thermals: bool = True,
) -> MemoryOnLogicResult:
    """The complete Section 3 study: performance plus thermals."""
    result = run_performance_study(workloads, scale, length_factor)
    if with_thermals:
        result.peak_temps = run_thermal_study(solver)
    return result

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

import copy
import os
import shutil
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.floorplan.core2duo import core2duo_floorplan, stacked_cache_die
from repro.memsim.config import (
    HierarchyConfig,
    baseline_config,
    stacked_dram_config,
    stacked_sram_config,
)
from repro.memsim.replay import ReplayStats, TraceReplayer
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
from repro.thermal.stack import DieSpec, build_stack
from repro.traces.generator import TraceGenerator, WorkloadSpec
from repro.traces.kernels.registry import kernel_names

if TYPE_CHECKING:
    from concurrent.futures import Future

    from repro.thermal.solver import SolverConfig

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
        dies: The die stack, CPU die first (see
            :func:`repro.thermal.stack.build_stack`); the planar baseline
            has the CPU die alone, a stacked cache die has ``"cu"`` metal
            (SRAM) or ``"al"`` (DRAM).
    """

    name: str
    hierarchy: HierarchyConfig
    dies: Tuple[DieSpec, ...]

    @property
    def total_power_w(self) -> float:
        return sum(die.floorplan.total_power for die in self.dies)


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
            dies=(DieSpec(base_die),),
        ),
        MemoryOnLogicConfig(
            name="3D 12MB",
            hierarchy=stacked_sram_config(scale),
            dies=(
                DieSpec(base_die),
                DieSpec(stacked_cache_die("sram-8mb", base_die), "cu"),
            ),
        ),
        MemoryOnLogicConfig(
            name="3D 32MB",
            hierarchy=stacked_dram_config(32, scale),
            dies=(
                DieSpec(nol2_die),
                DieSpec(stacked_cache_die("dram-32mb", nol2_die), "al"),
            ),
        ),
        MemoryOnLogicConfig(
            name="3D 64MB",
            hierarchy=stacked_dram_config(64, scale),
            dies=(
                DieSpec(base_die),
                DieSpec(stacked_cache_die("dram-64mb", base_die), "al"),
            ),
        ),
    ]


@dataclass
class MemoryOnLogicResult:
    """Results of the full Section 3 study.

    Attributes:
        cpma: ``cpma[workload][config_name]`` cycles per memory access.
        bandwidth: Same shape, off-die bandwidth GB/s.
        bus_power: Same shape, bus power W.
        peak_temps: ``peak_temps[config_name]`` peak die temperature, C.
        replay: Full :class:`ReplayStats` per (workload, config).
        derived_64mb: Workloads, in ``cpma`` order, whose 64 MB stats
            are a copy of their 32 MB stats, because the 32 MB DRAM
            cache evicted no page (see :func:`run_performance_study`).
    """

    cpma: Dict[str, Dict[str, float]]
    bandwidth: Dict[str, Dict[str, float]]
    bus_power: Dict[str, Dict[str, float]]
    peak_temps: Dict[str, float]
    replay: Dict[str, Dict[str, ReplayStats]]
    derived_64mb: List[str] = field(default_factory=list)

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


#: How often a replay worker checks that its caller is still alive, s.
_ORPHAN_POLL_S = 0.2


def _start_cell_worker(caller_pid: int, study_dir: str) -> None:
    """Pool initializer: die with the caller, and clean up after it.

    A SIGKILLed caller cannot shut its pool down or remove its study
    directory, and the sibling workers keep the call queue's write end
    open, so no worker would ever see EOF; the watchdog removes the
    directory and exits once the worker is reparented instead.
    """
    threading.Thread(
        target=_exit_when_orphaned, args=(caller_pid, study_dir), daemon=True
    ).start()


def _exit_when_orphaned(caller_pid: int, study_dir: str) -> None:
    while os.getppid() == caller_pid:
        time.sleep(_ORPHAN_POLL_S)
    shutil.rmtree(study_dir, ignore_errors=True)
    os._exit(1)


def _replay_cell(
    trace_path: str,
    hierarchy: HierarchyConfig,
    warmup: float,
    oracles: OracleConfig,
) -> Tuple[ReplayStats, OracleReport, int]:
    """One (workload, config) cell, run in a replay worker process.

    Returns the stats, the worker's scoreboard, and how many pages the
    stacked DRAM cache evicted over the whole run, warmup included (0
    without one).
    """
    set_oracle_mode(oracles)
    reset_oracles()
    records = np.load(trace_path, mmap_mode="r")
    replayer = TraceReplayer(
        hierarchy, warmup_until=int(len(records) * warmup)
    )
    replayer.feed_array(records)
    stats = replayer.stats()
    # Read from the replayer, not from a hierarchy built here: a
    # differential fallback adopts the reference clone's hierarchy.
    dram = replayer.hierarchy.stacked_dram
    evicted = dram.lifetime_page_evictions if dram is not None else 0
    return stats, oracle_report(), evicted


def _merge_oracle_report(report: OracleReport) -> None:
    """Replay a worker's scoreboard into this process's scoreboard."""
    for oracle, n in report.checks.items():
        record_check(oracle, n)
    for v in report.violations:
        record_violation(v.oracle, v.engine, v.detail, v.action)


#: The stacked-DRAM pair of Figure 7: the second has the same hierarchy
#: with twice the DRAM-cache sets, so it gives the first's results
#: whenever the first evicts no page (see DESIGN.md).
_DRAM_32MB, _DRAM_64MB = "3D 32MB", "3D 64MB"


def run_performance_study(
    workloads: Optional[List[str]] = None,
    scale: int = 8,
    length_factor: float = 1.0,
    seed: int = 1234,
) -> MemoryOnLogicResult:
    """Run the Figure 5 sweep: every workload on every configuration.

    One pool of forked replay workers serves the whole study: one per
    usable core, but at least one per cell a trace submits first, so a
    trace's first cells run at once even on a two-core host.  Traces
    are generated here, longest first, each saved once to a ``.npy``
    file in a study temp dir that its cells map read-only; the next
    trace is generated while earlier cells replay, as long as fewer
    than two cells per worker are pending, and a trace's file is
    deleted once its cells are done.

    A trace's 32 MB cell is submitted first, then its 4 MB and 12 MB
    cells.  When the 32 MB cell is done, the 64 MB cell is submitted
    only if the 32 MB DRAM cache evicted a page (warmup included) or
    the cell is ``degraded``.  Otherwise the 64 MB cache, with the same
    ways and twice the sets, would evict nothing either and give the
    same stats, so they are a copy of the 32 MB stats and the kernel is
    listed in :attr:`MemoryOnLogicResult.derived_64mb` (the exactness
    argument is in DESIGN.md, "Capacity dominance").  Results,
    oracle scoreboards and the CPMA band check are taken in
    ``workloads`` x configuration order, whatever order the cells ran
    in; a derived cell has no scoreboard to merge but is band-checked.

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
    import tempfile
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    workloads = workloads or kernel_names()
    configs = build_memory_configs(scale)
    by_name = {config.name: config for config in configs}
    first = [by_name[_DRAM_32MB]] + [
        config for config in configs
        if config.name not in (_DRAM_32MB, _DRAM_64MB)
    ]
    oracles = get_oracle_config()
    # Enough workers to run a trace's first cells at once, even on fewer
    # cores: the OS shares the cores among them (see DESIGN.md).
    n_workers = min(
        max(len(os.sched_getaffinity(0)), len(first)),
        len(workloads) * len(configs),
    )
    cells: Dict[Tuple[str, str], Future] = {}
    cell_of: Dict[Future, Tuple[str, str, str]] = {}
    cells_left: Dict[str, int] = {}
    derived: Set[str] = set()
    pending: Set[Future] = set()

    def submit(name: str, config: MemoryOnLogicConfig, path: str) -> None:
        warmup = TRACE_PLAN[name][1]
        future = pool.submit(
            _replay_cell, path, config.hierarchy, warmup, oracles
        )
        cells[name, config.name] = future
        cell_of[future] = (name, config.name, path)
        cells_left[path] += 1
        pending.add(future)

    def settle() -> None:
        """Wait for a cell; submit the 64 MB cells the done 32 MB cells
        cannot stand in for; delete traces whose cells are all done."""
        done = wait(pending, return_when=FIRST_COMPLETED).done
        pending.difference_update(done)
        for future in done:
            # A failed cell fails the study here.
            stats, _, evicted = future.result()
            name, config_name, path = cell_of.pop(future)
            if config_name == _DRAM_32MB:
                if evicted or stats.degraded:
                    submit(name, by_name[_DRAM_64MB], path)
                else:
                    derived.add(name)
            cells_left[path] -= 1
            if not cells_left[path]:
                os.remove(path)

    with tempfile.TemporaryDirectory(prefix="repro-figure5-") as study_dir:
        pool = ProcessPoolExecutor(
            n_workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_start_cell_worker,
            initargs=(os.getpid(), study_dir),
        )
        try:
            longest_first = sorted(workloads, key=lambda n: -TRACE_PLAN[n][0])
            for index, name in enumerate(longest_first):
                while len(pending) >= 2 * n_workers:
                    settle()
                n_records = TRACE_PLAN[name][0]
                n_records = max(10_000, int(n_records * length_factor))
                spec = WorkloadSpec(name=name, n_records=n_records, seed=seed)
                path = os.path.join(study_dir, f"{index}-{name}.npy")
                np.save(path, TraceGenerator(spec, scale=scale).arrays())
                cells_left[path] = 0
                for config in first:
                    submit(name, config, path)
            while pending:
                settle()
        finally:
            pool.shutdown(cancel_futures=True)

    cpma: Dict[str, Dict[str, float]] = {}
    bandwidth: Dict[str, Dict[str, float]] = {}
    bus_power: Dict[str, Dict[str, float]] = {}
    replay: Dict[str, Dict[str, ReplayStats]] = {}
    for name in workloads:
        cpma[name] = {}
        bandwidth[name] = {}
        bus_power[name] = {}
        replay[name] = {}
        for config in configs:
            if config.name == _DRAM_64MB and name in derived:
                stats = copy.deepcopy(replay[name][_DRAM_32MB])
            else:
                stats, report, _ = cells[name, config.name].result()
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
        derived_64mb=[name for name in workloads if name in derived],
    )


def run_thermal_study(
    solver: Optional[SolverConfig] = None,
) -> Dict[str, float]:
    """Solve the four configurations thermally (Figure 8a).

    Returns peak temperature per configuration name.
    """
    # Imported here, not at module level: only a heat solve pays for
    # scipy, so the performance study and ``repro.core`` stay light.
    from repro.thermal.solver import solve_steady_state

    return {
        config.name: solve_steady_state(
            build_stack(config.dies), solver
        ).peak_temperature()
        for config in build_memory_configs()
    }


def run_memory_study(
    workloads: Optional[List[str]] = None,
    scale: int = 8,
    length_factor: float = 1.0,
    solver: Optional[SolverConfig] = None,
) -> MemoryOnLogicResult:
    """The complete Section 3 study: performance plus thermals."""
    result = run_performance_study(workloads, scale, length_factor)
    result.peak_temps = run_thermal_study(solver)
    return result

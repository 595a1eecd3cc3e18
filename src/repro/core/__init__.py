"""The paper's primary contribution: 3D die-stacked microarchitecture
design and evaluation.

This package ties the substrates together into the two studies of the
paper:

* :mod:`repro.core.memory_on_logic` — Section 3: the four Memory+Logic
  configurations (4 MB baseline, +8 MB SRAM, 32 MB DRAM, 64 MB DRAM),
  their memory-hierarchy performance on the RMS workloads, and their
  thermals.
* :mod:`repro.core.logic_on_logic` — Section 4: the Logic+Logic split of
  the Pentium 4-class machine, its performance/power/thermals, and the
  Table 5 DVFS trade-offs.
* :mod:`repro.core.experiments` — the registry mapping every table and
  figure in the paper to a runnable experiment.

Both studies describe their physical stacks (Figure 1) as lists of
:class:`repro.thermal.stack.DieSpec`, heat-sink die first, for the one
stack builder, :func:`repro.thermal.stack.build_stack`.
"""

from repro.core.memory_on_logic import (
    MemoryOnLogicConfig,
    MemoryOnLogicResult,
    build_memory_configs,
    run_memory_study,
)
from repro.core.logic_on_logic import (
    LogicOnLogicResult,
    run_logic_study,
    thermal_map_3d_power,
)
from repro.core.experiments import get_experiment, list_experiments

__all__ = [
    "MemoryOnLogicConfig",
    "MemoryOnLogicResult",
    "build_memory_configs",
    "run_memory_study",
    "LogicOnLogicResult",
    "run_logic_study",
    "thermal_map_3d_power",
    "get_experiment",
    "list_experiments",
]

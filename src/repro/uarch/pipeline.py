"""Pipe-stage description of the deeply pipelined microprocessor.

Section 4 works "at constant frequency and focuses on eliminating pipe
stages in the microarchitecture", where *pipe stage* includes every staged
path in the machine — cache hierarchy, store retirement, post-completion
resource recovery — so the total stage count is much larger than the
branch miss-prediction penalty (which itself exceeds 30 cycles).

A :class:`PipelineConfig` holds the stage count of each functional area in
Table 4.  :func:`planar_pipeline` is the 2D baseline; ``stacked_pipeline``
applies the 3D floorplan's stage eliminations, matching Table 4's
"% of Stages Eliminated" column row by row.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

@dataclass(frozen=True)
class PipelineConfig:
    """Per-functional-area pipe-stage counts.

    Attributes mirror Table 4's rows:

    Attributes:
        front_end: Fetch/decode pipeline stages.
        trace_cache: Trace-cache read stages.
        rename_alloc: Rename/allocation stages.
        fp_wire_latency: Extra FP-instruction latency cycles due to the
            planar RF -> SIMD -> FP wire route (the two cycles the paper
            says the planar floorplan adds to all FP instructions).
        int_rf_read: Integer register-file read stages.
        data_cache_read: L1 data-cache read stages (load-to-use wire).
        instruction_loop: Scheduler/replay loop stages.
        retire_dealloc: Retirement-to-resource-deallocation stages.
        fp_load_latency: FP load pipeline stages.
        store_lifetime: Post-retirement store lifetime stages (store queue
            residency until the line is written and the entry recovered).
        store_queue_entries: Store queue capacity.
        rob_entries: Reorder-buffer capacity.
        issue_width: Peak sustainable micro-ops per cycle.
        exec_fp_latency: Intrinsic (non-wire) FP execute latency.
        l1_load_latency: Intrinsic L1 load-to-use latency excluding the
            wire stages counted in ``data_cache_read``.
    """

    front_end: int = 8
    trace_cache: int = 5
    rename_alloc: int = 4
    fp_wire_latency: int = 2
    int_rf_read: int = 4
    data_cache_read: int = 4
    instruction_loop: int = 6
    retire_dealloc: int = 5
    fp_load_latency: int = 14
    store_lifetime: int = 10
    store_queue_entries: int = 24
    rob_entries: int = 126
    issue_width: float = 3.0
    exec_fp_latency: int = 4
    l1_load_latency: int = 2

    def __post_init__(self) -> None:
        for name in (
            "front_end", "trace_cache", "rename_alloc", "int_rf_read",
            "data_cache_read", "instruction_loop", "retire_dealloc",
            "fp_load_latency", "store_lifetime",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1 stage")
        if self.fp_wire_latency < 0:
            raise ValueError("fp_wire_latency must be >= 0")

    @property
    def mispredict_penalty(self) -> int:
        """Branch miss-prediction penalty: the front-end refill loop.

        front end + trace cache + rename + scheduler loop + RF read, plus
        a fixed execute/resolve component.  Exceeds 30 cycles in the
        planar machine, as the paper states.
        """
        return (
            self.front_end
            + self.trace_cache
            + self.rename_alloc
            + self.instruction_loop
            + self.int_rf_read
            + 4  # execute + branch resolution
        )

    @property
    def load_to_use(self) -> int:
        """Load-to-use latency: intrinsic access plus wire stages."""
        return self.l1_load_latency + self.data_cache_read

    @property
    def fp_latency(self) -> int:
        """FP instruction latency including planar wire overhead."""
        return self.exec_fp_latency + self.fp_wire_latency

    @property
    def total_stages(self) -> int:
        """Total counted pipe stages across the functional areas."""
        return (
            self.front_end + self.trace_cache + self.rename_alloc
            + self.fp_wire_latency + self.int_rf_read + self.data_cache_read
            + self.instruction_loop + self.retire_dealloc
            + self.fp_load_latency + self.store_lifetime
        )

    def stage_counts(self) -> Dict[str, int]:
        """Stage count per Table 4 functional area."""
        return {
            "front_end": self.front_end,
            "trace_cache": self.trace_cache,
            "rename_alloc": self.rename_alloc,
            "fp_wire": self.fp_wire_latency,
            "int_rf_read": self.int_rf_read,
            "data_cache_read": self.data_cache_read,
            "instruction_loop": self.instruction_loop,
            "retire_dealloc": self.retire_dealloc,
            "fp_load": self.fp_load_latency,
            "store_lifetime": self.store_lifetime,
        }


def planar_pipeline() -> PipelineConfig:
    """The 2D baseline machine."""
    return PipelineConfig()


#: The Table 4 stage eliminations: functional area -> stages removed by
#: the 3D floorplan.  Fractions relative to the planar counts reproduce
#: the published "% of Stages Eliminated" column: front-end 1/8 = 12.5%,
#: trace cache 1/5 = 20%, rename 1/4 = 25%, FP wire 2/2 (the "variable"
#: row), int RF 1/4 = 25%, D$ read 1/4 = 25%, instruction loop 1/6 = 17%,
#: retire 1/5 = 20%, FP load 5/14 = 36% (~35%), store lifetime 3/10 = 30%.
TABLE4_ELIMINATIONS: Dict[str, int] = {
    "front_end": 1,
    "trace_cache": 1,
    "rename_alloc": 1,
    "fp_wire": 2,
    "int_rf_read": 1,
    "data_cache_read": 1,
    "instruction_loop": 1,
    "retire_dealloc": 1,
    "fp_load": 5,
    "store_lifetime": 3,
}


def stacked_pipeline(
    base: PipelineConfig = None, areas: Dict[str, int] = None
) -> PipelineConfig:
    """Apply the 3D floorplan's stage eliminations to a planar machine.

    Args:
        base: Planar configuration (default :func:`planar_pipeline`).
        areas: Stages to remove per functional area; defaults to the full
            Table 4 set.  Pass a subset to evaluate one row in isolation
            (how the per-row "Perf. Gain" column is produced).

    Returns:
        The shortened configuration.
    """
    base = base or planar_pipeline()
    areas = TABLE4_ELIMINATIONS if areas is None else areas
    field_map = {
        "front_end": "front_end",
        "trace_cache": "trace_cache",
        "rename_alloc": "rename_alloc",
        "fp_wire": "fp_wire_latency",
        "int_rf_read": "int_rf_read",
        "data_cache_read": "data_cache_read",
        "instruction_loop": "instruction_loop",
        "retire_dealloc": "retire_dealloc",
        "fp_load": "fp_load_latency",
        "store_lifetime": "store_lifetime",
    }
    changes = {}
    for area, removed in areas.items():
        if area not in field_map:
            raise KeyError(
                f"unknown functional area {area!r}; known: {sorted(field_map)}"
            )
        field = field_map[area]
        current = getattr(base, field)
        minimum = 0 if area == "fp_wire" else 1
        if current - removed < minimum:
            raise ValueError(
                f"cannot remove {removed} stages from {area} ({current} present)"
            )
        changes[field] = current - removed
    return replace(base, **changes)


def stages_eliminated_fraction(
    planar: PipelineConfig, stacked: PipelineConfig
) -> float:
    """Fraction of all counted pipe stages eliminated (paper: ~25%)."""
    return 1.0 - stacked.total_stages / planar.total_stages

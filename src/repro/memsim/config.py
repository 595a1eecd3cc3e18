"""Memory hierarchy configuration (Table 3 of the paper).

All latencies are in core clock cycles.  The published parameters:

=====================  ==================================================
Parameter              Value
=====================  ==================================================
L1D cache              32 KB, 64 B line, 8-way, 4 cyc
Shared L2              4 MB, 64 B line, 16-way, 16 cyc
Stacked L2 (SRAM)      12 MB, 24 cyc
Stacked L2 (DRAM)      4-64 MB, 512 B page, 16 banks, 64 B sectors
DDR main memory        16 banks, 4 KB page, 192 cyc
Bank delays (both)     page open 50, precharge 54, read 50
Off-die bus BW         16 GB/s
=====================  ==================================================

The off-die bus is modeled at 4 bytes per core cycle (16 GB/s at the
4 GHz core clock the cycle-denominated latencies imply), and bus power at
the 20 mW/Gb/s figure Section 3 uses for its 0.5 W savings estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

KB = 1 << 10
MB = 1 << 20


@dataclass(frozen=True)
class CacheConfig:
    """A conventional SRAM cache level."""

    size_bytes: int
    ways: int
    latency: int
    line_bytes: int = 64

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.ways <= 0 or self.line_bytes <= 0:
            raise ValueError("cache dimensions must be positive")
        if self.size_bytes % (self.ways * self.line_bytes) != 0:
            raise ValueError(
                f"size {self.size_bytes} not divisible into {self.ways} ways "
                f"of {self.line_bytes}B lines"
            )
        if self.latency < 1:
            raise ValueError("latency must be >= 1 cycle")

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)


@dataclass(frozen=True)
class DramBankTiming:
    """Bank delays shared by the stacked DRAM cache and DDR memory
    (Table 3): page open 50, precharge 54, read 50 cycles."""

    page_open: int = 50
    precharge: int = 54
    read: int = 50
    #: Bank occupancy of one data burst.  The read delay above is the full
    #: RAS/CAS-to-data latency; back-to-back reads to an open page pipeline
    #: at the burst rate, so the bank is only *occupied* for this long.
    burst: int = 8

    def __post_init__(self) -> None:
        if min(self.page_open, self.precharge, self.read, self.burst) < 0:
            raise ValueError("bank delays must be non-negative")
        if self.burst > self.read:
            raise ValueError("burst occupancy cannot exceed the read latency")


@dataclass(frozen=True)
class DramCacheConfig:
    """The stacked DRAM cache: banked, paged, sectored.

    Tags live on the processor die (Section 3), so the tag lookup costs
    ``tag_latency`` before the d2d-via access to the DRAM die itself.
    """

    size_bytes: int = 32 * MB
    page_bytes: int = 512
    sector_bytes: int = 64
    banks: int = 16
    ways: int = 8
    timing: DramBankTiming = field(default_factory=DramBankTiming)
    tag_latency: int = 16
    d2d_latency: int = 4
    page_policy: str = "open"

    def __post_init__(self) -> None:
        if self.size_bytes % (self.page_bytes * self.ways) != 0:
            raise ValueError("DRAM cache size must divide into pages and ways")
        if self.page_bytes % self.sector_bytes != 0:
            raise ValueError("page size must be a multiple of the sector size")
        if self.page_policy not in ("open", "closed"):
            raise ValueError(
                f"page_policy must be 'open' or 'closed', got {self.page_policy!r}"
            )

    @property
    def sectors_per_page(self) -> int:
        return self.page_bytes // self.sector_bytes

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.page_bytes * self.ways)

    @property
    def n_sectors(self) -> int:
        return self.size_bytes // self.sector_bytes

    def tag_store_bytes(self, bytes_per_sector_entry: int = 4) -> int:
        """Size of the on-die tag structure, bytes.

        Tags are kept at sector granularity (tag + valid + dirty + LRU
        state per 64 B sector, ~4 bytes each), reproducing the paper's
        accounting: "the tag size increases the size of the baseline die
        by about 2MB" for the 32 MB cache, and "for ... 64MB DRAM the
        tag size is about 4MB, and the existing 4MB cache on the
        baseline die is used to store the tags".
        """
        if bytes_per_sector_entry <= 0:
            raise ValueError("tag entry size must be positive")
        return self.n_sectors * bytes_per_sector_entry

    def tag_area_overhead(self, reference_sram_bytes: int = 4 * MB) -> float:
        """Tag store as a fraction of a reference SRAM (the 4 MB L2 that
        occupied ~50% of the baseline die)."""
        return self.tag_store_bytes() / reference_sram_bytes


@dataclass(frozen=True)
class DdrConfig:
    """Banked DDR main memory (Table 3)."""

    banks: int = 16
    page_bytes: int = 4096
    timing: DramBankTiming = field(default_factory=DramBankTiming)
    #: Fixed controller/transport overhead so a typical access totals the
    #: published 192 cycles (88 + ~100 cycles of bank activity).
    controller_latency: int = 88
    #: If True, main memory sits *in the stack* behind the d2d vias — the
    #: assumption of the prior work the paper contrasts with ("the prior
    #: work assumes that all of main memory can be integrated into the 3D
    #: stack").  Accesses then skip the off-die bus entirely and see a
    #: leaner on-stack controller.
    on_stack: bool = False
    #: Controller overhead when on_stack (no board-level transport).
    on_stack_controller_latency: int = 20
    #: d2d hop when on_stack, cycles.
    d2d_latency: int = 4


@dataclass(frozen=True)
class BusConfig:
    """The off-die bus between the L2 and main memory."""

    bytes_per_cycle: float = 4.0      # 16 GB/s at a 4 GHz core clock
    power_mw_per_gbps: float = 20.0   # Section 3's bus power figure

    def __post_init__(self) -> None:
        if self.bytes_per_cycle <= 0:
            raise ValueError("bus bandwidth must be positive")


@dataclass(frozen=True)
class HierarchyConfig:
    """A complete hierarchy: per-core L1s, optional shared L2, optional
    stacked level (SRAM cache or DRAM cache), bus, and DDR memory."""

    n_cpus: int = 2
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * KB, ways=8, latency=4)
    )
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * KB, ways=8, latency=4)
    )
    l2: Optional[CacheConfig] = field(
        default_factory=lambda: CacheConfig(4 * MB, ways=16, latency=16)
    )
    stacked_sram: Optional[CacheConfig] = None
    stacked_dram: Optional[DramCacheConfig] = None
    ddr: DdrConfig = field(default_factory=DdrConfig)
    bus: BusConfig = field(default_factory=BusConfig)
    mshrs_per_cpu: int = 8
    #: In-flight memory references per cpu (the reorder-buffer window the
    #: replay engine uses for flow control; ~a 128-entry ROB at a ~40%
    #: memory-reference density).
    reorder_window: int = 48
    #: Lines fetched ahead by the on-die next-line prefetcher (which never
    #: crosses the off-die bus; see the prefetch step of
    #: MemoryHierarchy._compile_walk).
    prefetch_degree: int = 4
    core_clock_ghz: float = 4.0

    def __post_init__(self) -> None:
        if self.n_cpus < 1:
            raise ValueError("need at least one cpu")
        if self.stacked_sram is not None and self.stacked_dram is not None:
            raise ValueError("choose one stacked level, not both")
        if self.mshrs_per_cpu < 1:
            raise ValueError("need at least one MSHR per cpu")
        if self.reorder_window < 1:
            raise ValueError("reorder window must be >= 1")


def _scaled(size: int, scale: int) -> int:
    if scale < 1:
        raise ValueError("scale must be >= 1")
    return max(64 * KB, size // scale)


def baseline_config(scale: int = 1) -> HierarchyConfig:
    """Figure 7(a): the 2D baseline with the on-die 4 MB L2.

    *scale* divides cache capacities (L2 and stacked levels, not the L1)
    for scaled-down runs; footprints in the workload generators are scaled
    by the same factor so hit/miss behaviour is preserved (see DESIGN.md).
    """
    return HierarchyConfig(
        l2=CacheConfig(_scaled(4 * MB, scale), ways=16, latency=16)
    )


def stacked_sram_config(scale: int = 1) -> HierarchyConfig:
    """Figure 7(b): +8 MB stacked SRAM for a 12 MB total L2.

    Modeled as the paper describes: the L2 grows to 12 MB with a 24-cycle
    access (the stacked portion is an extension of the same L2, reached
    through d2d vias).
    """
    return HierarchyConfig(
        l2=CacheConfig(_scaled(4 * MB, scale), ways=16, latency=16),
        stacked_sram=CacheConfig(_scaled(8 * MB, scale), ways=16, latency=24),
    )


def stacked_dram_config(capacity_mb: int = 32, scale: int = 1) -> HierarchyConfig:
    """Figures 7(c)/(d): stacked DRAM cache of 32 or 64 MB.

    For the 32 MB option the on-die 4 MB SRAM L2 is removed (its area is
    reclaimed for DRAM tags); for 64 MB the 4 MB SRAM is repurposed as the
    tag store, so there is likewise no L2 data cache.  In both cases the
    hierarchy is L1 -> stacked DRAM -> memory, with on-die tags checked at
    SRAM speed.
    """
    if capacity_mb not in (4, 8, 16, 32, 64):
        raise ValueError(f"unsupported stacked DRAM capacity {capacity_mb} MB")
    return HierarchyConfig(
        l2=None,
        stacked_dram=DramCacheConfig(
            size_bytes=_scaled(capacity_mb * MB, scale)
        ),
    )


def stacked_memory_config(scale: int = 1) -> HierarchyConfig:
    """Main memory integrated into the stack (the prior-work assumption).

    Keeps the baseline L1/L2 but serves every L2 miss from on-stack DRAM
    through the d2d vias — no off-die bus.  Used by the ablation that
    motivates the paper's DRAM-*cache* design for workloads whose total
    memory cannot fit a two-die stack.
    """
    return HierarchyConfig(
        l2=CacheConfig(_scaled(4 * MB, scale), ways=16, latency=16),
        ddr=DdrConfig(on_stack=True),
    )

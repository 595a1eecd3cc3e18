"""The per-method hierarchy walk, kept as the reference for the compiled one.

:class:`ReferenceHierarchy` is the original :class:`MemoryHierarchy` class
verbatim: ``access`` and ``ifetch`` walk the levels through a chain of
small methods (``_maybe_prefetch``, ``_install_on_die``,
``_memory_access``, ``_fill_l1`` and the coherence-directory helpers).
:class:`repro.memsim.hierarchy.MemoryHierarchy` builds the same walk once
as closures over its raw state and must stay bit-identical to this one:
``tests/test_memsim_hierarchy.py`` compares results and the whole
hierarchy state after every access.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List

from repro.memsim.bus import OffDieBus
from repro.memsim.cache import SetAssociativeCache
from repro.memsim.config import HierarchyConfig
from repro.memsim.dram import BankedDram
from repro.memsim.dramcache import DramCache, PAGE_MISS, SECTOR_HIT
from repro.memsim.hierarchy import L1, L2, MEMORY, STACKED


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one hierarchy access.

    Attributes:
        completion: Cycle at which the reference is satisfied.
        level: Which level satisfied it (``l1``/``l2``/``stacked``/``memory``).
        offchip: True if the access crossed the off-die bus.
    """

    completion: float
    level: str
    offchip: bool


class ReferenceHierarchy:
    """The hierarchy as a chain of methods (the compiled walk's reference)."""

    def __init__(self, config: HierarchyConfig) -> None:
        self.config = config
        self.l1s = [
            SetAssociativeCache(config.l1d, name=f"l1d-{cpu}")
            for cpu in range(config.n_cpus)
        ]
        self.l1is = [
            SetAssociativeCache(config.l1i, name=f"l1i-{cpu}")
            for cpu in range(config.n_cpus)
        ]
        self.l2 = (
            SetAssociativeCache(config.l2, name="l2") if config.l2 else None
        )
        self.stacked_sram = (
            SetAssociativeCache(config.stacked_sram, name="stacked-sram")
            if config.stacked_sram
            else None
        )
        self.stacked_dram = (
            DramCache(config.stacked_dram) if config.stacked_dram else None
        )
        self.ddr = BankedDram(
            banks=config.ddr.banks,
            page_bytes=config.ddr.page_bytes,
            timing=config.ddr.timing,
            name="ddr",
        )
        self.bus = OffDieBus(config.bus)
        self._line_shift = (config.l1d.line_bytes - 1).bit_length()
        self._line_bytes = config.l1d.line_bytes
        # Coherence directory: line -> bitmask of cpus caching it in L1.
        self._directory: Dict[int, int] = {}
        # Recent L1-miss lines per cpu, for the sequential-stream detector
        # of the on-die prefetcher.
        self._miss_history: List[deque] = [
            deque(maxlen=8) for _ in range(config.n_cpus)
        ]
        self.level_counts = {L1: 0, L2: 0, STACKED: 0, MEMORY: 0}
        self.offchip_accesses = 0
        self.invalidations = 0
        self.prefetches = 0

    # -- coherence helpers ---------------------------------------------------

    def _note_l1_fill(self, cpu: int, line: int) -> None:
        self._directory[line] = self._directory.get(line, 0) | (1 << cpu)

    def _note_l1_evict(self, cpu: int, line: int) -> None:
        mask = self._directory.get(line)
        if mask is None:
            return
        mask &= ~(1 << cpu)
        if mask:
            self._directory[line] = mask
        else:
            del self._directory[line]

    def _invalidate_other_copies(self, cpu: int, line: int) -> None:
        """Invalidate-on-write: drop the line from every other L1."""
        mask = self._directory.get(line, 0) & ~(1 << cpu)
        if not mask:
            return
        for other in range(self.config.n_cpus):
            if mask & (1 << other) and self.l1s[other].invalidate(line):
                self.invalidations += 1
                self._note_l1_evict(other, line)

    def _fill_l1(self, cpu: int, line: int, dirty: bool) -> None:
        victim = self.l1s[cpu].fill(line, dirty)
        self._note_l1_fill(cpu, line)
        if victim is not None:
            victim_line, victim_dirty = victim
            self._note_l1_evict(cpu, victim_line)
            if victim_dirty:
                if self.l2 is not None:
                    # Writeback into the (inclusive-enough) L2; it is
                    # on-die, so no bus traffic.
                    self.l2.fill(victim_line, dirty=True)
                elif self.stacked_dram is not None:
                    # Writeback into the stacked DRAM cache (d2d vias, no
                    # off-die bus traffic).
                    self.stacked_dram.fill(
                        victim_line << self._line_shift, dirty=True
                    )
                elif not self.config.ddr.on_stack:
                    self.bus.account_only(self._line_bytes)

    # -- the access path -----------------------------------------------------

    def ifetch(self, cpu: int, address: int, t: float) -> AccessResult:
        """Instruction fetch: private L1I, then the shared levels.

        Code is read-only, so instruction lines skip the coherence
        directory; a miss fills the L1I (not the L1D) and otherwise
        follows the same on-die path as a data read.
        """
        line = address >> self._line_shift
        l1i = self.l1is[cpu]
        cfg = self.config
        if l1i.lookup(line):
            self.level_counts[L1] += 1
            return AccessResult(t + cfg.l1i.latency, L1, False)
        t_miss = t + cfg.l1i.latency
        if self.l2 is not None and self.l2.lookup(line):
            l1i.fill(line)
            self.level_counts[L2] += 1
            return AccessResult(t_miss + cfg.l2.latency, L2, False)
        # Deeper fetches reuse the data path, then land in the L1I.
        result = self.access(cpu, False, address, t)
        self.l1s[cpu].invalidate(line)
        self._note_l1_evict(cpu, line)
        l1i.fill(line)
        return result

    def access(
        self, cpu: int, write: bool, address: int, t: float
    ) -> AccessResult:
        """Walk the hierarchy for one data reference; returns its outcome."""
        line = address >> self._line_shift
        l1 = self.l1s[cpu]
        cfg = self.config

        if l1.lookup(line, write):
            if write:
                self._invalidate_other_copies(cpu, line)
            self.level_counts[L1] += 1
            return AccessResult(t + cfg.l1d.latency, L1, False)

        t_l1_miss = t + cfg.l1d.latency
        if write:
            self._invalidate_other_copies(cpu, line)
        self._maybe_prefetch(cpu, line)

        # Shared on-die L2.
        if self.l2 is not None and self.l2.lookup(line, write):
            self._fill_l1(cpu, line, write)
            self.level_counts[L2] += 1
            return AccessResult(t_l1_miss + cfg.l2.latency, L2, False)

        t_l2_miss = (
            t_l1_miss + cfg.l2.latency if self.l2 is not None else t_l1_miss
        )

        # Stacked SRAM (the 12 MB option): an L2 extension at 24 cycles.
        if self.stacked_sram is not None:
            if self.stacked_sram.lookup(line, write):
                self._install_on_die(cpu, line, write)
                self.level_counts[STACKED] += 1
                return AccessResult(
                    t_l1_miss + cfg.stacked_sram.latency, STACKED, False
                )
            return self._memory_access(cpu, line, address, t_l2_miss, write)

        # Stacked DRAM cache (the 32/64 MB options): on-die tags, banked
        # sectored data array behind d2d vias.
        if self.stacked_dram is not None:
            dc = self.stacked_dram
            outcome = dc.lookup(address, write)
            t_tags = dc.access_timing(t_l2_miss)
            if outcome == SECTOR_HIT:
                self._fill_l1(cpu, line, write)
                self.level_counts[STACKED] += 1
                return AccessResult(
                    dc.hit_timing(t_l2_miss, address), STACKED, False
                )
            # Sector or page miss: the line comes from main memory and is
            # installed into the DRAM cache (allocating a page on a page
            # miss, writing back any dirty victim sectors over the bus).
            result = self._memory_access(cpu, line, address, t_tags, write)
            victim = dc.fill(address, dirty=write)
            if victim is not None and victim[1] > 0:
                self.bus.account_only(victim[1] * dc.config.sector_bytes)
            if outcome == PAGE_MISS:
                # Opening the new page in the DRAM array overlaps the
                # memory fetch; no extra latency charged.
                pass
            return result

        return self._memory_access(cpu, line, address, t_l2_miss, write)

    def _maybe_prefetch(self, cpu: int, line: int) -> None:
        """On-die next-line prefetcher.

        On a sequential L1 miss (the previous line was missed recently),
        the next line is pulled into the L1 — but only if it is already
        resident on-die or in the stacked level.  The prefetcher never
        crosses the off-die bus, so it spends no memory bandwidth; its
        effect is to hide on-die/stacked latency under streaming.
        """
        history = self._miss_history[cpu]
        sequential = (line - 1) in history or (line - 2) in history
        history.append(line)
        if not sequential:
            return
        l1 = self.l1s[cpu]
        for nxt in range(line + 1, line + 1 + self.config.prefetch_degree):
            if l1.contains(nxt):
                continue
            resident = (
                (self.l2 is not None and self.l2.contains(nxt))
                or (
                    self.stacked_sram is not None
                    and self.stacked_sram.contains(nxt)
                )
                or (
                    self.stacked_dram is not None
                    and self.stacked_dram.contains(nxt << self._line_shift)
                )
            )
            if resident:
                self._fill_l1(cpu, nxt, dirty=False)
                self.prefetches += 1

    def _install_on_die(self, cpu: int, line: int, dirty: bool) -> None:
        """Install a line into the on-die levels (L2 if present, and L1)."""
        if self.l2 is not None:
            victim = self.l2.fill(line, dirty)
            if victim is not None and victim[1]:
                if self.stacked_sram is not None:
                    self.stacked_sram.fill(victim[0], dirty=True)
                elif not self.config.ddr.on_stack:
                    self.bus.account_only(self._line_bytes)
        if self.stacked_sram is not None:
            self.stacked_sram.fill(line, dirty=False)
        self._fill_l1(cpu, line, dirty)

    def _memory_access(
        self, cpu: int, line: int, address: int, t: float, write: bool
    ) -> AccessResult:
        """Fetch a line from DDR memory across the off-die bus."""
        cfg = self.config
        if cfg.ddr.on_stack:
            # Main memory in the stack (prior-work assumption): d2d hop,
            # bank access, lean controller — no off-die bus at all.
            bank_done = self.ddr.access(t + cfg.ddr.d2d_latency, address)
            data_done = bank_done + cfg.ddr.on_stack_controller_latency
            self._install_on_die(cpu, line, write)
            self.level_counts[MEMORY] += 1
            return AccessResult(data_done, MEMORY, False)
        # Address/command beat (the FSB address bus is separate from the
        # data bus, so commands pipeline ahead of returning data), then
        # the bank access plus controller overhead, then the data return
        # occupying the shared data bus.
        cmd_done = t + 2.0
        bank_done = self.ddr.access(cmd_done, address)
        mem_done = bank_done + cfg.ddr.controller_latency
        data_done = self.bus.transfer(mem_done, self._line_bytes)
        self._install_on_die(cpu, line, write)
        self.level_counts[MEMORY] += 1
        self.offchip_accesses += 1
        return AccessResult(data_done, MEMORY, True)

    # -- stats ---------------------------------------------------------------

    @property
    def total_accesses(self) -> int:
        return sum(self.level_counts.values())

    def offchip_fraction(self) -> float:
        total = self.total_accesses
        return self.offchip_accesses / total if total else 0.0

    def reset_stats(self) -> None:
        """Zero all counters, preserving cache/bank/bus state (warmup)."""
        for cache in self.l1s:
            cache.reset_stats()
        for cache in self.l1is:
            cache.reset_stats()
        if self.l2 is not None:
            self.l2.reset_stats()
        if self.stacked_sram is not None:
            self.stacked_sram.reset_stats()
        if self.stacked_dram is not None:
            self.stacked_dram.reset_stats()
        self.ddr.reset_stats()
        self.bus.reset_stats()
        self.level_counts = {L1: 0, L2: 0, STACKED: 0, MEMORY: 0}
        self.invalidations = 0

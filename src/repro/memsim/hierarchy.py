"""The assembled multi-processor memory hierarchy.

Per Figure 4: two cores with private L1 data caches, a shared L2 (absent
in the stacked-DRAM options, where its area is reclaimed for tags), an
optional stacked level (SRAM extension or sectored DRAM cache), and
banked DDR main memory behind a bandwidth-limited off-die bus.

A :attr:`MemoryHierarchy.access` call walks this hierarchy at a given
start time and returns when the reference is satisfied, charging cache
latencies, bank state-machine time, and bus occupancy along the way.
Private L1s are kept coherent with an invalidate-on-write directory.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, List, NamedTuple

from repro.memsim.bus import OffDieBus
from repro.memsim.cache import SetAssociativeCache
from repro.memsim.config import HierarchyConfig
from repro.memsim.dram import BankedDram
from repro.memsim.dramcache import DramCache, SECTOR_HIT

#: Levels an access can be satisfied at (for stats and MSHR accounting).
L1 = "l1"
L2 = "l2"
STACKED = "stacked"
MEMORY = "memory"


class FastPathState(NamedTuple):
    """Hot state handed to the replay loop (see
    :meth:`MemoryHierarchy.fastpath_state`).

    Attributes:
        d_sets: Per-cpu L1D LRU sets (``SetAssociativeCache.fast_state``).
        d_mask: L1D set-index mask.
        i_sets: Per-cpu L1I LRU sets.
        i_mask: L1I set-index mask.
        line_shift: Byte-address to line-number shift.
        lat_l1d: L1D hit latency, cycles.
        lat_l1i: L1I hit latency, cycles.
        invalidate_other_copies: The walk's coherence step for write hits.
    """

    d_sets: List[List[Dict[int, bool]]]
    d_mask: int
    i_sets: List[List[Dict[int, bool]]]
    i_mask: int
    line_shift: int
    lat_l1d: int
    lat_l1i: int
    invalidate_other_copies: Callable[[int, int], None]


class AccessResult(NamedTuple):
    """Outcome of one hierarchy access.

    Attributes:
        completion: Cycle at which the reference is satisfied.
        level: Which level satisfied it (``l1``/``l2``/``stacked``/``memory``).
        offchip: True if the access crossed the off-die bus.
    """

    completion: float
    level: str
    offchip: bool


#: The attributes :meth:`MemoryHierarchy._compile_walk` binds; pickling
#: drops them and rebuilds them from the unpickled state.
_WALK = ("access", "ifetch", "_invalidate_other_copies")


class MemoryHierarchy:
    """Two-core (configurable) cache/memory system with shared timing state.

    Attributes:
        access: ``access(cpu, write, address, t) -> AccessResult`` walks
            the hierarchy for one data reference.
        ifetch: ``ifetch(cpu, address, t) -> AccessResult`` does the same
            for an instruction fetch: private L1I, then the shared levels.
            Code is read-only, so instruction lines skip the coherence
            directory; a miss fills the L1I (not the L1D) and otherwise
            follows the same on-die path as a data read.
    """

    access: Callable[[int, bool, int, float], AccessResult]
    ifetch: Callable[[int, int, float], AccessResult]

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
        self._compile_walk()

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        for name in _WALK:
            del state[name]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._compile_walk()

    # -- the access path -----------------------------------------------------

    def _compile_walk(self) -> None:
        """Bind :attr:`access` and :attr:`ifetch` as closures over the
        raw state.

        The closures hold the very objects the hierarchy owns (cache set
        dicts, the directory, the miss history, ``level_counts``), so
        they stay valid for the hierarchy's life; :meth:`reset_stats`
        zeroes counters in place and pickling rebuilds the closures.
        Per-line bookkeeping is inlined (L1 hit checks through
        :meth:`SetAssociativeCache.fast_state`, the coherence directory,
        invalidate-other and the prefetcher's residency probe); work done
        once per miss calls the level's own method.
        """
        cfg = self.config
        hierarchy = self
        l1s = self.l1s
        l1is = self.l1is
        l2 = self.l2
        sram = self.stacked_sram
        dram = self.stacked_dram
        ddr = self.ddr
        bus = self.bus
        directory = self._directory
        miss_history = self._miss_history
        level_counts = self.level_counts
        line_shift = self._line_shift
        line_bytes = self._line_bytes
        d_sets = [cache.fast_state()[0] for cache in l1s]
        d_mask = l1s[0].fast_state()[1]
        i_sets = [cache.fast_state()[0] for cache in l1is]
        i_mask = l1is[0].fast_state()[1]
        l2_sets, l2_mask = l2.fast_state() if l2 is not None else (None, 0)
        sram_sets, sram_mask = (
            sram.fast_state() if sram is not None else (None, 0)
        )
        lat_l1d = cfg.l1d.latency
        lat_l1i = cfg.l1i.latency
        lat_l2 = cfg.l2.latency if l2 is not None else 0
        lat_sram = cfg.stacked_sram.latency if sram is not None else 0
        sector_bytes = dram.config.sector_bytes if dram is not None else 0
        on_stack = cfg.ddr.on_stack
        d2d_latency = cfg.ddr.d2d_latency
        on_stack_latency = cfg.ddr.on_stack_controller_latency
        controller_latency = cfg.ddr.controller_latency
        degree = cfg.prefetch_degree
        cpus = range(cfg.n_cpus)

        def note_l1_evict(cpu: int, line: int) -> None:
            mask = directory.get(line)
            if mask is None:
                return
            mask &= ~(1 << cpu)
            if mask:
                directory[line] = mask
            else:
                del directory[line]

        def invalidate_other_copies(cpu: int, line: int) -> None:
            """Invalidate-on-write: drop the line from every other L1."""
            mask = directory.get(line, 0) & ~(1 << cpu)
            if not mask:
                return
            for other in cpus:
                if mask & (1 << other) and l1s[other].invalidate(line):
                    hierarchy.invalidations += 1
                    note_l1_evict(other, line)

        def fill_l1(cpu: int, line: int, dirty: bool) -> None:
            victim = l1s[cpu].fill(line, dirty)
            directory[line] = directory.get(line, 0) | (1 << cpu)
            if victim is not None:
                victim_line, victim_dirty = victim
                note_l1_evict(cpu, victim_line)
                if victim_dirty:
                    if l2 is not None:
                        # Writeback into the (inclusive-enough) L2; it is
                        # on-die, so no bus traffic.
                        l2.fill(victim_line, dirty=True)
                    elif dram is not None:
                        # Writeback into the stacked DRAM cache (d2d
                        # vias, no off-die bus traffic).
                        dram.fill(victim_line << line_shift, dirty=True)
                    elif not on_stack:
                        bus.account_only(line_bytes)

        def install_on_die(cpu: int, line: int, dirty: bool) -> None:
            """Install a line into the on-die levels (L2 if present, and L1)."""
            if l2 is not None:
                victim = l2.fill(line, dirty)
                if victim is not None and victim[1]:
                    if sram is not None:
                        sram.fill(victim[0], dirty=True)
                    elif not on_stack:
                        bus.account_only(line_bytes)
            if sram is not None:
                sram.fill(line, dirty=False)
            fill_l1(cpu, line, dirty)

        def from_memory(
            cpu: int, line: int, address: int, t: float, write: bool
        ) -> AccessResult:
            """Fetch a line from DDR memory across the off-die bus."""
            if on_stack:
                # Main memory in the stack (prior-work assumption): d2d
                # hop, bank access, lean controller — no off-die bus.
                data_done = ddr.access(t + d2d_latency, address) + (
                    on_stack_latency
                )
                install_on_die(cpu, line, write)
                level_counts[MEMORY] += 1
                return AccessResult(data_done, MEMORY, False)
            # Address/command beat (the FSB address bus is separate from
            # the data bus, so commands pipeline ahead of returning data),
            # then the bank access plus controller overhead, then the data
            # return occupying the shared data bus.
            mem_done = ddr.access(t + 2.0, address) + controller_latency
            data_done = bus.transfer(mem_done, line_bytes)
            install_on_die(cpu, line, write)
            level_counts[MEMORY] += 1
            hierarchy.offchip_accesses += 1
            return AccessResult(data_done, MEMORY, True)

        def access(
            cpu: int, write: bool, address: int, t: float
        ) -> AccessResult:
            line = address >> line_shift
            entries = d_sets[cpu][line & d_mask]
            previous = entries.pop(line, None)
            if previous is not None:
                entries[line] = previous or write
                l1s[cpu].hits += 1
                if write:
                    invalidate_other_copies(cpu, line)
                level_counts[L1] += 1
                return AccessResult(t + lat_l1d, L1, False)
            l1s[cpu].misses += 1

            t_l1_miss = t + lat_l1d
            if write:
                invalidate_other_copies(cpu, line)
            # On-die next-line prefetcher.  On a sequential L1 miss (the
            # previous line was missed recently), the next lines are
            # pulled into the L1 — but only those already resident
            # on-die or in the stacked level.  It never crosses the
            # off-die bus, so it spends no memory bandwidth; its effect
            # is to hide on-die/stacked latency under streaming.
            history = miss_history[cpu]
            sequential = (line - 1) in history or (line - 2) in history
            history.append(line)
            if sequential:
                own = d_sets[cpu]
                for nxt in range(line + 1, line + 1 + degree):
                    if nxt in own[nxt & d_mask]:
                        continue
                    if (
                        (l2_sets is not None and nxt in l2_sets[nxt & l2_mask])
                        or (
                            sram_sets is not None
                            and nxt in sram_sets[nxt & sram_mask]
                        )
                        or (
                            dram is not None
                            and dram.contains(nxt << line_shift)
                        )
                    ):
                        fill_l1(cpu, nxt, False)
                        hierarchy.prefetches += 1

            # Shared on-die L2.
            t_l2_miss = t_l1_miss
            if l2 is not None:
                if l2.lookup(line, write):
                    fill_l1(cpu, line, write)
                    level_counts[L2] += 1
                    return AccessResult(t_l1_miss + lat_l2, L2, False)
                t_l2_miss = t_l1_miss + lat_l2

            # Stacked SRAM (the 12 MB option): an L2 extension at 24
            # cycles.
            if sram is not None:
                if sram.lookup(line, write):
                    install_on_die(cpu, line, write)
                    level_counts[STACKED] += 1
                    return AccessResult(t_l1_miss + lat_sram, STACKED, False)
                return from_memory(cpu, line, address, t_l2_miss, write)

            # Stacked DRAM cache (the 32/64 MB options): on-die tags,
            # banked sectored data array behind d2d vias.
            if dram is not None:
                outcome = dram.lookup(address, write)
                if outcome == SECTOR_HIT:
                    fill_l1(cpu, line, write)
                    level_counts[STACKED] += 1
                    return AccessResult(
                        dram.hit_timing(t_l2_miss, address), STACKED, False
                    )
                # Sector or page miss: the line comes from main memory
                # and is installed into the DRAM cache (allocating a page
                # on a page miss, whose opening overlaps the memory fetch,
                # and writing back any dirty victim sectors over the bus).
                result = from_memory(
                    cpu, line, address, dram.access_timing(t_l2_miss), write
                )
                victim = dram.fill(address, dirty=write)
                if victim is not None and victim[1] > 0:
                    bus.account_only(victim[1] * sector_bytes)
                return result

            return from_memory(cpu, line, address, t_l2_miss, write)

        def ifetch(cpu: int, address: int, t: float) -> AccessResult:
            line = address >> line_shift
            l1i = l1is[cpu]
            entries = i_sets[cpu][line & i_mask]
            previous = entries.pop(line, None)
            if previous is not None:
                entries[line] = previous
                l1i.hits += 1
                level_counts[L1] += 1
                return AccessResult(t + lat_l1i, L1, False)
            l1i.misses += 1
            t_miss = t + lat_l1i
            if l2 is not None and l2.lookup(line):
                l1i.fill(line)
                level_counts[L2] += 1
                return AccessResult(t_miss + lat_l2, L2, False)
            # Deeper fetches reuse the data path, then land in the L1I.
            result = access(cpu, False, address, t)
            l1s[cpu].invalidate(line)
            note_l1_evict(cpu, line)
            l1i.fill(line)
            return result

        self.access = access
        self.ifetch = ifetch
        self._invalidate_other_copies = invalidate_other_copies

    # -- the replay loop's inlined L1 hit ------------------------------------

    def fastpath_state(self) -> FastPathState:
        """Bundle the hot L1/coherence state for the replay loop.

        The replay loop (:meth:`repro.memsim.replay.TraceReplayer.
        feed_array`) inlines the L1 hit — the one walked by ~90% of
        references — directly against these dicts, following the
        :meth:`SetAssociativeCache.fast_state` contract.  Every L1 miss
        must go through :attr:`access`/:attr:`ifetch`, and bypassed hit
        counts must be flushed back with :meth:`flush_fast_counts` so
        every counter matches the loop's reference mode, where every
        reference takes that walk.
        """
        return FastPathState(
            d_sets=[cache.fast_state()[0] for cache in self.l1s],
            d_mask=self.l1s[0].fast_state()[1],
            i_sets=[cache.fast_state()[0] for cache in self.l1is],
            i_mask=self.l1is[0].fast_state()[1],
            line_shift=self._line_shift,
            lat_l1d=self.config.l1d.latency,
            lat_l1i=self.config.l1i.latency,
            invalidate_other_copies=self._invalidate_other_copies,
        )

    def flush_fast_counts(
        self, d_hits: List[int], i_hits: List[int], l1_level_count: int
    ) -> None:
        """Fold fast-path hit tallies back into the real counters."""
        for cpu, hits in enumerate(d_hits):
            if hits:
                self.l1s[cpu].add_fast_hits(hits)
        for cpu, hits in enumerate(i_hits):
            if hits:
                self.l1is[cpu].add_fast_hits(hits)
        if l1_level_count:
            self.level_counts[L1] += l1_level_count

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
        for level in self.level_counts:
            self.level_counts[level] = 0
        self.invalidations = 0

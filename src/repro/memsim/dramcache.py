"""The stacked 3D DRAM cache: banked, paged, sectored, tags on the CPU die.

Section 3's DRAM cache organization: 512 B pages allocated in a
set-associative tag structure held on the processor die, with 64 B
sectors fetched on demand (a page can be present with only some sectors
valid).  The DRAM array itself is reached through die-to-die vias and is
modeled with the same 16-bank RAS/CAS state machine as main memory
(Table 3 gives both the same bank delays).

A lookup therefore has three outcomes:

* **sector hit** — tag match and the sector is valid: pay tag + d2d +
  bank time.
* **sector miss** — tag match but the sector has not been fetched yet:
  the line comes from memory and is installed into the (already
  allocated) page.
* **page miss** — no tag match: a victim page is evicted, a new page is
  allocated, and the requested sector is fetched from memory.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.memsim.config import DramCacheConfig
from repro.memsim.dram import BankedDram

#: Lookup outcome codes.
SECTOR_HIT = 0
SECTOR_MISS = 1
PAGE_MISS = 2


class DramCache:
    """Sectored set-associative DRAM cache with banked timing."""

    def __init__(self, config: DramCacheConfig, name: str = "dram-cache") -> None:
        self.config = config
        self.name = name
        self.n_sets = config.n_sets
        self._set_mask = self.n_sets - 1
        if self.n_sets & self._set_mask:
            raise ValueError(
                f"{name}: number of page sets ({self.n_sets}) must be a "
                "power of two"
            )
        # Each set maps page number -> sector-valid bitmask (insertion
        # order = LRU order, like SetAssociativeCache).
        self._sets: List[Dict[int, int]] = [dict() for _ in range(self.n_sets)]
        self._dirty: List[Dict[int, int]] = [dict() for _ in range(self.n_sets)]
        self.banks = BankedDram(
            banks=config.banks,
            page_bytes=config.page_bytes,
            timing=config.timing,
            open_page_policy=(config.page_policy == "open"),
            name=f"{name}-banks",
        )
        self._line_shift = (config.sector_bytes - 1).bit_length()
        self._sectors_mask = config.sectors_per_page - 1
        self._page_shift = (config.page_bytes - 1).bit_length()
        self.sector_hits = 0
        self.sector_misses = 0
        self.page_misses = 0
        self.page_evictions = 0
        # Every eviction since construction: reset_stats() leaves it, so
        # it tells whether the cache ever evicted, warmup included.
        self.lifetime_page_evictions = 0
        self.dirty_sector_writebacks = 0

    # -- geometry ----------------------------------------------------------

    def page_of(self, address: int) -> int:
        return address >> self._page_shift

    def sector_of(self, address: int) -> int:
        return (address >> self._line_shift) & self._sectors_mask

    # -- operations ----------------------------------------------------------

    def lookup(self, address: int, write: bool = False) -> int:
        """Probe the tag structure; returns SECTOR_HIT/SECTOR_MISS/PAGE_MISS.

        Updates LRU and (on write hits) the dirty mask.  Does not allocate;
        call :meth:`fill` after fetching the sector from memory.
        """
        page = self.page_of(address)
        index = page & self._set_mask
        entries = self._sets[index]
        mask = entries.pop(page, None)
        if mask is None:
            self.page_misses += 1
            return PAGE_MISS
        entries[page] = mask  # refresh LRU position
        bit = 1 << self.sector_of(address)
        if mask & bit:
            self.sector_hits += 1
            if write:
                self._dirty[index][page] = self._dirty[index].get(page, 0) | bit
            return SECTOR_HIT
        self.sector_misses += 1
        return SECTOR_MISS

    def fill(
        self, address: int, dirty: bool = False
    ) -> Optional[Tuple[int, int]]:
        """Install the sector containing *address*, allocating its page.

        Returns ``(victim_page, dirty_sector_count)`` if a page was
        evicted, else None.  The caller charges writeback bandwidth for
        the dirty sectors.
        """
        page = self.page_of(address)
        index = page & self._set_mask
        entries = self._sets[index]
        dirty_map = self._dirty[index]
        victim = None
        if page not in entries and len(entries) >= self.config.ways:
            victim_page = next(iter(entries))
            entries.pop(victim_page)
            victim_dirty = dirty_map.pop(victim_page, 0)
            count = bin(victim_dirty).count("1")
            self.page_evictions += 1
            self.lifetime_page_evictions += 1
            self.dirty_sector_writebacks += count
            victim = (victim_page, count)
        bit = 1 << self.sector_of(address)
        mask = entries.pop(page, 0)
        entries[page] = mask | bit
        if dirty:
            dirty_map[page] = dirty_map.get(page, 0) | bit
        return victim

    def access_timing(self, t: float) -> float:
        """Tag-check component of an access starting at *t* (on-die tags)."""
        return t + self.config.tag_latency

    def data_timing(self, t: float, address: int) -> float:
        """DRAM-array component: d2d-via hop plus bank activity."""
        return self.banks.access(t + self.config.d2d_latency, address)

    def hit_timing(self, t: float, address: int) -> float:
        """Completion time of a sector hit starting at *t*.

        The on-die tag check proceeds in parallel with a speculative bank
        access through the d2d vias (the dense face-to-face interface makes
        the speculation cheap); the hit completes when both are done.
        """
        tag_done = t + self.config.tag_latency
        data_done = self.data_timing(t, address)
        return tag_done if tag_done > data_done else data_done

    # -- stats ---------------------------------------------------------------

    @property
    def accesses(self) -> int:
        return self.sector_hits + self.sector_misses + self.page_misses

    @property
    def hit_rate(self) -> float:
        return self.sector_hits / self.accesses if self.accesses else 0.0

    def contains(self, address: int) -> bool:
        """Sector-valid check without touching LRU state or stats."""
        page = self.page_of(address)
        mask = self._sets[page & self._set_mask].get(page)
        if mask is None:
            return False
        return bool(mask & (1 << self.sector_of(address)))

    def resident_pages(self) -> int:
        return sum(len(entries) for entries in self._sets)

    def reset_stats(self) -> None:
        """Zero counters without disturbing contents (for warmup).

        ``lifetime_page_evictions`` is not a statistic and is kept.
        """
        self.sector_hits = self.sector_misses = self.page_misses = 0
        self.page_evictions = self.dirty_sector_writebacks = 0
        self.banks.reset_stats()

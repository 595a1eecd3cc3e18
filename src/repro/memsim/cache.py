"""Set-associative SRAM cache with LRU replacement.

Designed for replay speed: each set is a plain dict mapping tag -> dirty
flag; dict insertion order is the LRU order (lookup re-inserts, eviction
pops the oldest entry), giving O(1) hit, fill, and evict.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.memsim.config import CacheConfig


class SetAssociativeCache:
    """An LRU set-associative cache operating on line addresses.

    The cache works on *line numbers* (byte address >> line shift); the
    hierarchy does the shifting once per access.
    """

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self.n_sets = config.n_sets
        self._set_mask = self.n_sets - 1
        if self.n_sets & self._set_mask:
            raise ValueError(
                f"{name}: number of sets ({self.n_sets}) must be a power of two"
            )
        self._sets: List[Dict[int, bool]] = [dict() for _ in range(self.n_sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0

    def lookup(self, line: int, write: bool = False) -> bool:
        """True on hit (updates LRU and the dirty bit), False on miss."""
        index = line & self._set_mask
        entries = self._sets[index]
        dirty = entries.pop(line, None)
        if dirty is None:
            self.misses += 1
            return False
        entries[line] = dirty or write  # re-insert as most recent
        self.hits += 1
        return True

    def fill(self, line: int, dirty: bool = False) -> Optional[Tuple[int, bool]]:
        """Install a line; returns ``(victim_line, victim_dirty)`` if a
        line was evicted, else None.

        Re-filling an already-resident line refreshes its LRU position
        without evicting anything, and *merges* the dirty bit: a line
        dirtied by an earlier write stays dirty when re-installed clean,
        so its eventual eviction still writes it back.
        """
        index = line & self._set_mask
        entries = self._sets[index]
        victim = None
        previous = entries.pop(line, None)
        if previous is None and len(entries) >= self.config.ways:
            victim_line = next(iter(entries))
            victim_dirty = entries.pop(victim_line)
            victim = (victim_line, victim_dirty)
            self.evictions += 1
            if victim_dirty:
                self.writebacks += 1
        entries[line] = dirty if previous is None else (previous or dirty)
        return victim

    def invalidate(self, line: int) -> bool:
        """Drop a line if present; returns True if it was present."""
        index = line & self._set_mask
        return self._sets[index].pop(line, None) is not None

    def contains(self, line: int) -> bool:
        """Presence check without touching LRU state or stats."""
        return line in self._sets[line & self._set_mask]

    # -- integer-keyed fast path --------------------------------------------

    def fast_state(self) -> Tuple[List[Dict[int, bool]], int]:
        """The ``(sets, mask)`` pair backing the replay loop's inlined hit.

        Contract (mirrors :meth:`lookup` exactly): the caller indexes
        ``sets[line & mask]``, tests a hit with ``entries.pop(line,
        None)``, and on a hit re-inserts the line as most-recent with
        ``entries[line] = previous_dirty or write``.  Hits handled this
        way bypass the :attr:`hits` counter and MUST be credited back
        with :meth:`add_fast_hits`; misses must go through the normal
        :meth:`lookup`/:meth:`fill` path so miss/eviction/writeback
        accounting stays exact.
        """
        return self._sets, self._set_mask

    def add_fast_hits(self, n: int) -> None:
        """Credit *n* hits recorded by a fast-path caller (see
        :meth:`fast_state`)."""
        self.hits += n

    def resident_lines(self) -> int:
        """Number of lines currently resident (for tests/inspection)."""
        return sum(len(entries) for entries in self._sets)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def reset_stats(self) -> None:
        """Zero counters without disturbing cache contents (for warmup)."""
        self.hits = self.misses = self.evictions = self.writebacks = 0

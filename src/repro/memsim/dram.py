"""Banked DRAM timing model (shared by DDR memory and the stacked cache).

Each bank keeps its open page and the time it becomes free.  An access
pays the Table 3 bank delays according to the page state:

* page hit  — ``read`` (50 cycles);
* page empty — ``page_open + read`` (100 cycles);
* page conflict — ``precharge + page_open + read`` (154 cycles).

Banks serialize their own accesses (an access waits for the bank to go
free) but different banks proceed in parallel — the address-interleaved
banking Table 3 specifies.
"""

from __future__ import annotations

from typing import List, Optional

from repro.memsim.config import DramBankTiming


class BankedDram:
    """Bank state machine for an address-interleaved banked DRAM."""

    def __init__(
        self,
        banks: int,
        page_bytes: int,
        timing: DramBankTiming,
        open_page_policy: bool = True,
        name: str = "dram",
    ) -> None:
        if banks < 1 or page_bytes < 1:
            raise ValueError("banks and page size must be positive")
        self.name = name
        self.n_banks = banks
        self.page_bytes = page_bytes
        self.timing = timing
        self.open_page_policy = open_page_policy
        self._open_page: List[Optional[int]] = [None] * banks
        self._bank_free: List[float] = [0.0] * banks
        self.page_hits = 0
        self.page_empties = 0
        self.page_conflicts = 0

    def bank_of(self, address: int) -> int:
        """Bank an address maps to (pages interleaved across banks)."""
        return (address // self.page_bytes) % self.n_banks

    def access(self, t: float, address: int) -> float:
        """Perform an access arriving at time *t*; returns completion time."""
        page = address // self.page_bytes
        bank = page % self.n_banks
        start = t if t > self._bank_free[bank] else self._bank_free[bank]
        timing = self.timing
        open_page = self._open_page[bank]
        if open_page == page:
            latency = timing.read
            self.page_hits += 1
        elif open_page is None:
            latency = timing.page_open + timing.read
            self.page_empties += 1
        else:
            latency = timing.precharge + timing.page_open + timing.read
            self.page_conflicts += 1
        # The access *latency* includes the full read delay, but the bank
        # is only *occupied* until the burst completes: back-to-back reads
        # to an open page pipeline at the burst rate.
        occupancy = latency - timing.read + timing.burst
        self._bank_free[bank] = start + occupancy
        self._open_page[bank] = page if self.open_page_policy else None
        return start + latency

    @property
    def accesses(self) -> int:
        return self.page_hits + self.page_empties + self.page_conflicts

    def reset_stats(self) -> None:
        """Zero counters without disturbing bank state (for warmup)."""
        self.page_hits = self.page_empties = self.page_conflicts = 0

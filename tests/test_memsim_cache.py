"""Tests for the set-associative cache, DRAM banks, and DRAM cache."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim.cache import SetAssociativeCache
from repro.memsim.config import (
    CacheConfig,
    DramBankTiming,
    DramCacheConfig,
)
from repro.memsim.dram import BankedDram
from repro.memsim.dramcache import (
    DramCache,
    PAGE_MISS,
    SECTOR_HIT,
    SECTOR_MISS,
)

KB = 1 << 10


def small_cache(size=4 * KB, ways=2, latency=4):
    return SetAssociativeCache(CacheConfig(size, ways=ways, latency=latency))


class TestSetAssociativeCache:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert not cache.lookup(100)
        cache.fill(100)
        assert cache.lookup(100)
        assert cache.hits == 1
        assert cache.misses == 1

    def test_lru_eviction_order(self):
        cache = small_cache(size=2 * 64, ways=2)  # 1 set, 2 ways
        cache.fill(0)
        cache.fill(1)
        cache.lookup(0)       # 0 becomes most-recent
        victim = cache.fill(2)
        assert victim is not None
        assert victim[0] == 1  # 1 was LRU

    def test_dirty_writeback_on_eviction(self):
        cache = small_cache(size=2 * 64, ways=2)
        cache.fill(0, dirty=True)
        cache.fill(1)
        victim = cache.fill(2)
        assert victim == (0, True)
        assert cache.writebacks == 1

    def test_write_sets_dirty(self):
        cache = small_cache(size=2 * 64, ways=2)
        cache.fill(0)
        cache.lookup(0, write=True)
        cache.fill(1)
        victim = cache.fill(2)
        assert victim == (0, True) or victim == (1, False)

    def test_invalidate(self):
        cache = small_cache()
        cache.fill(5)
        assert cache.invalidate(5)
        assert not cache.invalidate(5)
        assert not cache.contains(5)

    def test_contains_does_not_touch_stats(self):
        cache = small_cache()
        cache.fill(5)
        cache.contains(5)
        cache.contains(6)
        assert cache.hits == 0 and cache.misses == 0

    def test_capacity_respected(self):
        cache = small_cache(size=4 * KB, ways=4)  # 64 lines
        for line in range(100):
            cache.fill(line)
        assert cache.resident_lines() <= 64

    def test_hit_rate(self):
        cache = small_cache()
        cache.fill(1)
        cache.lookup(1)
        cache.lookup(2)
        assert cache.hit_rate == pytest.approx(0.5)

    def test_reset_stats_keeps_contents(self):
        cache = small_cache()
        cache.fill(9)
        cache.lookup(9)
        cache.reset_stats()
        assert cache.hits == 0
        assert cache.contains(9)

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ValueError, match="power of two"):
            SetAssociativeCache(CacheConfig(3 * 64 * 2, ways=2, latency=1))


class TestFillRegressions:
    """Pin the fill() refill semantics: an earlier version evicted an
    unrelated victim when re-filling an already-resident line, and
    dropped the dirty bit of a line re-installed clean — losing its
    eventual writeback."""

    def test_refill_resident_line_evicts_nothing(self):
        cache = small_cache(size=2 * 64, ways=2)  # 1 set, 2 ways
        cache.fill(0)
        cache.fill(1)
        victim = cache.fill(0)  # refill at capacity: no one must go
        assert victim is None
        assert cache.evictions == 0
        assert cache.contains(0) and cache.contains(1)

    def test_refill_refreshes_lru_position(self):
        cache = small_cache(size=2 * 64, ways=2)
        cache.fill(0)
        cache.fill(1)
        cache.fill(0)           # 0 becomes most-recent again
        victim = cache.fill(2)
        assert victim is not None and victim[0] == 1

    def test_clean_refill_keeps_dirty_bit(self):
        cache = small_cache(size=2 * 64, ways=2)
        cache.fill(0, dirty=True)
        cache.fill(0, dirty=False)  # merge, not overwrite
        cache.fill(1)
        victim = cache.fill(2)
        assert victim == (0, True)
        assert cache.writebacks == 1

    def test_dirty_refill_dirties_clean_line(self):
        cache = small_cache(size=2 * 64, ways=2)
        cache.fill(0, dirty=False)
        cache.fill(0, dirty=True)
        cache.fill(1)
        victim = cache.fill(2)
        assert victim == (0, True)

    def test_write_hit_then_invalidate_loses_writeback(self):
        cache = small_cache(size=2 * 64, ways=2)
        cache.fill(0)
        cache.lookup(0, write=True)
        assert cache.invalidate(0)
        cache.fill(1)
        cache.fill(2)
        victim = cache.fill(3)
        assert victim is not None and victim[1] is False
        assert cache.writebacks == 0


class TestFastStateContract:
    """The (sets, mask) pair handed to the replay fast path must mirror
    lookup() exactly, and credited counts must keep the counter
    identities intact."""

    def test_fast_hit_protocol_matches_lookup(self):
        via_lookup = small_cache()
        via_fast = small_cache()
        for cache in (via_lookup, via_fast):
            cache.fill(7)
            cache.fill(7 + cache.n_sets)  # same set
        via_lookup.lookup(7, write=True)

        sets, mask = via_fast.fast_state()
        entries = sets[7 & mask]
        previous = entries.pop(7, None)
        assert previous is not None
        entries[7] = previous or True
        via_fast.add_fast_hits(1)

        assert via_fast.hits == via_lookup.hits
        assert via_fast._sets == via_lookup._sets

    def test_credited_counts_preserve_identities(self):
        cache = small_cache()
        cache.fill(1)
        cache.lookup(1)
        cache.lookup(2)
        cache.add_fast_hits(10)
        assert cache.hits == 11
        assert cache.misses == 1
        assert cache.accesses == 12
        assert cache.hit_rate == pytest.approx(11 / 12)

    @given(
        lines=st.lists(
            st.integers(min_value=0, max_value=4095), min_size=1, max_size=400
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_occupancy_invariant(self, lines):
        cache = small_cache(size=2 * KB, ways=2)  # 32 lines, 16 sets
        for line in lines:
            if not cache.lookup(line):
                cache.fill(line)
        assert cache.resident_lines() <= 32
        # Every line just filled or touched must map to its own set only.
        assert cache.hits + cache.misses == len(lines)

    @given(
        lines=st.lists(
            st.integers(min_value=0, max_value=63), min_size=1, max_size=200
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_small_working_set_always_hits_after_fill(self, lines):
        # A working set within one way-capacity never self-evicts.
        cache = small_cache(size=8 * KB, ways=8)  # 128 lines, 16 sets
        for line in set(lines):
            cache.fill(line)
        for line in lines:
            assert cache.lookup(line)


class TestDramBankTiming:
    def test_defaults_match_table3(self):
        timing = DramBankTiming()
        assert timing.page_open == 50
        assert timing.precharge == 54
        assert timing.read == 50

    def test_rejects_burst_longer_than_read(self):
        with pytest.raises(ValueError):
            DramBankTiming(read=10, burst=20)


class TestBankedDram:
    def make(self, banks=4, page=4096):
        return BankedDram(banks, page, DramBankTiming())

    def test_page_empty_then_hit(self):
        dram = self.make()
        first = dram.access(0.0, 0)
        assert first == pytest.approx(100.0)  # open 50 + read 50
        second = dram.access(first, 64)       # same page
        assert second - first == pytest.approx(50.0)
        assert dram.page_hits == 1
        assert dram.page_empties == 1

    def test_page_conflict_pays_precharge(self):
        dram = self.make(banks=1, page=4096)
        t1 = dram.access(0.0, 0)
        t2 = dram.access(t1, 8192)  # same bank, different page
        assert t2 - t1 == pytest.approx(54 + 50 + 50)
        assert dram.page_conflicts == 1

    def test_banks_operate_in_parallel(self):
        dram = self.make(banks=4)
        t1 = dram.access(0.0, 0)        # bank 0
        t2 = dram.access(0.0, 4096)     # bank 1: no serialization
        assert t1 == pytest.approx(t2)

    def test_same_bank_serializes_by_occupancy(self):
        dram = self.make(banks=1)
        dram.access(0.0, 0)
        # Second request issued at t=0 waits for the bank's burst slot.
        second = dram.access(0.0, 64)
        assert second > 100.0

    def test_closed_page_policy_never_hits(self):
        dram = BankedDram(4, 4096, DramBankTiming(), open_page_policy=False)
        dram.access(0.0, 0)
        dram.access(200.0, 64)
        assert dram.page_hits == 0
        assert dram.page_empties == 2

    def test_bank_mapping_interleaves_pages(self):
        dram = self.make(banks=4, page=512)
        assert dram.bank_of(0) == 0
        assert dram.bank_of(512) == 1
        assert dram.bank_of(2048) == 0

    def test_stats_reset(self):
        dram = self.make()
        dram.access(0.0, 0)
        dram.reset_stats()
        assert dram.accesses == 0


class TestDramCache:
    def make(self, size=1 << 20):
        return DramCache(DramCacheConfig(size_bytes=size))

    def test_page_miss_then_sector_semantics(self):
        dc = self.make()
        assert dc.lookup(0) == PAGE_MISS
        dc.fill(0)
        assert dc.lookup(0) == SECTOR_HIT
        # Another sector of the same page: present page, invalid sector.
        assert dc.lookup(64) == SECTOR_MISS
        dc.fill(64)
        assert dc.lookup(64) == SECTOR_HIT

    def test_sectors_per_page_matches_table3(self):
        config = DramCacheConfig()
        assert config.page_bytes == 512
        assert config.sector_bytes == 64
        assert config.sectors_per_page == 8
        assert config.banks == 16

    def test_page_eviction_reports_dirty_sectors(self):
        config = DramCacheConfig(size_bytes=2 * 512 * 1, page_bytes=512,
                                 ways=1, banks=1)
        dc = DramCache(config)
        dc.fill(0, dirty=True)
        dc.fill(64, dirty=True)
        set_span = config.n_sets * config.page_bytes
        # Same set (n_sets=2 -> page 2 maps to set 0), evicts page 0.
        victim = dc.fill(2 * 512)
        assert victim is not None
        assert victim[1] == 2  # two dirty sectors written back

    def test_contains_is_side_effect_free(self):
        dc = self.make()
        dc.fill(0)
        assert dc.contains(0)
        assert not dc.contains(64)
        hits_before = dc.sector_hits
        dc.contains(0)
        assert dc.sector_hits == hits_before

    def test_hit_timing_overlaps_tag_and_bank(self):
        dc = self.make()
        dc.fill(0)
        done = dc.hit_timing(0.0, 0)
        # Speculative overlap: completion is the max of tag (16) and
        # d2d + bank; with an open page the bank path is 4 + 50.
        assert done <= 16 + 4 + 50 + 54  # never worse than serial

    def test_write_marks_dirty(self):
        config = DramCacheConfig(size_bytes=2 * 512, page_bytes=512,
                                 ways=1, banks=1)
        dc = DramCache(config)
        dc.fill(0)
        assert dc.lookup(0, write=True) == SECTOR_HIT
        victim = dc.fill(2 * 512)
        assert victim[1] == 1

    def test_resident_pages_bounded(self):
        config = DramCacheConfig(size_bytes=64 * 512, page_bytes=512, ways=4)
        dc = DramCache(config)
        for page in range(200):
            dc.fill(page * 512)
        assert dc.resident_pages() <= 64

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DramCacheConfig(page_bytes=500)  # not multiple of sector
        with pytest.raises(ValueError):
            DramCacheConfig(page_policy="adaptive")

    @given(
        addresses=st.lists(
            st.integers(min_value=0, max_value=1 << 22),
            min_size=1,
            max_size=300,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_fill_makes_hit_property(self, addresses):
        dc = self.make(size=1 << 20)
        for address in addresses:
            outcome = dc.lookup(address)
            if outcome != SECTOR_HIT:
                dc.fill(address)
                assert dc.contains(address)

"""Tests for the bus, the assembled hierarchy, and trace replay."""

import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim.bus import OffDieBus
from repro.memsim.config import (
    BusConfig,
    CacheConfig,
    HierarchyConfig,
    baseline_config,
    stacked_dram_config,
    stacked_memory_config,
    stacked_sram_config,
)
from repro.memsim.hierarchy import L1, L2, MEMORY, STACKED, MemoryHierarchy
from repro.memsim.replay import replay_trace
from repro.traces.record import AccessType, NO_DEP, TraceRecord
from tests.hierarchy_reference import ReferenceHierarchy

KB, MB = 1 << 10, 1 << 20


def loads(addresses, cpu=0, deps=None):
    deps = deps or {}
    return [
        TraceRecord(i, cpu, AccessType.LOAD, a, 0x400000, deps.get(i, NO_DEP))
        for i, a in enumerate(addresses)
    ]


class TestOffDieBus:
    def test_transfer_time(self):
        bus = OffDieBus(BusConfig(bytes_per_cycle=4.0))
        done = bus.transfer(0.0, 64)
        assert done == pytest.approx(16.0)

    def test_contention_serializes(self):
        bus = OffDieBus(BusConfig(bytes_per_cycle=4.0))
        bus.transfer(0.0, 64)
        done = bus.transfer(0.0, 64)
        assert done == pytest.approx(32.0)
        assert bus.total_wait_cycles == pytest.approx(16.0)

    def test_bandwidth_and_power(self):
        bus = OffDieBus(BusConfig())
        bus.transfer(0.0, 4000)
        bw = bus.bandwidth_gbps(elapsed_cycles=4000.0, clock_ghz=4.0)
        assert bw == pytest.approx(4.0)  # 1 B/cycle at 4 GHz
        power = bus.power_w(4000.0, 4.0)
        # 4 GB/s = 32 Gb/s at 20 mW/Gb/s = 0.64 W.
        assert power == pytest.approx(0.64)

    def test_rejects_empty_transfer(self):
        bus = OffDieBus(BusConfig())
        with pytest.raises(ValueError):
            bus.transfer(0.0, 0)

    def test_account_only_counts_bytes(self):
        bus = OffDieBus(BusConfig())
        bus.account_only(64)
        assert bus.total_bytes == 64


class TestHierarchyConfigs:
    def test_table3_baseline(self):
        config = baseline_config()
        assert config.l1d.size_bytes == 32 * KB
        assert config.l1d.ways == 8
        assert config.l1d.latency == 4
        assert config.l2.size_bytes == 4 * MB
        assert config.l2.ways == 16
        assert config.l2.latency == 16
        assert config.bus.bytes_per_cycle == 4.0

    def test_stacked_sram_adds_8mb_at_24_cycles(self):
        config = stacked_sram_config()
        assert config.stacked_sram.size_bytes == 8 * MB
        assert config.stacked_sram.latency == 24
        assert config.l2.size_bytes + config.stacked_sram.size_bytes == 12 * MB

    def test_stacked_dram_drops_l2(self):
        config = stacked_dram_config(32)
        assert config.l2 is None
        assert config.stacked_dram.size_bytes == 32 * MB

    def test_stacked_dram_validates_capacity(self):
        with pytest.raises(ValueError):
            stacked_dram_config(48)

    def test_scale_divides_capacities(self):
        config = baseline_config(scale=8)
        assert config.l2.size_bytes == 512 * KB

    def test_cannot_have_both_stacked_levels(self):
        from repro.memsim.config import DramCacheConfig

        with pytest.raises(ValueError):
            HierarchyConfig(
                stacked_sram=CacheConfig(1 * MB, ways=16, latency=24),
                stacked_dram=DramCacheConfig(size_bytes=32 * MB),
            )


class TestMemoryHierarchy:
    def small(self):
        return MemoryHierarchy(
            HierarchyConfig(
                l1d=CacheConfig(1 * KB, ways=2, latency=4),
                l2=CacheConfig(64 * KB, ways=16, latency=16),
            )
        )

    def test_l1_hit_fast_path(self):
        hier = self.small()
        first = hier.access(0, False, 0x1000, 0.0)
        assert first.level == MEMORY
        second = hier.access(0, False, 0x1000, first.completion)
        assert second.level == L1
        assert second.completion - first.completion == pytest.approx(4.0)

    def test_l2_hit_after_l1_eviction(self):
        hier = self.small()
        hier.access(0, False, 0x1000, 0.0)
        # Evict 0x1000 from the tiny L1 by filling its set.
        for i in range(1, 4):
            hier.access(0, False, 0x1000 + i * 1024, 0.0)
        result = hier.access(0, False, 0x1000, 1e6)
        assert result.level == L2

    def test_memory_access_crosses_bus(self):
        hier = self.small()
        result = hier.access(0, False, 0x9000, 0.0)
        assert result.offchip
        assert hier.bus.total_bytes >= 64  # the returned line

    def test_memory_latency_in_expected_band(self):
        hier = self.small()
        result = hier.access(0, False, 0x9000, 0.0)
        # 4 (L1) + 16 (L2) + cmd 2 + bank 100 + controller 88 + bus 16.
        assert 180.0 <= result.completion <= 300.0

    def test_coherence_invalidation_on_remote_write(self):
        hier = self.small()
        hier.access(0, False, 0x4000, 0.0)   # cpu0 caches the line
        hier.access(1, True, 0x4000, 500.0)  # cpu1 writes it
        assert hier.invalidations == 1
        # cpu0 must now miss its L1.
        result = hier.access(0, False, 0x4000, 1000.0)
        assert result.level != L1

    def test_read_sharing_no_invalidation(self):
        hier = self.small()
        hier.access(0, False, 0x4000, 0.0)
        hier.access(1, False, 0x4000, 500.0)
        assert hier.invalidations == 0

    def test_stacked_dram_path(self):
        hier = MemoryHierarchy(stacked_dram_config(32, scale=32))
        first = hier.access(0, False, 0x5000, 0.0)
        assert first.level == MEMORY
        # Evict from L1 (32KB, 8-way): fill the set with other lines.
        for i in range(1, 9):
            hier.access(0, False, 0x5000 + i * 32 * KB, 0.0)
        again = hier.access(0, False, 0x5000, 1e6)
        assert again.level == STACKED
        assert not again.offchip

    def test_prefetcher_pulls_on_die_lines(self):
        hier = self.small()
        # Prime two sequential lines into the L2 (via memory).
        for line in range(8):
            hier.access(0, False, line * 64, 0.0)
        # Evict them from L1 (line stride 1 walks every L1 set) and
        # re-stream: sequential misses should trigger on-die prefetches.
        for i in range(64):
            hier.access(0, False, 0x40000 + i * 64, 0.0)
        before = hier.prefetches
        for line in range(8):
            hier.access(0, False, line * 64, 1e7)
        assert hier.prefetches > before

    def test_reset_stats(self):
        hier = self.small()
        hier.access(0, False, 0x1000, 0.0)
        hier.reset_stats()
        assert hier.total_accesses == 0
        assert hier.bus.total_bytes == 0


def _tiny(config):
    """*config* with every capacity cut so that, over a 64 KB address
    range, each level evicts within a few hundred references."""
    def cut(cache, size):
        return None if cache is None else dataclasses.replace(
            cache, size_bytes=size, ways=min(cache.ways, 4)
        )

    dram = config.stacked_dram
    return dataclasses.replace(
        config,
        l1d=cut(config.l1d, 1 * KB),
        l1i=cut(config.l1i, 1 * KB),
        l2=cut(config.l2, 4 * KB),
        stacked_sram=cut(config.stacked_sram, 8 * KB),
        stacked_dram=None if dram is None else dataclasses.replace(
            dram, size_bytes=dram.size_bytes >> 11
        ),
    )


#: The four Figure 7 hierarchies, plus main memory in the stack (the one
#: configuration with no off-die bus), all at the tiny capacities.
WALK_CONFIGS = {
    "2D-4MB": _tiny(baseline_config()),
    "3D-12MB": _tiny(stacked_sram_config()),
    "3D-32MB": _tiny(stacked_dram_config(32)),
    "3D-64MB": _tiny(stacked_dram_config(64)),
    "on-stack-memory": _tiny(stacked_memory_config()),
}

#: Lines the random streams touch (a 64 KB range).
WALK_LINES = 1024


def _cache_state(cache):
    if cache is None:
        return None
    return (
        cache.hits, cache.misses, cache.evictions, cache.writebacks,
        [list(entries.items()) for entries in cache._sets],
    )


def _banks_state(banks):
    return (
        list(banks._open_page), list(banks._bank_free),
        banks.page_hits, banks.page_empties, banks.page_conflicts,
    )


def _hierarchy_state(h):
    """Every piece of hierarchy state, in order (dict order is LRU order)."""
    dc = h.stacked_dram
    return {
        "l1d": [_cache_state(c) for c in h.l1s],
        "l1i": [_cache_state(c) for c in h.l1is],
        "l2": _cache_state(h.l2),
        "stacked_sram": _cache_state(h.stacked_sram),
        "stacked_dram": None if dc is None else (
            dc.sector_hits, dc.sector_misses, dc.page_misses,
            dc.page_evictions, dc.lifetime_page_evictions,
            dc.dirty_sector_writebacks,
            [list(entries.items()) for entries in dc._sets],
            [list(entries.items()) for entries in dc._dirty],
            _banks_state(dc.banks),
        ),
        "directory": list(h._directory.items()),
        "miss_history": [list(d) for d in h._miss_history],
        "level_counts": list(h.level_counts.items()),
        "offchip_accesses": h.offchip_accesses,
        "invalidations": h.invalidations,
        "prefetches": h.prefetches,
        "ddr": _banks_state(h.ddr),
        "bus": (
            h.bus._free_at, h.bus.total_bytes, h.bus.transfers,
            h.bus.total_wait_cycles,
        ),
    }


def _walk(h, cpu, kind, address, t):
    if kind == AccessType.IFETCH:
        return h.ifetch(cpu, address, t)
    return h.access(cpu, kind == AccessType.STORE, address, t)


def _expand(ops):
    """(cpu, kind, line, run, gap) ops -> (cpu, kind, address, t) accesses:
    each op touches *run* consecutive lines (so sequential misses fire
    the prefetcher), *gap* cycles after the previous op."""
    t = 0.0
    for cpu, kind, line, run, gap in ops:
        t += gap
        for k in range(run):
            yield cpu, kind, ((line + k) % WALK_LINES) * 64, t


WALK_OPS = st.lists(
    st.tuples(
        st.integers(0, 1),
        st.sampled_from(
            [AccessType.LOAD, AccessType.LOAD, AccessType.STORE,
             AccessType.IFETCH]
        ),
        st.integers(0, WALK_LINES - 1),
        st.integers(1, 4),
        st.integers(0, 300),
    ),
    min_size=10,
    max_size=150,
)


class TestCompiledWalk:
    """The compiled walk against the per-method reference it replaced."""

    @pytest.mark.parametrize("name", sorted(WALK_CONFIGS))
    def test_tiny_configs_exercise_every_path(self, name):
        # The domain the differential below draws from reaches every
        # branch: evictions and dirty writebacks at each level,
        # prefetches and coherence invalidations.
        config = WALK_CONFIGS[name]
        rng = random.Random(name)
        h = ReferenceHierarchy(config)
        ops = [
            (rng.randrange(2), rng.choice(list(AccessType)),
             rng.randrange(WALK_LINES), rng.randint(1, 4), rng.randrange(300))
            for _ in range(1500)
        ]
        for cpu, kind, address, t in _expand(ops):
            _walk(h, cpu, kind, address, t)
        assert h.prefetches and h.invalidations
        assert h.l1s[0].writebacks and h.l1s[1].writebacks
        if h.l2 is not None:
            assert h.l2.writebacks
        if h.stacked_sram is not None:
            assert h.stacked_sram.evictions
        if h.stacked_dram is not None:
            assert h.stacked_dram.page_evictions
            assert h.stacked_dram.dirty_sector_writebacks
            assert h.level_counts[STACKED]
        assert h.level_counts[MEMORY]
        assert h.bus.transfers == 0 if config.ddr.on_stack else h.bus.transfers

    @pytest.mark.parametrize("name", sorted(WALK_CONFIGS))
    @given(ops=WALK_OPS, cut=st.integers(0, 300))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_reference_after_every_access(self, name, ops, cut):
        config = WALK_CONFIGS[name]
        mine, reference = MemoryHierarchy(config), ReferenceHierarchy(config)
        for step, (cpu, kind, address, t) in enumerate(_expand(ops)):
            if step == cut:
                # Mid-stream, both as the replayer's warm-up boundary and
                # the differential oracle's clone do: the rebuilt walk must
                # act on the unpickled state, and reset_stats must leave
                # the walk's bound counters live.
                mine = pickle.loads(pickle.dumps(mine))
                mine.reset_stats()
                reference.reset_stats()
            result = _walk(mine, cpu, kind, address, t)
            expected = _walk(reference, cpu, kind, address, t)
            assert tuple(result) == (
                expected.completion, expected.level, expected.offchip
            )
            got, want = _hierarchy_state(mine), _hierarchy_state(reference)
            # Name the diverged fields rather than diffing whole states.
            diverged = [key for key in want if got[key] != want[key]]
            assert not diverged, f"access {step}: {diverged} diverged"


class TestReplay:
    def test_dependency_honored(self):
        # Ld2 depends on Ld1 (a memory miss): its latency must include
        # waiting for Ld1.
        records = loads([0x100000, 0x200000], deps={1: 0})
        stats = replay_trace(records, baseline_config(), warmup_fraction=0.0)
        assert stats.n_accesses == 2
        # Second access issued after first completed (~200+ cycles), so
        # the wall clock is about two full memory latencies.
        assert stats.wall_cycles > 350.0

    def test_independent_loads_overlap(self):
        dep_records = loads([0x100000, 0x200000], deps={1: 0})
        indep_records = loads([0x100000, 0x200000])
        dep = replay_trace(dep_records, baseline_config(), warmup_fraction=0.0)
        indep = replay_trace(
            indep_records, baseline_config(), warmup_fraction=0.0
        )
        assert indep.wall_cycles < dep.wall_cycles

    def test_cpma_definition(self):
        records = loads([0x1000] * 100)
        stats = replay_trace(records, baseline_config(), warmup_fraction=0.0)
        assert stats.cpma == pytest.approx(
            stats.wall_cycles / (stats.n_accesses / 2)
        )

    def test_warmup_excluded_from_stats(self):
        records = loads([0x100000 + i * 64 for i in range(100)])
        full = replay_trace(records, baseline_config(), warmup_fraction=0.0)
        warm = replay_trace(records, baseline_config(), warmup_fraction=0.5)
        assert warm.n_accesses == 50
        assert full.n_accesses == 100

    def test_mshr_limit_throttles(self):
        # With one MSHR, misses serialize; with eight they overlap.
        import dataclasses

        records = loads([0x100000 + i * 4096 for i in range(64)])
        narrow = dataclasses.replace(baseline_config(), mshrs_per_cpu=1)
        wide = dataclasses.replace(baseline_config(), mshrs_per_cpu=8)
        slow = replay_trace(records, narrow, warmup_fraction=0.0)
        fast = replay_trace(records, wide, warmup_fraction=0.0)
        assert slow.wall_cycles > fast.wall_cycles * 2

    def test_bandwidth_reported(self):
        records = loads([0x100000 + i * 64 for i in range(500)])
        stats = replay_trace(records, baseline_config(), warmup_fraction=0.0)
        assert stats.bandwidth_gbps > 0
        assert stats.bus_power_w > 0

    def test_rejects_bad_warmup(self):
        records = loads([0x1000])
        with pytest.raises(ValueError):
            replay_trace(records, baseline_config(), warmup_fraction=1.0)

    def test_level_counts_sum_to_accesses(self):
        records = loads([0x1000 + (i % 37) * 64 for i in range(300)])
        stats = replay_trace(records, baseline_config(), warmup_fraction=0.0)
        assert sum(stats.level_counts.values()) == 300

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=10, deadline=None)
    def test_latency_at_least_l1_property(self, seed):
        import random

        rng = random.Random(seed)
        records = loads([rng.randrange(1 << 24) & ~63 for _ in range(100)])
        stats = replay_trace(records, baseline_config(), warmup_fraction=0.0)
        assert stats.avg_latency >= 4.0  # L1 latency is the floor

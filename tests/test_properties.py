"""Cross-cutting property-based tests on core invariants."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.floorplan import (
    pentium4_3d_floorplans,
    pentium4_planar_floorplan,
)
from repro.memsim import baseline_config, replay_trace
from repro.memsim.cache import SetAssociativeCache
from repro.memsim.config import CacheConfig
from repro.memsim.hierarchy import MemoryHierarchy
from repro.traces import TraceGenerator, WorkloadSpec
from repro.traces.record import AccessType, NO_DEP, TraceRecord
from repro.uarch.pipeline import planar_pipeline, stacked_pipeline
from repro.uarch.wires import stacked_pipeline_from_floorplans

KB = 1 << 10


class TestLruStackProperty:
    """LRU is a stack algorithm: for a fixed set count, adding ways can
    never turn a hit into a miss (the inclusion property)."""

    @given(
        lines=st.lists(
            st.integers(min_value=0, max_value=255), min_size=10,
            max_size=400,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_more_ways_never_fewer_hits(self, lines):
        # Same 16 sets; 2 ways vs 4 ways.
        small = SetAssociativeCache(CacheConfig(16 * 2 * 64, ways=2, latency=1))
        big = SetAssociativeCache(CacheConfig(16 * 4 * 64, ways=4, latency=1))
        for line in lines:
            if not small.lookup(line):
                small.fill(line)
            if not big.lookup(line):
                big.fill(line)
        assert big.hits >= small.hits

    @given(
        lines=st.lists(
            st.integers(min_value=0, max_value=1023), min_size=10,
            max_size=300,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_inclusion_of_resident_sets(self, lines):
        # Every line resident in the smaller cache is resident in the
        # larger same-set-count cache at every point in time.
        small = SetAssociativeCache(CacheConfig(16 * 2 * 64, ways=2, latency=1))
        big = SetAssociativeCache(CacheConfig(16 * 8 * 64, ways=8, latency=1))
        touched = set()
        for line in lines:
            for cache in (small, big):
                if not cache.lookup(line):
                    cache.fill(line)
            touched.add(line)
            for check in touched:
                if small.contains(check):
                    assert big.contains(check)


class TestCoherenceInvariants:
    def test_write_leaves_single_copy(self):
        hier = MemoryHierarchy(baseline_config())
        line_addr = 0x8000
        # Both cpus read, then cpu1 writes.
        hier.access(0, False, line_addr, 0.0)
        hier.access(1, False, line_addr, 100.0)
        hier.access(1, True, line_addr, 200.0)
        line = line_addr >> 6
        assert not hier.l1s[0].contains(line)
        assert hier.l1s[1].contains(line)

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=15, deadline=None)
    def test_no_stale_copies_after_random_traffic(self, seed):
        rng = random.Random(seed)
        hier = MemoryHierarchy(baseline_config())
        last_writer = {}
        for _ in range(300):
            cpu = rng.randrange(2)
            line = rng.randrange(16)
            write = rng.random() < 0.4
            hier.access(cpu, write, line * 64, 0.0)
            if write:
                last_writer[line] = cpu
        # After a write, the non-writing cpu must not hold the line
        # unless it re-read it later — we only assert the directory is
        # consistent with the L1 contents.
        for line in range(16):
            mask = hier._directory.get(line, 0)
            for cpu in range(2):
                assert bool(mask & (1 << cpu)) == hier.l1s[cpu].contains(line)

    def test_invalidation_count_matches_events(self):
        hier = MemoryHierarchy(baseline_config())
        for i in range(8):
            hier.access(0, False, i * 64, 0.0)   # cpu0 reads 8 lines
            hier.access(1, True, i * 64, 0.0)    # cpu1 writes them all
        assert hier.invalidations == 8


class TestReplayInvariants:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_wall_at_least_slot_bound(self, seed):
        # Two cpus at 1 ref/cycle: wall >= refs per cpu.
        spec = WorkloadSpec("svd", n_records=4000, seed=seed)
        records = list(TraceGenerator(spec, scale=16).records())
        stats = replay_trace(records, baseline_config(16), warmup_fraction=0.0)
        assert stats.wall_cycles >= stats.n_accesses / 2 - 1

    def test_level_latencies_ordered(self):
        spec = WorkloadSpec("gauss", n_records=150_000)
        records = list(TraceGenerator(spec, scale=16).records())
        stats = replay_trace(records, baseline_config(16), warmup_fraction=0.3)
        lat = stats.level_latency
        assert lat["l1"] < lat["l2"] < lat["memory"]

    def test_single_record_trace(self):
        records = [TraceRecord(0, 0, AccessType.LOAD, 0x1000, 0, NO_DEP)]
        stats = replay_trace(records, baseline_config(), warmup_fraction=0.0)
        assert stats.n_accesses == 1

    def test_store_only_trace(self):
        records = [
            TraceRecord(i, 0, AccessType.STORE, i * 64, 0, NO_DEP)
            for i in range(100)
        ]
        stats = replay_trace(records, baseline_config(), warmup_fraction=0.0)
        assert stats.n_accesses == 100


class TestPipelineDerivation:
    def test_floorplan_derived_matches_published(self):
        # The wire rows derived from the Figure 9/10 geometry reproduce
        # the published Table 4 eliminations exactly.
        planar_fp = pentium4_planar_floorplan()
        bottom, top = pentium4_3d_floorplans()
        derived = stacked_pipeline_from_floorplans(planar_fp, bottom, top)
        assert derived == stacked_pipeline(planar_pipeline())

    def test_derived_never_exceeds_available_stages(self):
        planar_fp = pentium4_planar_floorplan()
        bottom, top = pentium4_3d_floorplans()
        derived = stacked_pipeline_from_floorplans(planar_fp, bottom, top)
        assert derived.fp_wire_latency >= 0
        assert derived.data_cache_read >= 1


class TestTraceDeterminismAcrossProcesses:
    def test_workload_suite_profile_values_stable(self):
        # Regression pin: the string-seeded RNG must stay deterministic
        # (tuple hashing would break under PYTHONHASHSEED).
        from repro.uarch.workloads import make_profile

        profile = make_profile("specint", 0)
        assert profile.branch_freq == pytest.approx(0.171836, abs=1e-4)

    def test_trace_head_stable(self):
        spec = WorkloadSpec("svm", n_records=5)
        records = list(TraceGenerator(spec, scale=16).records())
        assert [r.address for r in records] == [
            records[0].address, records[1].address, records[2].address,
            records[3].address, records[4].address,
        ]
        # First access is the test-vector refresh at the private base.
        assert records[0].address >= 0x8000_0000

"""Equivalence of the chunked array fast path with per-record replay.

``feed_array`` promises bit-identical behaviour to feeding each record
through ``feed`` — not just matching summary stats but identical
*internal* state: cache contents and LRU order, coherence directory,
prefetch history, ROBs, completion tables, timing accumulators.  These
tests compare full state snapshots across memory configurations, warmup
placements, ifetch interleavings, and split feeds.
"""

import numpy as np
import pytest

from repro.memsim.config import (
    baseline_config,
    stacked_dram_config,
    stacked_sram_config,
)
from repro.memsim.hierarchy import MemoryHierarchy
from repro.memsim.replay import TraceReplayer, replay_trace
from repro.traces.generator import (
    TRACE_DTYPE,
    TraceGenerator,
    WorkloadSpec,
    records_to_array,
)

SEED = 1234
SCALE = 8


def _cache_state(cache):
    if cache is None:
        return None
    return {
        "hits": cache.hits,
        "misses": cache.misses,
        "evictions": cache.evictions,
        "writebacks": cache.writebacks,
        # Dict order IS the LRU order, so == checks it too.
        "sets": [list(entries.items()) for entries in cache._sets],
    }


def _dram_cache_state(dc):
    if dc is None:
        return None
    return {
        "sector_hits": dc.sector_hits,
        "sector_misses": dc.sector_misses,
        "page_misses": dc.page_misses,
        "page_evictions": dc.page_evictions,
        "dirty_sector_writebacks": dc.dirty_sector_writebacks,
        "sets": [list(entries.items()) for entries in dc._sets],
        "dirty": [list(entries.items()) for entries in dc._dirty],
        "bank_free": list(dc.banks._bank_free),
        "open_pages": list(dc.banks._open_page),
    }


def full_state(replayer):
    """Everything observable about a replayer, for exact comparison."""
    h = replayer.hierarchy
    dram_caches = [
        _cache_state(h.stacked_sram),
        _dram_cache_state(h.stacked_dram),
    ]
    return {
        "l1d": [_cache_state(c) for c in h.l1s],
        "l1i": [_cache_state(c) for c in h.l1is],
        "l2": _cache_state(h.l2),
        "stacked": dram_caches,
        "directory": dict(h._directory),
        "miss_history": [list(d) for d in h._miss_history],
        "level_counts": dict(h.level_counts),
        "offchip_accesses": h.offchip_accesses,
        "invalidations": h.invalidations,
        "prefetches": h.prefetches,
        "index": replayer.index,
        "next_free": list(replayer._next_free),
        "outstanding": [list(o) for o in replayer._outstanding],
        "robs": [list(r) for r in replayer._robs],
        "completion": dict(replayer._completion),
        "measured": replayer._measured,
        "latency_sum": replayer._latency_sum,
        "level_latency_sum": dict(replayer._level_latency_sum),
        "level_latency_n": dict(replayer._level_latency_n),
        "measure_start": replayer._measure_start,
        "end_time": replayer._end_time,
    }


def _trace(kernel="smvm", n_records=20_000, ifetch_every=0):
    spec = WorkloadSpec(
        name=kernel,
        n_records=n_records,
        seed=SEED,
        ifetch_every=ifetch_every,
    )
    records = list(TraceGenerator(spec, scale=SCALE).records())
    return records, records_to_array(records)


def _run_pair(records, array, config, warmup_until=0):
    reference = TraceReplayer(config, warmup_until=warmup_until)
    reference.feed_many(records)
    fast = TraceReplayer(config, warmup_until=warmup_until)
    fast.feed_array(array)
    return reference, fast


CONFIGS = {
    "baseline": lambda: baseline_config(SCALE),
    "stacked-sram": lambda: stacked_sram_config(SCALE),
    "stacked-dram-32": lambda: stacked_dram_config(32, SCALE),
    "stacked-dram-64": lambda: stacked_dram_config(64, SCALE),
}


class TestFullStateEquivalence:
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    def test_every_memory_config(self, config_name):
        records, array = _trace()
        reference, fast = _run_pair(
            records, array, CONFIGS[config_name](), warmup_until=6000
        )
        assert full_state(reference) == full_state(fast)

    @pytest.mark.parametrize("ifetch_every", [3, 5])
    def test_with_ifetch_interleave(self, ifetch_every):
        records, array = _trace(ifetch_every=ifetch_every)
        reference, fast = _run_pair(
            records, array, baseline_config(SCALE), warmup_until=6000
        )
        assert full_state(reference) == full_state(fast)

    @pytest.mark.parametrize("warmup_until", [0, 1, 9_999, 19_999, 20_000])
    def test_warmup_boundary_placements(self, warmup_until):
        """Including boundaries that land mid-span and at the very ends."""
        records, array = _trace()
        reference, fast = _run_pair(
            records, array, baseline_config(SCALE), warmup_until=warmup_until
        )
        assert full_state(reference) == full_state(fast)

    def test_store_heavy_kernel_with_coherence_traffic(self):
        records, array = _trace(kernel="savdf")
        reference, fast = _run_pair(
            records, array, baseline_config(SCALE), warmup_until=6000
        )
        assert full_state(reference) == full_state(fast)


class TestFeedArrayMechanics:
    def test_rejects_wrong_dtype(self):
        replayer = TraceReplayer(baseline_config(SCALE))
        with pytest.raises(ValueError, match="TRACE_DTYPE"):
            replayer.feed_array(np.zeros(4, dtype=np.int64))

    def test_partial_array_matches_partial_feed(self):
        records, array = _trace(n_records=10_000)
        partial = TraceReplayer(baseline_config(SCALE))
        partial.feed_array(array[:4_321])
        reference = TraceReplayer(baseline_config(SCALE))
        reference.feed_many(records[:4_321])
        assert full_state(partial) == full_state(reference)

    def test_split_feed_matches_whole_feed(self):
        """Two consecutive slices, the warmup boundary inside the first:
        identical end state to one whole feed."""
        _, array = _trace(n_records=12_000)
        config = baseline_config(SCALE)

        split = TraceReplayer(config, warmup_until=3_000)
        split.feed_array(array[:7_500])
        assert split.index == 7_500
        split.feed_array(array[7_500:])

        whole = TraceReplayer(config, warmup_until=3_000)
        whole.feed_array(array)
        assert full_state(split) == full_state(whole)

    def test_guarded_replay_falls_back_to_record_path(self):
        """A strict guard forces per-record validation; results match the
        unguarded run on a clean stream."""
        records, array = _trace(n_records=8_000)
        clean = replay_trace(
            array, baseline_config(SCALE), warmup_fraction=0.3
        )
        guarded = replay_trace(
            array, baseline_config(SCALE), warmup_fraction=0.3, mode="strict"
        )
        assert guarded.quarantined == 0
        assert guarded.cpma == clean.cpma
        assert guarded.level_counts == clean.level_counts

    def test_replay_trace_accepts_array_and_records_identically(self):
        records, array = _trace(n_records=8_000)
        from_records = replay_trace(
            records, baseline_config(SCALE), warmup_fraction=0.4
        )
        from_array = replay_trace(
            array, baseline_config(SCALE), warmup_fraction=0.4
        )
        assert from_records == from_array

    def test_hierarchy_reuse_after_fast_path_flush(self):
        """Counters credited by flush_fast_counts keep hit-rate identities
        intact on the underlying caches."""
        _, array = _trace(n_records=8_000)
        hierarchy = MemoryHierarchy(baseline_config(SCALE))
        replayer = TraceReplayer(hierarchy=hierarchy)
        replayer.feed_array(array)
        for cache in hierarchy.l1s + hierarchy.l1is:
            assert cache.accesses == cache.hits + cache.misses
        total_satisfied = sum(hierarchy.level_counts.values())
        assert total_satisfied == 8_000

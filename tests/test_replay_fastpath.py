"""Equivalence of the replay loop with per-record replay.

``feed_array`` promises bit-identical behaviour to feeding each record
through the per-record reference (``tests/replay_reference.py``) — not
just matching summary stats but identical *internal* state: cache
contents and LRU order, coherence directory, prefetch history, ROBs,
completion tables, timing accumulators.  These tests compare full state
snapshots across memory configurations, warmup placements, ifetch
interleavings, split feeds and the loop's reference mode, and the
guard's column screen against the per-record guard on corrupted streams.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim.config import (
    baseline_config,
    stacked_dram_config,
    stacked_sram_config,
)
from repro.memsim.hierarchy import MemoryHierarchy
from repro.memsim.replay import TraceReplayer, replay_trace
from repro.oracles.config import oracle_mode
from repro.traces.generator import (
    TraceGenerator,
    WorkloadSpec,
    array_to_records,
    records_to_array,
)
from repro.traces.record import TraceGuard
from tests.hierarchy_reference import ReferenceHierarchy
from tests.replay_reference import (
    ReferenceGuard,
    ReferenceReplayer,
    reference_replay,
)
from tests.trace_faults import make_raw_record

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
    reference = ReferenceReplayer(config, warmup_until=warmup_until)
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
        reference = ReferenceReplayer(baseline_config(SCALE))
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

    def test_guarded_replay_matches_unguarded_on_a_clean_stream(self):
        """A strict guard screens every row; on a clean stream the results
        match the unguarded run."""
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


# -- the one loop against the per-record reference ---------------------------

LOOP_KERNELS = ("smvm", "gauss", "savdf", "svd", "pcg")
LOOP_RECORDS = 6_000


@functools.lru_cache(maxsize=None)
def _loop_trace(kernel, ifetch_every):
    return _trace(kernel, LOOP_RECORDS, ifetch_every)


class TestOneLoopAgainstReference:
    """The loop, in each way a run reaches it, against ``feed`` driven over
    the per-method hierarchy (``tests/hierarchy_reference.py``)."""

    @given(
        kernel=st.sampled_from(LOOP_KERNELS),
        config_name=st.sampled_from(sorted(CONFIGS)),
        ifetch_every=st.sampled_from([0, 3]),
        warmup_until=st.integers(0, LOOP_RECORDS),
        cuts=st.lists(st.integers(0, LOOP_RECORDS), max_size=3),
        mode=st.sampled_from(["off", "strict", "reference"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_per_record_feed(
        self, kernel, config_name, ifetch_every, warmup_until, cuts, mode
    ):
        records, array = _loop_trace(kernel, ifetch_every)
        config = CONFIGS[config_name]()
        expected = ReferenceReplayer(
            hierarchy=ReferenceHierarchy(config), warmup_until=warmup_until
        )
        expected.feed_many(records)

        replayer = TraceReplayer(config, warmup_until=warmup_until)
        # "reference": the whole run pinned to the loop's reference mode,
        # as after a differential fallback.
        replayer._oracle_fallback = mode == "reference"
        bounds = [0, *sorted(cuts), LOOP_RECORDS]
        with oracle_mode("strict" if mode == "strict" else "off"):
            for start, stop in zip(bounds, bounds[1:]):
                replayer.feed_array(array[start:stop])
        assert not replayer._oracle_degraded
        assert replayer.state_fingerprint() == expected.state_fingerprint()


# -- the guard's column screen against the per-record guard ------------------

#: One corruption per guard reason (two for bad-cpu, three for the uid
#: order).  Corruptions at one position compound.
CORRUPTIONS = (
    "uid-regression",
    "uid-jump",
    "negative-uid",
    "bad-cpu",
    "negative-cpu",
    "bad-kind",
    "negative-address",
    "self-dep",
    "forward-dep",
    "bad-dep",
)
GUARD_RECORDS = 1_500


@functools.lru_cache(maxsize=None)
def _guard_trace():
    return tuple(_trace("savdf", GUARD_RECORDS)[0])


def _corrupt(records, faults):
    """*records* with each ``(position, corruption)`` applied in turn."""
    records = list(records)
    for position, corruption in faults:
        r = records[position]
        uid, cpu, kind, address = r.uid, r.cpu, r.kind, r.address
        dep = r.dep_uid
        if corruption == "uid-regression":
            uid = records[position - 1].uid if position else 0
        elif corruption == "uid-jump":
            uid += 5
        elif corruption == "negative-uid":
            uid = -3
        elif corruption == "bad-cpu":
            cpu = 5
        elif corruption == "negative-cpu":
            cpu = -1
        elif corruption == "bad-kind":
            kind = 7
        elif corruption == "negative-address":
            address = -64
        elif corruption == "self-dep":
            dep = uid
        elif corruption == "forward-dep":
            dep = uid + 10
        else:
            dep = -7
        records[position] = make_raw_record(uid, cpu, kind, address, r.ip, dep)
    return records


def _raised(run):
    """What *run* raised, as comparable values (None if it returned)."""
    try:
        run()
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "reason", None)
    return None


def _assert_screens_alike(records, strict, warmup_fraction, cut):
    config = baseline_config(SCALE)
    mode = "strict" if strict else "lenient"

    # A record list, through the public wrapper.
    got, want = [], []
    assert _raised(
        lambda: got.append(
            replay_trace(records, config, warmup_fraction=warmup_fraction,
                         mode=mode)
        )
    ) == _raised(
        lambda: want.append(
            reference_replay(records, config, warmup_fraction=warmup_fraction,
                             mode=mode)
        )
    )
    assert got == want
    if got:
        assert list(got[0].quarantined_by_reason.items()) == list(
            want[0].quarantined_by_reason.items()
        )

    # An array, in two batches: rows TraceRecord rejects raise its
    # construction-time error in either mode.
    array = records_to_array(records)
    warmup_until = int(len(array) * warmup_fraction)
    loop = TraceReplayer(
        config, warmup_until=warmup_until,
        guard=TraceGuard(n_cpus=config.n_cpus, strict=strict),
    )
    reference = ReferenceReplayer(
        config, warmup_until=warmup_until,
        guard=ReferenceGuard(n_cpus=config.n_cpus, strict=strict),
    )

    def feed_loop():
        loop.feed_array(array[:cut])
        loop.feed_array(array[cut:])

    assert _raised(feed_loop) == _raised(
        lambda: reference.feed_many(array_to_records(array))
    )
    assert loop.state_fingerprint() == reference.state_fingerprint()
    assert vars(loop.guard) == vars(reference.guard)
    assert list(loop.guard.quarantined_by_reason.items()) == list(
        reference.guard.quarantined_by_reason.items()
    )


class TestColumnScreen:
    @pytest.mark.parametrize(
        "strict", [True, False], ids=["strict", "lenient"]
    )
    @pytest.mark.parametrize("corruption", CORRUPTIONS)
    def test_each_reason_matches_the_per_record_guard(
        self, corruption, strict
    ):
        records = _corrupt(
            _guard_trace(), [(700, corruption), (900, "bad-cpu")]
        )
        _assert_screens_alike(records, strict, 0.3, 800)

    def test_rejected_row_does_not_raise_the_watermark(self):
        # A row that fails a row-local check is not admitted, so its
        # jumped uid must not make the rows after it look out of order.
        records = _corrupt(
            _guard_trace(), [(700, "uid-jump"), (700, "bad-cpu")]
        )
        _assert_screens_alike(records, False, 0.3, 1_000)

    @given(
        faults=st.lists(
            st.tuples(
                st.integers(0, GUARD_RECORDS - 1), st.sampled_from(CORRUPTIONS)
            ),
            max_size=8,
        ),
        strict=st.booleans(),
        warmup_fraction=st.sampled_from([0.0, 0.3, 0.6]),
        cut=st.integers(0, GUARD_RECORDS),
    )
    @settings(max_examples=40, deadline=None)
    def test_corrupted_streams_match_the_per_record_guard(
        self, faults, strict, warmup_fraction, cut
    ):
        records = _corrupt(_guard_trace(), faults)
        _assert_screens_alike(records, strict, warmup_fraction, cut)

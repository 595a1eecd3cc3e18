"""Replay oracle integration: differentials, invariants, fuzz equivalence.

The memsim oracle contract: in any enabled mode the chunked fast path
stays bit-identical to the per-record reference path, corruption is
*detected* (never raised), and a detected divergence pins the run to
the reference path with ``ReplayStats.degraded`` set.
"""

import pickle
import random

import pytest

from repro.memsim import baseline_config
from repro.memsim.hierarchy import MemoryHierarchy
from repro.memsim.replay import TraceReplayer, replay_trace
from repro.oracles.config import (
    REPLAY_CHUNK,
    get_oracle_config,
    oracle_mode,
    set_oracle_mode,
)
from repro.oracles.report import oracle_report, reset_oracles
from repro.traces.generator import generate_trace, records_to_array


@pytest.fixture(autouse=True)
def _clean_oracles():
    previous = get_oracle_config()
    reset_oracles()
    yield
    set_oracle_mode(previous)
    reset_oracles()


@pytest.fixture(scope="module")
def trace():
    return generate_trace("smvm", n_records=20000, seed=13)


@pytest.fixture(scope="module")
def array(trace):
    return records_to_array(trace)


def _configs(scale=8):
    from repro.core.memory_on_logic import build_memory_configs

    return build_memory_configs(scale)


def _fed_pair(hierarchy_config, array, warmup_until, mode):
    """(fast-path replayer, per-record replayer) fed the same rows."""
    fast = TraceReplayer(
        hierarchy=MemoryHierarchy(hierarchy_config), warmup_until=warmup_until
    )
    slow = TraceReplayer(
        hierarchy=MemoryHierarchy(hierarchy_config), warmup_until=warmup_until
    )
    with oracle_mode(mode):
        fast.feed_array(array)
    with oracle_mode("off"):
        slow.feed_array(array)
    return fast, slow


class TestModesAreBitIdentical:
    @pytest.mark.parametrize("mode", ["sample", "strict"])
    def test_oracle_modes_match_off_mode(self, array, mode):
        warmup = len(array) // 3
        fast, slow = _fed_pair(baseline_config(), array, warmup, mode)
        assert fast.state_fingerprint() == slow.state_fingerprint()
        assert oracle_report().clean
        with oracle_mode(mode):
            assert not fast.stats().degraded

    def test_differentials_actually_ran_in_strict(self, array):
        with oracle_mode("strict"):
            replayer = TraceReplayer(hierarchy=MemoryHierarchy(baseline_config()))
            replayer.feed_array(array)
        checks = oracle_report().checks
        chunks = -(-len(array) // REPLAY_CHUNK)
        assert checks["memsim.replay-differential"] == chunks
        assert checks["memsim.replay-chunk"] == chunks

    def test_sample_mode_skips_most_differentials(self, array):
        with oracle_mode("sample"):
            replayer = TraceReplayer(hierarchy=MemoryHierarchy(baseline_config()))
            replayer.feed_array(array)
        checks = oracle_report().checks
        # 20k records / 4096-row chunks = 5 chunks, stride 64: none
        # differentially replayed (chunk 0 is deliberately exempt so
        # short runs pay zero differential cost).
        assert checks.get("memsim.replay-differential", 0) == 0
        assert checks["memsim.replay-chunk"] >= 5


class TestTraceFuzz:
    """Seeded property fuzz (no Hypothesis): feed == feed_array, clean."""

    KERNELS = ("smvm", "gauss", "svd", "pcg")

    @pytest.mark.parametrize(
        "config", _configs(), ids=lambda c: c.name.replace(" ", "-")
    )
    def test_fast_path_equivalence_all_memory_configs(self, config):
        rng = random.Random(f"oracle-fuzz:{config.name}")
        for trial in range(3):
            kernel = rng.choice(self.KERNELS)
            seed = rng.randrange(2**31)
            n = rng.randrange(3000, 9000)
            rows = records_to_array(
                generate_trace(kernel, n_records=n, seed=seed)
            )
            warmup = rng.randrange(0, n // 2)
            reset_oracles()
            fast, slow = _fed_pair(config.hierarchy, rows, warmup, "sample")
            context = f"{config.name} trial {trial}: {kernel} seed {seed}"
            assert fast.state_fingerprint() == slow.state_fingerprint(), context
            assert oracle_report().clean, context
            with oracle_mode("sample"):
                assert not fast.stats().degraded, context


class TestDetection:
    def test_structural_corruption_detected_not_raised(self, trace):
        with oracle_mode("sample"):
            stats_clean = replay_trace(trace, warmup_fraction=0.3)
            assert not stats_clean.degraded

            replayer = TraceReplayer(
                hierarchy=MemoryHierarchy(baseline_config()),
                warmup_until=len(trace) // 3,
            )
            replayer.feed_many(trace)
            # Overfill an L1D set past its associativity, the way a
            # corrupted snapshot or a buggy refactor would.
            target = replayer.hierarchy.l1s[0]._sets[0]
            for i in range(target and 0, len(target) + 4):
                target[0xDEAD0000 + 64 * i] = False
            stats = replayer.stats()
        assert stats.degraded
        report = oracle_report()
        assert not report.clean
        assert any("associativity" in v.detail for v in report.violations)

    def test_counter_decrease_in_a_chunk_degrades_the_run(
        self, array, monkeypatch
    ):
        real_feed_rows = TraceReplayer._feed_rows
        warmup = len(array) // 3
        corrupted = []

        def rewinding_feed_rows(self, rows, start, stop):
            bus = self.hierarchy.bus
            entry_bytes = bus.total_bytes
            real_feed_rows(self, rows, start, stop)
            if start > warmup and not corrupted:
                # A silent fast-path fault on a chunk past warm-up: the
                # bus byte counter ends the chunk below where it began.
                corrupted.append(start)
                bus.total_bytes = entry_bytes - 64

        monkeypatch.setattr(TraceReplayer, "_feed_rows", rewinding_feed_rows)
        with oracle_mode("sample"):
            replayer = TraceReplayer(
                hierarchy=MemoryHierarchy(baseline_config()),
                warmup_until=warmup,
            )
            replayer.feed_array(array)
            stats = replayer.stats()
        assert corrupted
        [violation] = [
            v for v in oracle_report().violations
            if v.oracle == "memsim.replay"
        ]
        assert "bus_total_bytes" in violation.detail
        assert stats.degraded

    def test_divergence_falls_back_to_reference(self, array, monkeypatch):
        real_feed_rows = TraceReplayer._feed_rows
        corrupted = []

        def corrupting_feed_rows(self, rows, start, stop):
            real_feed_rows(self, rows, start, stop)
            if not corrupted:  # one silent fast-path fault, chunk 0
                corrupted.append(True)
                self.hierarchy.bus.total_bytes += 64

        monkeypatch.setattr(TraceReplayer, "_feed_rows", corrupting_feed_rows)
        with oracle_mode("strict"):
            replayer = TraceReplayer(hierarchy=MemoryHierarchy(baseline_config()))
            replayer.feed_array(array)
            assert replayer._oracle_fallback
            stats = replayer.stats()
        assert stats.degraded
        [violation] = [
            v for v in oracle_report().violations
            if v.action == "fallback-reference"
        ]
        assert "bus_total_bytes" in violation.detail

        # The adopted reference state must carry the run to the same
        # numbers as a never-corrupted per-record replay.
        with oracle_mode("off"):
            reference = TraceReplayer(hierarchy=MemoryHierarchy(baseline_config()))
            reference.feed_array(array)
        fingerprint = replayer.state_fingerprint()
        assert fingerprint == reference.state_fingerprint()

    def test_pickle_round_trip_preserves_oracle_flags(self, array):
        """The differential oracle's reference is a pickle clone; it must
        carry the oracle bookkeeping and the full replay state."""
        with oracle_mode("sample"):
            replayer = TraceReplayer(hierarchy=MemoryHierarchy(baseline_config()))
            replayer.feed_array(array[:6000])
            replayer._oracle_degraded = True
            clone = pickle.loads(pickle.dumps(replayer))
        assert clone._oracle_degraded
        assert not clone._oracle_fallback
        assert clone._chunk_counter == replayer._chunk_counter == 2
        assert clone.state_fingerprint() == replayer.state_fingerprint()

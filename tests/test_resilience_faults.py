"""Fault-injection tests: corruption is deterministic and survivable."""

import numpy as np
import pytest

from repro.memsim import baseline_config
from repro.memsim.replay import replay_trace
from repro.resilience.errors import TraceCorruptionError
from repro.resilience.faults import FaultInjector
from repro.traces.generator import TraceGenerator, WorkloadSpec
from repro.traces.record import AccessType, TraceRecord

from tests.trace_faults import TraceFaults, make_raw_record


@pytest.fixture(scope="module")
def trace():
    spec = WorkloadSpec("gauss", n_records=8000, seed=9)
    return list(TraceGenerator(spec).records())


class TestInjectorDeterminism:
    def test_same_seed_same_faults(self, trace):
        a = list(TraceFaults(seed=3, record_corruption_rate=0.02)
                 .corrupt_trace(trace))
        b = list(TraceFaults(seed=3, record_corruption_rate=0.02)
                 .corrupt_trace(trace))
        assert a == b

    def test_different_seed_different_faults(self, trace):
        a = list(TraceFaults(seed=3, record_corruption_rate=0.02)
                 .corrupt_trace(trace))
        b = list(TraceFaults(seed=4, record_corruption_rate=0.02)
                 .corrupt_trace(trace))
        assert a != b

    def test_rate_validation(self):
        with pytest.raises(ValueError, match="record_corruption_rate"):
            TraceFaults(record_corruption_rate=1.5)

    def test_draws_are_site_addressed_not_a_shared_stream(self, tmp_path):
        # Consuming draws at one site (array bit flips) must not perturb
        # the draws at another (file bit flips): every decision is keyed
        # on (seed, site, occurrence).  This stability is what lets a
        # DST fault schedule shrink without reshuffling survivors.
        plain, perturbed = tmp_path / "plain.bin", tmp_path / "perturbed.bin"
        plain.write_bytes(bytes(256))
        perturbed.write_bytes(bytes(256))
        noisy = FaultInjector(seed=3)
        for _ in range(17):
            noisy.flip_array_bits(np.zeros(8), n_flips=3)
        FaultInjector(seed=3).flip_file_bits(plain, n_flips=5)
        noisy.flip_file_bits(perturbed, n_flips=5)
        assert plain.read_bytes() == perturbed.read_bytes() != bytes(256)

    def test_injection_accounting(self, trace):
        injector = TraceFaults(seed=1, record_corruption_rate=0.05)
        corrupted = list(injector.corrupt_trace(trace))
        n_corrupt = sum(injector.injected.values())
        assert 0 < n_corrupt < len(trace)
        assert len(corrupted) == len(trace)


class TestCorruptedTraceReplay:
    def test_lenient_mode_finishes_with_quarantine_count(self, trace):
        # Acceptance criterion: a corrupted trace in lenient mode
        # finishes with a nonzero quarantine count...
        injector = TraceFaults(seed=7, record_corruption_rate=0.01)
        bad = list(injector.corrupt_trace(trace))
        stats = replay_trace(
            bad, baseline_config(), warmup_fraction=0.0, mode="lenient"
        )
        assert stats.quarantined > 0
        assert sum(stats.quarantined_by_reason.values()) == stats.quarantined
        assert stats.n_accesses == len(trace) - stats.quarantined
        assert stats.cpma > 0

    def test_strict_mode_raises(self, trace):
        # ...and in strict mode raises TraceCorruptionError.
        injector = TraceFaults(seed=7, record_corruption_rate=0.01)
        bad = list(injector.corrupt_trace(trace))
        with pytest.raises(TraceCorruptionError):
            replay_trace(
                bad, baseline_config(), warmup_fraction=0.0, mode="strict"
            )

    def test_clean_trace_quarantines_nothing(self, trace):
        strict = replay_trace(
            trace, baseline_config(), warmup_fraction=0.0, mode="strict"
        )
        unguarded = replay_trace(trace, baseline_config(), warmup_fraction=0.0)
        assert strict.quarantined == 0
        assert strict.cpma == pytest.approx(unguarded.cpma, rel=1e-12)

    def test_dropped_producers_do_not_hang_replay(self, trace):
        # Dangling dep_uids (producer records removed from the stream)
        # must degrade to "no wait", never deadlock.
        injector = TraceFaults(seed=5, dependency_drop_rate=0.05)
        thinned = list(injector.drop_producers(trace))
        assert len(thinned) < len(trace)
        stats = replay_trace(
            thinned, baseline_config(), warmup_fraction=0.0, mode="lenient"
        )
        assert stats.n_accesses == len(thinned)


class TestBitFlips:
    def test_flip_array_bits_in_place(self):
        array = np.arange(32, dtype=np.float64)
        pristine = array.copy()
        flipped = FaultInjector(seed=6).flip_array_bits(array, n_flips=1)
        assert flipped == 1
        assert not np.array_equal(array, pristine)

    def test_flip_file_bits_respects_header_guard(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(bytes(128))
        FaultInjector(seed=6).flip_file_bits(path, n_flips=4, offset_min=64)
        raw = path.read_bytes()
        assert raw[:64] == bytes(64)  # header untouched
        assert raw[64:] != bytes(64)

    def test_flip_file_bits_too_small_is_noop(self, tmp_path):
        path = tmp_path / "tiny.bin"
        path.write_bytes(b"abc")
        flipped = FaultInjector(seed=6).flip_file_bits(
            path, n_flips=1, offset_min=16
        )
        assert flipped == 0
        assert path.read_bytes() == b"abc"


class TestRawRecordBypass:
    def test_make_raw_record_skips_validation(self):
        bad = make_raw_record(5, -3, AccessType.LOAD, -1, 0, dep_uid=99)
        assert bad.cpu == -3 and bad.dep_uid == 99
        with pytest.raises(TraceCorruptionError):
            TraceRecord(5, -3, AccessType.LOAD, -1, 0, dep_uid=99)


class TestWorkerFaults:
    def test_no_rates_no_faults(self):
        injector = FaultInjector(seed=1)
        assert injector.worker_fault("figure-6", 0) is None

    def test_forced_fault_for_one_task(self):
        injector = FaultInjector(
            forced_failures={"worker-crash:figure-6": 1}
        )
        assert injector.worker_fault("figure-6", 0) == "crash"
        assert injector.worker_fault("figure-6", 1) is None  # consumed
        assert injector.worker_fault("figure-8", 0) is None  # other task

    def test_forced_fault_any_task_always(self):
        injector = FaultInjector(forced_failures={"worker-hang": -1})
        assert injector.worker_fault("a", 0) == "hang"
        assert injector.worker_fault("b", 5) == "hang"

    def test_rate_faults_deterministic_per_seed_task_attempt(self):
        def make():
            return FaultInjector(seed=11, worker_fault_rates={"crash": 0.5})

        rolls = [make().worker_fault("t", i) for i in range(20)]
        assert rolls == [make().worker_fault("t", i) for i in range(20)]
        assert "crash" in rolls and None in rolls  # rate actually bites

    def test_retry_rolls_fresh(self):
        injector = FaultInjector(seed=0, worker_fault_rates={"crash": 0.5})
        rolls = {injector.worker_fault("task", a) for a in range(30)}
        assert rolls == {"crash", None}  # transient, not sticky

    def test_injected_bookkeeping(self):
        injector = FaultInjector(
            seed=2, worker_fault_rates={"corrupt-result": 1.0}
        )
        assert injector.worker_fault("t", 0) == "corrupt-result"
        assert injector.injected["worker:corrupt-result"] == 1

    def test_invalid_mode_and_rate_rejected(self):
        with pytest.raises(ValueError, match="unknown worker fault mode"):
            FaultInjector(worker_fault_rates={"meltdown": 0.1})
        with pytest.raises(ValueError, match="must be in"):
            FaultInjector(worker_fault_rates={"crash": 1.5})

"""Dependency-chain edge cases: the replayer completes or raises — never hangs.

Coverage for the reference ``DependencyTracker`` and the replay
dependency rule:
self-dependencies, forward dependencies, long same-cpu chains, and
cross-cpu chains.
"""

import pytest

from repro.memsim import baseline_config
from repro.memsim.replay import replay_trace
from repro.resilience.errors import TraceCorruptionError
from repro.traces.record import AccessType, NO_DEP, TraceRecord, validate_trace

from tests.trace_faults import make_raw_record
from tests.trace_reference import DependencyTracker


def load(uid, cpu=0, address=None, dep=NO_DEP):
    address = address if address is not None else 0x1000 + uid * 8192
    return TraceRecord(uid, cpu, AccessType.LOAD, address, 0x400000, dep)


class TestDependencyTracker:
    def test_chain_through_registers(self):
        tracker = DependencyTracker()
        tracker.produce("ptr", 3)
        assert tracker.dependency_on("ptr") == 3
        tracker.produce("ptr", 9)  # overwritten by a later load
        assert tracker.dependency_on("ptr") == 9

    def test_unknown_register_and_none(self):
        tracker = DependencyTracker()
        assert tracker.dependency_on("never-written") == NO_DEP
        assert tracker.dependency_on(None) == NO_DEP

    def test_clear_and_reset(self):
        tracker = DependencyTracker()
        tracker.produce("a", 1)
        tracker.produce("b", 2)
        tracker.clear("a")
        assert tracker.dependency_on("a") == NO_DEP
        tracker.reset()
        assert tracker.dependency_on("b") == NO_DEP

    def test_negative_uid_rejected(self):
        with pytest.raises(ValueError):
            DependencyTracker().produce("r", -1)


class TestDependencyChainReplay:
    def test_long_same_cpu_chain_completes(self):
        # A 200-deep pointer chase on one cpu: each load depends on the
        # previous one.  Must finish, with latency reflecting serialization.
        chained = [load(0)] + [load(i, dep=i - 1) for i in range(1, 200)]
        independent = [load(i) for i in range(200)]
        dep_stats = replay_trace(
            chained, baseline_config(), warmup_fraction=0.0
        )
        ind_stats = replay_trace(
            independent, baseline_config(), warmup_fraction=0.0
        )
        assert dep_stats.n_accesses == 200
        assert dep_stats.wall_cycles > ind_stats.wall_cycles

    def test_cross_cpu_chain_completes(self):
        # Producer on cpu 0, consumer on cpu 1, alternating: the
        # completion table is shared, so cross-cpu deps serialize too.
        records = [load(0, cpu=0)]
        for uid in range(1, 100):
            records.append(load(uid, cpu=uid % 2, dep=uid - 1))
        stats = replay_trace(records, baseline_config(), warmup_fraction=0.0)
        assert stats.n_accesses == 100

    def test_self_dependency_raises_not_hangs(self):
        records = [load(0), make_raw_record(
            1, 0, AccessType.LOAD, 0x2000, 0x400000, dep_uid=1
        )]
        with pytest.raises(TraceCorruptionError) as info:
            replay_trace(
                records, baseline_config(), warmup_fraction=0.0, mode="strict"
            )
        assert info.value.reason == "self-dep"

    def test_forward_dependency_raises_not_hangs(self):
        records = [load(0), make_raw_record(
            1, 0, AccessType.LOAD, 0x2000, 0x400000, dep_uid=50
        )]
        with pytest.raises(TraceCorruptionError) as info:
            replay_trace(
                records, baseline_config(), warmup_fraction=0.0, mode="strict"
            )
        assert info.value.reason == "forward-dep"

    def test_lenient_mode_completes_on_bad_chains(self):
        records = [load(0)]
        records.append(make_raw_record(
            1, 0, AccessType.LOAD, 0x2000, 0x400000, dep_uid=1
        ))
        records.append(make_raw_record(
            2, 0, AccessType.LOAD, 0x3000, 0x400000, dep_uid=77
        ))
        records.extend(load(uid, dep=uid - 1) for uid in range(3, 50))
        stats = replay_trace(
            records, baseline_config(), warmup_fraction=0.0, mode="lenient"
        )
        assert stats.quarantined == 2
        assert stats.n_accesses == 48

    def test_dependency_on_store_never_waits(self):
        # Stores produce no register values; a "dependency" naming a
        # store uid finds no completion entry and issues immediately.
        records = [
            TraceRecord(0, 0, AccessType.STORE, 0x1000, 0x400000),
            load(1, dep=0),
        ]
        stats = replay_trace(records, baseline_config(), warmup_fraction=0.0)
        assert stats.n_accesses == 2


class TestValidateTraceCpuIds:
    def test_cpu_bound_check(self):
        records = [load(0, cpu=0), load(1, cpu=1)]
        validate_trace(records, n_cpus=2)
        with pytest.raises(TraceCorruptionError, match="cpu"):
            validate_trace(records, n_cpus=1)

    def test_missing_dep_detected(self):
        records = [load(5), load(6, dep=2)]
        with pytest.raises(TraceCorruptionError, match="missing"):
            validate_trace(records)

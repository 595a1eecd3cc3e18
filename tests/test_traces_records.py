"""Tests for trace records, file I/O, and dependency tracking."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilience.errors import TraceCorruptionError
from repro.traces.record import (
    AccessType,
    NO_DEP,
    TraceRecord,
    read_trace,
    validate_trace,
    write_trace,
)
from tests.trace_reference import DependencyTracker


def record(uid=0, cpu=0, kind=AccessType.LOAD, address=0x1000, ip=0x400000,
           dep=NO_DEP):
    return TraceRecord(uid, cpu, kind, address, ip, dep)


class TestTraceRecord:
    def test_basic_fields(self):
        r = record(uid=5, cpu=1, address=0xdeadbeef)
        assert r.uid == 5
        assert r.cpu == 1
        assert r.address == 0xdeadbeef
        assert r.is_load
        assert not r.has_dependency

    def test_store_kind(self):
        r = record(kind=AccessType.STORE)
        assert not r.is_load

    def test_dependency_must_be_earlier(self):
        with pytest.raises(ValueError, match="earlier"):
            record(uid=3, dep=3)
        with pytest.raises(ValueError, match="earlier"):
            record(uid=3, dep=7)

    def test_valid_dependency(self):
        r = record(uid=3, dep=1)
        assert r.has_dependency
        assert r.dep_uid == 1

    def test_rejects_negative_uid(self):
        with pytest.raises(ValueError):
            record(uid=-1)

    def test_rejects_negative_address(self):
        with pytest.raises(ValueError):
            record(address=-4)


class TestTraceIO:
    def test_roundtrip(self, tmp_path):
        records = [
            record(uid=0, address=0x1000),
            record(uid=1, cpu=1, kind=AccessType.STORE, address=0x2040),
            record(uid=2, dep=0, address=0x3000),
        ]
        path = tmp_path / "trace.txt"
        count = write_trace(records, path)
        assert count == 3
        loaded = list(read_trace(path))
        assert loaded == records

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2 3\n")
        with pytest.raises(ValueError, match="malformed"):
            list(read_trace(path))

    def test_value_outside_int64_is_a_malformed_line(self, tmp_path):
        # Replay packs records into int64 columns, so such a line cannot
        # be replayed: strict reading names it, lenient reading skips it.
        path = tmp_path / "huge.txt"
        path.write_text("0 0 0 1000 400000 -1\n1 1 0 1" + "0" * 16
                        + " 400000 -1\n2 0 0 2000 400000 -1\n")
        with pytest.raises(TraceCorruptionError, match=r"huge.txt:2: .*int64"):
            list(read_trace(path))
        assert [r.uid for r in read_trace(path, strict=False)] == [0, 2]

    def test_validate_trace_accepts_good(self):
        records = [record(uid=0), record(uid=1, dep=0), record(uid=5, dep=1)]
        validate_trace(records)  # no exception

    def test_validate_trace_rejects_nonincreasing_uid(self):
        with pytest.raises(ValueError, match="increase"):
            validate_trace([record(uid=1), record(uid=1)])

    def test_validate_trace_rejects_missing_dep(self):
        with pytest.raises(ValueError, match="missing"):
            validate_trace([record(uid=0), record(uid=2, dep=1)])

    @given(
        addresses=st.lists(
            st.integers(min_value=0, max_value=2**48), min_size=1, max_size=50
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, tmp_path_factory, addresses):
        records = [record(uid=i, address=a) for i, a in enumerate(addresses)]
        path = tmp_path_factory.mktemp("traces") / "t.txt"
        write_trace(records, path)
        assert list(read_trace(path)) == records


class TestDependencyTracker:
    def test_unknown_register_has_no_dep(self):
        tracker = DependencyTracker()
        assert tracker.dependency_on("r1") == NO_DEP
        assert tracker.dependency_on(None) == NO_DEP

    def test_produce_then_consume(self):
        tracker = DependencyTracker()
        tracker.produce("addr", 7)
        assert tracker.dependency_on("addr") == 7

    def test_latest_producer_wins(self):
        tracker = DependencyTracker()
        tracker.produce("addr", 7)
        tracker.produce("addr", 9)
        assert tracker.dependency_on("addr") == 9

    def test_clear_register(self):
        tracker = DependencyTracker()
        tracker.produce("addr", 7)
        tracker.clear("addr")
        assert tracker.dependency_on("addr") == NO_DEP

    def test_clear_unknown_is_noop(self):
        DependencyTracker().clear("ghost")

    def test_reset(self):
        tracker = DependencyTracker()
        tracker.produce("a", 1)
        tracker.produce("b", 2)
        tracker.reset()
        assert tracker.dependency_on("a") == NO_DEP
        assert tracker.dependency_on("b") == NO_DEP

    def test_rejects_negative_uid(self):
        with pytest.raises(ValueError):
            DependencyTracker().produce("r", -1)

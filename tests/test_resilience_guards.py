"""Tests for the resilience error taxonomy, trace guard, and checkpoints."""

import numpy as np
import pytest

from repro.resilience.checkpoint import load_checkpoint, save_checkpoint
from repro.resilience.errors import (
    CheckpointError,
    GuardViolation,
    ReproError,
    SolverDivergenceError,
    TraceCorruptionError,
)
from repro.thermal.solver import relative_residual
from repro.traces.generator import records_to_array
from repro.traces.record import AccessType, NO_DEP, TraceGuard, TraceRecord

from tests.trace_faults import make_raw_record


class TestErrorTaxonomy:
    def test_hierarchy(self):
        assert issubclass(SolverDivergenceError, ReproError)
        assert issubclass(TraceCorruptionError, ReproError)
        assert issubclass(CheckpointError, ReproError)
        assert issubclass(GuardViolation, ReproError)

    def test_trace_and_guard_errors_are_valueerrors(self):
        # Older callers guard trace parsing with ``except ValueError``.
        assert issubclass(TraceCorruptionError, ValueError)
        assert issubclass(GuardViolation, ValueError)

    def test_partial_payload(self):
        err = SolverDivergenceError("x", residual=0.5, method="cg",
                                    partial={"step": 3})
        assert err.partial == {"step": 3}
        assert err.residual == 0.5
        assert err.method == "cg"
        assert ReproError("x").partial == {}

    def test_trace_corruption_metadata(self):
        err = TraceCorruptionError("bad", uid=17, reason="forward-dep")
        assert err.uid == 17
        assert err.reason == "forward-dep"


class TestSolverGuards:
    def test_residual(self):
        matrix = np.diag([2.0, 4.0])
        rhs = np.array([2.0, 4.0])
        assert relative_residual(matrix, np.array([1.0, 1.0]), rhs) == \
            pytest.approx(0.0)
        assert relative_residual(matrix, np.array([2.0, 2.0]), rhs) > 1e-6
        assert relative_residual(matrix, np.array([np.nan, 1.0]), rhs) == \
            float("inf")


def _rec(uid, cpu=0, kind=AccessType.LOAD, address=0x1000, dep=NO_DEP):
    return make_raw_record(uid, cpu, kind, address, 0x400000, dep)


def _admit(guard, record):
    """Screen one record as a one-row batch; True if admitted."""
    admitted, error = guard.screen(records_to_array([record]))
    if error is not None:
        raise error
    return bool(admitted[0])


class TestTraceGuard:
    def test_clean_stream_admits_everything(self):
        guard = TraceGuard(n_cpus=2)
        for uid in range(5):
            assert _admit(guard, _rec(uid, cpu=uid % 2))
        assert guard.checked == 5
        assert guard.quarantined == 0

    @pytest.mark.parametrize("bad,reason", [
        (_rec(3, dep=3), "self-dep"),
        (_rec(3, dep=9), "forward-dep"),
        (_rec(3, cpu=7), "bad-cpu"),
        (_rec(3, cpu=-1), "bad-cpu"),
        (_rec(3, address=-4), "bad-address"),
        (_rec(3, dep=-5), "bad-dep"),
    ])
    def test_strict_raises_with_reason(self, bad, reason):
        guard = TraceGuard(n_cpus=2, strict=True)
        with pytest.raises(TraceCorruptionError) as info:
            _admit(guard, bad)
        assert info.value.reason == reason

    def test_non_monotonic_uid(self):
        guard = TraceGuard(n_cpus=2, strict=True)
        assert _admit(guard, _rec(5))
        with pytest.raises(TraceCorruptionError) as info:
            _admit(guard, _rec(5))
        assert info.value.reason == "non-monotonic-uid"

    def test_lenient_quarantines_and_counts(self):
        guard = TraceGuard(n_cpus=2, strict=False)
        assert _admit(guard, _rec(0))
        assert not _admit(guard, _rec(1, cpu=9))
        assert not _admit(guard, _rec(2, dep=2))
        assert _admit(guard, _rec(3))
        assert guard.quarantined == 2
        assert guard.quarantined_by_reason == {"bad-cpu": 1, "self-dep": 1}
        assert guard.checked == 4

    def test_quarantined_record_does_not_advance_uid_watermark(self):
        guard = TraceGuard(n_cpus=2, strict=False)
        assert not _admit(guard, _rec(10, cpu=9))
        assert _admit(guard, _rec(2))  # uid 2 is still fresh


class TestCheckpointFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "state.ckpt"
        save_checkpoint("replay", {"x": np.arange(3), "n": 7}, path)
        state = load_checkpoint(path, kind="replay")
        assert state["n"] == 7
        np.testing.assert_array_equal(state["x"], np.arange(3))

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            load_checkpoint(tmp_path / "nope.ckpt", kind="replay")

    def test_foreign_file(self, tmp_path):
        path = tmp_path / "foreign.bin"
        path.write_bytes(b"definitely not a checkpoint")
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(path, kind="replay")

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "state.ckpt"
        save_checkpoint("replay", {"big": np.zeros(1000)}, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError, match="truncated or corrupt"):
            load_checkpoint(path, kind="replay")

    def test_wrong_kind(self, tmp_path):
        path = tmp_path / "state.ckpt"
        save_checkpoint("transient", {"step": 1}, path)
        with pytest.raises(CheckpointError, match="expected 'replay'"):
            load_checkpoint(path, kind="replay")

    def test_atomic_write_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "state.ckpt"
        save_checkpoint("replay", {"n": 1}, path)
        assert [p.name for p in tmp_path.iterdir()] == ["state.ckpt"]


class TestRecordConstructionValidation:
    def test_negative_cpu_rejected(self):
        with pytest.raises(TraceCorruptionError, match="cpu id"):
            TraceRecord(0, -1, AccessType.LOAD, 0x1000, 0x400000)

    def test_bad_kind_rejected(self):
        with pytest.raises(TraceCorruptionError, match="kind"):
            TraceRecord(0, 0, 42, 0x1000, 0x400000)

    def test_reason_tags(self):
        with pytest.raises(TraceCorruptionError) as info:
            TraceRecord(3, 0, AccessType.LOAD, 0x1000, 0, dep_uid=3)
        assert info.value.reason == "self-dep"
        with pytest.raises(TraceCorruptionError) as info:
            TraceRecord(3, 0, AccessType.LOAD, 0x1000, 0, dep_uid=8)
        assert info.value.reason == "forward-dep"

"""Checkpoint/resume tests: interrupted runs continue bit-identically."""

import pytest

from repro.floorplan.core2duo import core2duo_floorplan
from repro.memsim import baseline_config
from repro.memsim.hierarchy import MemoryHierarchy
from repro.memsim.replay import TraceReplayer, replay_trace
from repro.resilience.errors import CheckpointError
from repro.thermal.solver import SolverConfig
from repro.thermal.stack import build_planar_stack
from repro.thermal.transient import solve_transient
from repro.traces.generator import generate_trace


@pytest.fixture(scope="module")
def trace():
    return generate_trace("smvm", n_records=12000, seed=42)


class TestReplayCheckpointResume:
    def test_interrupted_replay_resumes_within_one_percent(
        self, trace, tmp_path
    ):
        # Acceptance criterion: CPMA of interrupted+resumed within 1%
        # of an uninterrupted run (full-state snapshots make it exact).
        full = replay_trace(trace, baseline_config(), warmup_fraction=0.3)

        path = tmp_path / "replay.ckpt"
        replayer = TraceReplayer(
            hierarchy=MemoryHierarchy(baseline_config()),
            warmup_until=int(len(trace) * 0.3),
        )
        # "Interrupt" mid-run: checkpoint every 2000, die after 7000.
        replayer.feed_many(
            trace, checkpoint_every=2000, checkpoint_path=path,
            stop_after=7000,
        )
        resumed = replay_trace(trace, resume_from=path)
        assert resumed.cpma == pytest.approx(full.cpma, rel=0.01)
        assert resumed.cpma == pytest.approx(full.cpma, rel=1e-12)
        assert resumed.n_accesses == full.n_accesses
        assert resumed.bandwidth_gbps == pytest.approx(
            full.bandwidth_gbps, rel=1e-12
        )

    def test_resume_restores_mid_warmup_interruption(self, trace, tmp_path):
        # Interrupt *before* the warmup boundary: the resumed run must
        # still place the measurement window correctly.
        full = replay_trace(trace, baseline_config(), warmup_fraction=0.3)
        path = tmp_path / "early.ckpt"
        replayer = TraceReplayer(
            hierarchy=MemoryHierarchy(baseline_config()),
            warmup_until=int(len(trace) * 0.3),
        )
        replayer.feed_many(
            trace, checkpoint_every=1000, checkpoint_path=path,
            stop_after=2000,
        )
        resumed = replay_trace(trace, resume_from=path)
        assert resumed.cpma == pytest.approx(full.cpma, rel=1e-12)

    def test_restore_reports_position(self, trace, tmp_path):
        path = tmp_path / "replay.ckpt"
        replayer = TraceReplayer(hierarchy=MemoryHierarchy(baseline_config()))
        replayer.feed_many(
            trace, checkpoint_every=3000, checkpoint_path=path,
            stop_after=6000,
        )
        restored = TraceReplayer.restore(path)
        assert restored.index == 6000

    def test_checkpoint_requires_path(self, trace):
        replayer = TraceReplayer(hierarchy=MemoryHierarchy(baseline_config()))
        with pytest.raises(ValueError, match="checkpoint_path"):
            replayer.feed_many(trace, checkpoint_every=100)

    def test_resume_from_wrong_kind_raises(self, trace, tmp_path):
        from repro.resilience.checkpoint import save_checkpoint

        path = tmp_path / "wrong.ckpt"
        save_checkpoint("transient", {"step": 1}, path)
        with pytest.raises(CheckpointError):
            replay_trace(trace, baseline_config(), resume_from=path)


class TestTransientCheckpointResume:
    @pytest.fixture(scope="class")
    def stack(self):
        return build_planar_stack(core2duo_floorplan())

    CFG = SolverConfig(nx=10, ny=10)

    def test_interrupted_transient_resumes_exactly(self, stack, tmp_path):
        path = tmp_path / "transient.ckpt"
        full = solve_transient(stack, self.CFG, duration_s=1.0, dt_s=0.1)
        # Interrupted run covers only the first 0.6 s, checkpointing.
        solve_transient(
            stack, self.CFG, duration_s=0.6, dt_s=0.1,
            checkpoint_every=2, checkpoint_path=path,
        )
        resumed = solve_transient(
            stack, self.CFG, duration_s=1.0, dt_s=0.1, resume_from=path
        )
        assert resumed.times_s == full.times_s
        assert resumed.peak_c[-1] == pytest.approx(full.peak_c[-1], abs=1e-9)

    def test_incompatible_checkpoint_rejected(self, stack, tmp_path):
        path = tmp_path / "transient.ckpt"
        solve_transient(
            stack, self.CFG, duration_s=0.2, dt_s=0.1,
            checkpoint_every=1, checkpoint_path=path,
        )
        with pytest.raises(CheckpointError, match="dt"):
            solve_transient(
                stack, self.CFG, duration_s=1.0, dt_s=0.05, resume_from=path
            )
        other = SolverConfig(nx=8, ny=8)
        with pytest.raises(CheckpointError, match="n="):
            solve_transient(
                stack, other, duration_s=1.0, dt_s=0.1, resume_from=path
            )

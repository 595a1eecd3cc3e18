"""Hot-path micro-benchmarks: each optimized path against its reference.

Not part of the tier-1 suite (``testpaths`` excludes ``benchmarks/``);
run explicitly with::

    PYTHONPATH=src python -m pytest benchmarks/perf -q

Each case builds one reference/optimized pair, checks the two give
equivalent results, then times them over interleaved pairs (the
``time_pairs`` and ``time_each_pair`` fixtures in ``conftest.py``) and
gates the speedup (``replay/*`` on the median of the per-pair ratios,
the rest on the ratio of the two medians):

* ``trace-gen/svd`` — the per-record reference generator
  (``tests/trace_reference.py``) vs the block-built
  ``TraceGenerator.arrays()``; the arrays must be byte-identical.
* ``replay/<kernel>`` — the per-record reference replay
  (``tests/replay_reference.py``) vs the replay loop's ``feed_array``;
  the full ``ReplayStats`` (hit/miss counters included) must match.
* ``thermal-steady`` — a cold direct SuperLU solve vs the cold
  Jacobi-preconditioned CG solve the steady path uses; fields must agree
  within 1e-9 C (CG stops at a 1e-12 relative residual).
* ``thermal-transient`` — cold backward-Euler setup vs the cached
  (geometry, dt) factorization; peak curves must be bit-identical.
* ``coupled-loop`` — the closed DTM loop with cold per-epoch assembly
  vs the cached per-dt LU; peak and V/f traces must be bit-identical.
* ``oracle-overhead/*`` — the same hot path with oracles off vs
  ``sample`` mode, timed in process CPU time; results must match and
  the median slowdown of a pair must stay within
  :data:`OVERHEAD_BUDGET`.

The fast-path pairs run with oracles off, so they time the fast path
itself; the oracle tax has its own two pairs.  Gates compare ratios of
two timings taken on the same host, so a slower host slows both sides.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import replace
from typing import Any, Dict, List, Optional

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.coupled import (
    CoupledConfig,
    ThresholdDtm,
    constant_load,
    run_coupled_loop,
)
from repro.floorplan.core2duo import core2duo_floorplan
from repro.memsim.config import baseline_config
from repro.memsim.replay import ReplayStats, replay_trace
from repro.oracles.config import oracle_mode
from repro.oracles.report import violations
from repro.thermal.solver import (
    SolverConfig,
    assemble_system,
    clear_operator_cache,
    solve_steady_state,
)
from repro.thermal.stack import DieSpec, build_stack
from repro.thermal.transient import solve_transient
from repro.traces.generator import TraceGenerator, WorkloadSpec
from tests.replay_reference import reference_replay
from tests.trace_reference import reference_arrays

SEED = 1234

#: Interleaved reference/optimized pairs per case.
PAIRS = 5

#: The oracle-overhead cases are gated on a 5% budget and each of their
#: runs takes well under a second, so they time three times the pairs:
#: at five, host noise alone moves their medians by more than 5%.
ORACLE_PAIRS = 3 * PAIRS

#: The clock of the oracle-overhead cases: this process's CPU time, so
#: time the host gives other processes drops out.  Both sides are
#: single-threaded and CPU-bound.
ORACLE_CLOCK = time.process_time

#: Allowed fractional slowdown of oracle ``sample`` mode over oracles off.
OVERHEAD_BUDGET = 0.05

#: A case fails when its speedup drops below this share of its
#: recorded ratio (a drop of more than 25%).
RATIO_FLOOR = 0.75

#: Quick-tier speedups of the committed baseline these cases replace
#: (recorded on a 2-vCPU host, 15 pairs; 45 for the oracle pairs),
#: rounded up at the third decimal so no floor drops.  ``trace-gen/svd``
#: is the median of ten runs of this file (13.27-15.66x, 2-vCPU host)
#: against the per-record reference generator.
RECORDED_SPEEDUP = {
    "trace-gen/svd": 14.195,
    "replay/svd": 2.889,
    "replay/gauss": 2.564,
    "thermal-steady": 15.795,
    "thermal-transient": 6.558,
    "coupled-loop": 2.168,
    "oracle-overhead/replay-svd": 1.043,
    "oracle-overhead/thermal-steady": 0.992,
}

#: Memory scale divisor of the replay cases (the Section 3 study
#: default, where footprints exercise the L2).
SCALE = 8

#: Largest field difference, C, at which a CG steady solve still counts
#: as equivalent to the direct SuperLU reference.
STEADY_TOL_C = 1e-9

#: Quick-tier sizes.
N_RECORDS = 150_000
STEADY_NX = 40
TRANSIENT_NX, TRANSIENT_STEPS = 32, 10
COUPLED_NX, COUPLED_EPOCHS = 16, 6


@pytest.fixture
def oracles_off():
    """Run the case with oracles off: the fast-path pairs time the fast
    path itself."""
    with oracle_mode("off"):
        yield


def _gate(name: str, reference_s: float, optimized_s: float,
          speedup: Optional[float] = None) -> None:
    """Fail when *speedup* (by default ``reference_s / optimized_s``)
    is below :data:`RATIO_FLOOR` of the recorded one."""
    if speedup is None:
        speedup = reference_s / optimized_s
    floor = RATIO_FLOOR * RECORDED_SPEEDUP[name]
    print(f"{name}: ref {1e3 * reference_s:.1f} ms, "
          f"opt {1e3 * optimized_s:.1f} ms, {speedup:.2f}x "
          f"(floor {floor:.2f}x)")
    assert speedup >= floor, (
        f"{name}: speedup {speedup:.2f}x fell below {floor:.2f}x "
        f"(recorded {RECORDED_SPEEDUP[name]:.2f}x - 25%)"
    )


def _stats_signature(stats: ReplayStats) -> Dict[str, Any]:
    """The equivalence-relevant fields of a :class:`ReplayStats`."""
    return {
        "n_accesses": stats.n_accesses,
        "cpma": stats.cpma,
        "avg_latency": stats.avg_latency,
        "wall_cycles": stats.wall_cycles,
        "bandwidth_gbps": stats.bandwidth_gbps,
        "level_counts": dict(stats.level_counts),
        "level_latency": dict(stats.level_latency),
        "offchip_fraction": stats.offchip_fraction,
        "invalidations": stats.invalidations,
    }


def _generator(kernel: str, n_records: int) -> TraceGenerator:
    spec = WorkloadSpec(name=kernel, n_records=n_records, seed=SEED)
    return TraceGenerator(spec, scale=SCALE)


def _core2duo(nx: int):
    """The Core 2 Duo planar stack and an nx x nx solver config."""
    return build_stack([DieSpec(core2duo_floorplan())]), SolverConfig(
        nx=nx, ny=nx
    )


@pytest.mark.usefixtures("oracles_off")
def test_trace_generation(time_pairs):
    generator = _generator("svd", N_RECORDS)

    def run_reference() -> np.ndarray:
        return reference_arrays(generator.spec, generator.scale)

    assert run_reference().tobytes() == generator.arrays().tobytes()
    reference_s, optimized_s = time_pairs(
        run_reference, generator.arrays, PAIRS
    )
    _gate("trace-gen/svd", reference_s, optimized_s)


def _replay_pair(kernel: str, n_records: int, warmup_fraction: float):
    generator = _generator(kernel, n_records)
    records = list(generator.records())
    array = generator.arrays()
    config = baseline_config(SCALE)

    def run_reference() -> ReplayStats:
        return reference_replay(
            records, config, warmup_fraction=warmup_fraction
        )

    def run_optimized() -> ReplayStats:
        return replay_trace(array, config, warmup_fraction=warmup_fraction)

    return run_reference, run_optimized


@pytest.mark.usefixtures("oracles_off")
@pytest.mark.parametrize(
    "kernel, warmup_fraction", [("svd", 0.5), ("gauss", 0.35)]
)
def test_replay(time_each_pair, kernel, warmup_fraction):
    reference, optimized = _replay_pair(kernel, N_RECORDS, warmup_fraction)
    assert _stats_signature(reference()) == _stats_signature(optimized())
    reference_times, optimized_times = time_each_pair(
        reference, optimized, PAIRS
    )
    # Gated on the median of the per-pair speedups: the two sides of a
    # pair share the host's speed, while the ratio of the two medians
    # read 2.14x against svd's 2.17x floor in 2 of 10 unchanged runs.
    _gate(
        f"replay/{kernel}",
        statistics.median(reference_times),
        statistics.median(optimized_times),
        statistics.median(
            ref / opt for ref, opt in zip(reference_times, optimized_times)
        ),
    )


@pytest.mark.usefixtures("oracles_off")
@pytest.mark.parametrize("kernel", ["pcg", "smvm"])
def test_replay_equivalence_other_kernels(kernel):
    reference, optimized = _replay_pair(kernel, 60_000, 0.35)
    assert _stats_signature(reference()) == _stats_signature(optimized())


@pytest.mark.usefixtures("oracles_off")
def test_thermal_steady(time_pairs):
    # The reference is the direct solve the steady path used before CG.
    stack, config = _core2duo(STEADY_NX)

    def run_reference() -> np.ndarray:
        system = assemble_system(stack, config, reuse_operator=False)
        lu = spla.splu(system.matrix, permc_spec="MMD_AT_PLUS_A")
        return lu.solve(system.rhs)

    def run_cg() -> np.ndarray:
        clear_operator_cache()
        return solve_steady_state(stack, config).temperature.ravel()

    max_diff = float(np.max(np.abs(run_reference() - run_cg())))
    assert max_diff <= STEADY_TOL_C
    reference_s, optimized_s = time_pairs(run_reference, run_cg, PAIRS)
    _gate("thermal-steady", reference_s, optimized_s)


@pytest.mark.usefixtures("oracles_off")
def test_thermal_transient(time_pairs):
    stack, config = _core2duo(TRANSIENT_NX)
    dt_s = 0.05
    duration_s = TRANSIENT_STEPS * dt_s

    def run_warm():
        return solve_transient(stack, config, duration_s=duration_s, dt_s=dt_s)

    def run_cold():
        clear_operator_cache()
        return run_warm()

    # run_cold leaves its factorization cached, so run_warm reuses it
    # whichever side of a pair runs first.
    assert run_cold().peak_c == run_warm().peak_c
    reference_s, optimized_s = time_pairs(run_cold, run_warm, PAIRS)
    _gate("thermal-transient", reference_s, optimized_s)


@pytest.mark.usefixtures("oracles_off")
def test_coupled_loop(time_pairs):
    # Both sides start from an empty operator cache, as a fresh process
    # does, and the loop calls the transient solver once per epoch with
    # the same geometry and dt.
    warm_cfg = CoupledConfig(
        nx=COUPLED_NX,
        n_epochs=COUPLED_EPOCHS,
        epoch_s=1.0,
        dt_s=0.5,
        calibration_s=10.0,
        calibration_dt_s=0.5,
    )
    cold_cfg = replace(warm_cfg, reuse_operator=False)

    def run(cfg):
        clear_operator_cache()
        return run_coupled_loop(ThresholdDtm(), constant_load(1.0), cfg)

    cold, warm = run(cold_cfg), run(warm_cfg)
    assert [e.peak_c for e in cold.epochs] == [e.peak_c for e in warm.epochs]
    assert [e.vcc for e in cold.epochs] == [e.vcc for e in warm.epochs]
    assert cold.tau_s == warm.tau_s
    reference_s, optimized_s = time_pairs(
        lambda: run(cold_cfg), lambda: run(warm_cfg), PAIRS
    )
    _gate("coupled-loop", reference_s, optimized_s)


def _gate_overhead(name: str, off_times: List[float],
                   sample_times: List[float]) -> None:
    _gate(name, statistics.median(off_times), statistics.median(sample_times))
    # The two sides of a pair run back to back, so the pair's ratio
    # cancels the host's speed, which drifts by 30% over seconds on a
    # shared host; the ratio of the two medians does not, and swung from
    # -13% to +7% between runs of unchanged code.
    overhead = statistics.median(
        sample / off for off, sample in zip(off_times, sample_times)
    ) - 1.0
    print(f"{name}: median pair overhead {100 * overhead:+.1f}%")
    assert overhead <= OVERHEAD_BUDGET, (
        f"{name}: sample-mode overhead {100 * overhead:.1f}% > "
        f"{100 * OVERHEAD_BUDGET:.0f}% budget"
    )


def test_oracle_overhead_replay(time_each_pair):
    array = _generator("svd", N_RECORDS).arrays()
    config = baseline_config(SCALE)

    def run(mode: str) -> ReplayStats:
        with oracle_mode(mode):
            return replay_trace(array, config, warmup_fraction=0.5)

    sample_stats = run("sample")
    assert _stats_signature(run("off")) == _stats_signature(sample_stats)
    assert not sample_stats.degraded
    off_times, sample_times = time_each_pair(
        lambda: run("off"), lambda: run("sample"), ORACLE_PAIRS,
        ORACLE_CLOCK,
    )
    _gate_overhead("oracle-overhead/replay-svd", off_times, sample_times)


def test_oracle_overhead_thermal_steady(time_each_pair):
    # The warm cached-operator solve, with oracles off vs sample.
    stack, config = _core2duo(STEADY_NX)

    def run(mode: str):
        with oracle_mode(mode):
            return solve_steady_state(stack, config)

    with oracle_mode("off"):
        clear_operator_cache()
    off_solution = run("off")  # also primes the operator cache
    violations_before = len(violations())
    assert np.array_equal(off_solution.temperature, run("sample").temperature)
    assert len(violations()) == violations_before
    off_times, sample_times = time_each_pair(
        lambda: run("off"), lambda: run("sample"), ORACLE_PAIRS,
        ORACLE_CLOCK,
    )
    _gate_overhead("oracle-overhead/thermal-steady", off_times, sample_times)


class TestTimePairs:
    def test_rejects_zero_pairs(self, time_pairs):
        with pytest.raises(ValueError):
            time_pairs(lambda: None, lambda: None, pairs=0)

    def test_returns_nonnegative_seconds(self, time_pairs):
        ref_s, opt_s = time_pairs(
            lambda: sum(range(100)), lambda: None, pairs=2
        )
        assert ref_s >= 0.0 and opt_s >= 0.0

    def test_interleaves_and_alternates_the_first_side(self, time_pairs):
        calls = []
        time_pairs(
            lambda: calls.append("ref"), lambda: calls.append("opt"),
            pairs=5,
        )
        assert calls == ["ref", "opt", "opt", "ref"] * 2 + ["ref", "opt"]

    def test_each_pair_on_the_given_clock(self, time_each_pair):
        # Run k takes k ticks of the given clock; sides alternate first.
        ticks = iter([0, 1, 1, 3, 3, 6, 6, 10, 10, 15, 15, 21])
        assert time_each_pair(
            lambda: None, lambda: None, pairs=3, clock=lambda: next(ticks)
        ) == ([1, 4, 5], [2, 3, 6])

    def test_median_ignores_one_slow_pair(self, time_pairs, monkeypatch):
        # Every run takes 1 s on the fake clock except the third
        # reference run, which takes 1000 s: the medians do not move.
        ticks = iter([0, 1, 1, 2, 2, 3, 3, 4, 4, 1004, 1004, 1005,
                      1005, 1006, 1006, 1007, 1007, 1008, 1008, 1009])
        monkeypatch.setattr(time, "perf_counter", lambda: next(ticks))
        assert time_pairs(lambda: None, lambda: None, pairs=5) == (1, 1)

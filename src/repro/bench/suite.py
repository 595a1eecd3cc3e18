"""The benchmark pairs behind ``repro bench``.

Each benchmark times a *reference* implementation against its optimized
hot path and checks the two produce equivalent results before any
timing is trusted:

* ``trace-gen/<kernel>`` — per-record ``TraceGenerator.records()`` vs
  the batched ``arrays()`` form (same stream, same RNG draws).
* ``replay/<kernel>`` — per-record ``feed_many`` replay vs the chunked
  ``feed_array`` fast path; equivalence is the full ``ReplayStats``
  (hit/miss counters included) matching exactly.
* ``thermal-steady`` — a cold direct SuperLU solve vs the cold
  Jacobi-preconditioned CG solve the steady path uses; fields must agree
  within 1e-9 C (CG stops at a 1e-12 relative residual, so they are not
  bit-identical).
* ``thermal-transient`` — cold backward-Euler setup vs the cached
  (geometry, dt) factorization; peak curves must be bit-identical.
* ``coupled-loop`` — the closed-loop thermal/DVFS engine with cold
  per-epoch assembly (``reuse_operator=False``) vs the cached
  per-(geometry, dt) LU reused across every epoch; the per-epoch peak
  and V/f traces must be bit-identical.
* ``oracle-overhead/*`` — the same hot path with oracles off
  (reference) vs ``sample`` mode (optimized); results must match
  exactly and the slowdown must stay within
  :data:`ORACLE_OVERHEAD_BUDGET`.

The fast-path pairs above time with oracles *off* — they measure the
fast path itself; the oracle tax is measured by its own pair.  Timing
happens only through :func:`repro.bench.harness.time_pairs`.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import Any, Dict, List, Optional

import numpy as np
import scipy.sparse.linalg as spla

from repro.bench.harness import DEFAULT_PAIRS, BenchResult, time_pairs
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
from repro.traces.generator import (
    TraceGenerator,
    WorkloadSpec,
    records_to_array,
)

#: Allowed fractional slowdown of ``--oracles sample`` over oracles-off
#: on the hot paths (<= 5%).
ORACLE_OVERHEAD_BUDGET = 0.05

#: The oracle-overhead pairs are gated on a 5% budget, five times
#: tighter than the 25% ratio gate, and each of their runs takes well
#: under a second, so they time this many times the pairs: at five
#: pairs, host noise alone moves their medians by more than 5%.
ORACLE_PAIRS_FACTOR = 3

#: (kernel, n_records, warmup_fraction) per tier.  High-hit kernels
#: (svd, gauss) stress the fast path's inline L1/L2 walks; pcg in the
#: full tier keeps a miss-heavy workload honest.
_REPLAY_PLAN = {
    "quick": [("svd", 150_000, 0.5), ("gauss", 150_000, 0.35)],
    "full": [
        ("svd", 400_000, 0.5),
        ("gauss", 400_000, 0.35),
        ("pcg", 400_000, 0.35),
    ],
}

_TRACE_GEN_PLAN = {
    "quick": [("svd", 150_000)],
    "full": [("svd", 400_000), ("gauss", 400_000)],
}

#: Memory scale divisor for replay benchmarks (matches the Section 3
#: study default, where footprints exercise the L2).
_REPLAY_SCALE = 8


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


def bench_trace_generation(
    kernel: str, n_records: int, seed: int, pairs: int
) -> BenchResult:
    """records() (per-record objects) vs arrays() (batched rows)."""
    spec = WorkloadSpec(name=kernel, n_records=n_records, seed=seed)
    generator = TraceGenerator(spec, scale=_REPLAY_SCALE)
    reference = list(generator.records())
    array = generator.arrays()
    equivalent = bool(
        np.array_equal(records_to_array(reference), array)
    )
    reference_s, optimized_s = time_pairs(
        lambda: list(generator.records()), generator.arrays, pairs
    )
    return BenchResult(
        name=f"trace-gen/{kernel}",
        reference_s=reference_s,
        optimized_s=optimized_s,
        equivalent=equivalent,
        pairs=pairs,
        meta={"n_records": n_records, "seed": seed},
    )


def bench_replay(
    kernel: str,
    n_records: int,
    warmup_fraction: float,
    seed: int,
    pairs: int,
) -> BenchResult:
    """Per-record feed vs the chunked array fast path, counters pinned."""
    spec = WorkloadSpec(name=kernel, n_records=n_records, seed=seed)
    generator = TraceGenerator(spec, scale=_REPLAY_SCALE)
    records = list(generator.records())
    array = generator.arrays()
    config = baseline_config(_REPLAY_SCALE)

    def run_reference() -> ReplayStats:
        return replay_trace(records, config, warmup_fraction=warmup_fraction)

    def run_optimized() -> ReplayStats:
        return replay_trace(array, config, warmup_fraction=warmup_fraction)

    equivalent = _stats_signature(run_reference()) == _stats_signature(
        run_optimized()
    )
    reference_s, optimized_s = time_pairs(
        run_reference, run_optimized, pairs
    )
    return BenchResult(
        name=f"replay/{kernel}",
        reference_s=reference_s,
        optimized_s=optimized_s,
        equivalent=equivalent,
        pairs=pairs,
        meta={
            "n_records": n_records,
            "warmup_fraction": warmup_fraction,
            "seed": seed,
            "scale": _REPLAY_SCALE,
        },
    )


#: Largest field difference, C, at which a CG steady solve still counts
#: as equivalent to the direct SuperLU reference.
_STEADY_TOL_C = 1e-9


def bench_thermal_steady(nx: int, pairs: int) -> BenchResult:
    """Cold SuperLU factorize+solve vs the cold CG steady solve.

    Both sides assemble from scratch.  The reference is the direct solve
    the steady path used before CG, kept inline here as the reference
    implementation; the fields must agree within :data:`_STEADY_TOL_C`.
    """
    stack = build_stack([DieSpec(core2duo_floorplan())])
    config = SolverConfig(nx=nx, ny=nx)

    def run_reference() -> np.ndarray:
        system = assemble_system(stack, config, reuse_operator=False)
        lu = spla.splu(system.matrix, permc_spec="MMD_AT_PLUS_A")
        return lu.solve(system.rhs)

    def run_cg() -> np.ndarray:
        clear_operator_cache()
        return solve_steady_state(stack, config).temperature.ravel()

    max_diff = float(np.max(np.abs(run_reference() - run_cg())))
    reference_s, optimized_s = time_pairs(run_reference, run_cg, pairs)
    return BenchResult(
        name="thermal-steady",
        reference_s=reference_s,
        optimized_s=optimized_s,
        equivalent=max_diff <= _STEADY_TOL_C,
        pairs=pairs,
        meta={"nx": nx, "max_abs_diff_c": max_diff},
    )


def bench_thermal_transient(
    nx: int, steps: int, pairs: int
) -> BenchResult:
    """Cold backward-Euler setup vs the cached (geometry, dt) LU."""
    stack = build_stack([DieSpec(core2duo_floorplan())])
    config = SolverConfig(nx=nx, ny=nx)
    dt_s = 0.05
    duration_s = steps * dt_s

    def run_cold():
        clear_operator_cache()
        return solve_transient(
            stack, config, duration_s=duration_s, dt_s=dt_s
        )

    def run_warm():
        return solve_transient(
            stack, config, duration_s=duration_s, dt_s=dt_s
        )

    # run_cold leaves its factorization cached, so run_warm reuses it
    # whichever side of a pair runs first.
    equivalent = run_cold().peak_c == run_warm().peak_c
    reference_s, optimized_s = time_pairs(run_cold, run_warm, pairs)
    return BenchResult(
        name="thermal-transient",
        reference_s=reference_s,
        optimized_s=optimized_s,
        equivalent=equivalent,
        pairs=pairs,
        meta={"nx": nx, "steps": steps, "dt_s": dt_s},
    )


def bench_coupled_loop(
    nx: int, n_epochs: int, pairs: int
) -> BenchResult:
    """Cold per-epoch thermal assembly vs the cached per-dt LU reuse.

    The closed loop calls the transient solver once per control epoch
    with the same geometry and dt, so the per-(geometry, dt) LU cache
    turns N epochs of assemble+factorize into one.  Both sides start
    from an empty operator cache, as a fresh process does, and run the
    identical control trajectory; peak and V/f traces must match
    bit-for-bit.
    """
    base = CoupledConfig(
        nx=nx,
        n_epochs=n_epochs,
        epoch_s=1.0,
        dt_s=0.5,
        calibration_s=10.0,
        calibration_dt_s=0.5,
    )
    cold_cfg = dc_replace(base, reuse_operator=False)

    def run_cold():
        clear_operator_cache()
        return run_coupled_loop(
            ThresholdDtm(), constant_load(1.0), cold_cfg
        )

    def run_warm():
        clear_operator_cache()
        return run_coupled_loop(ThresholdDtm(), constant_load(1.0), base)

    cold = run_cold()
    warm = run_warm()
    equivalent = (
        [e.peak_c for e in cold.epochs] == [e.peak_c for e in warm.epochs]
        and [e.vcc for e in cold.epochs] == [e.vcc for e in warm.epochs]
        and cold.tau_s == warm.tau_s
    )
    reference_s, optimized_s = time_pairs(run_cold, run_warm, pairs)
    return BenchResult(
        name="coupled-loop",
        reference_s=reference_s,
        optimized_s=optimized_s,
        equivalent=equivalent,
        pairs=pairs,
        meta={"nx": nx, "n_epochs": n_epochs},
    )


def bench_oracle_replay(
    kernel: str,
    n_records: int,
    warmup_fraction: float,
    seed: int,
    pairs: int,
) -> BenchResult:
    """The chunked replay path with oracles off vs ``sample`` mode."""
    spec = WorkloadSpec(name=kernel, n_records=n_records, seed=seed)
    array = TraceGenerator(spec, scale=_REPLAY_SCALE).arrays()
    config = baseline_config(_REPLAY_SCALE)

    def run_off() -> ReplayStats:
        with oracle_mode("off"):
            return replay_trace(
                array, config, warmup_fraction=warmup_fraction
            )

    def run_sample() -> ReplayStats:
        with oracle_mode("sample"):
            return replay_trace(
                array, config, warmup_fraction=warmup_fraction
            )

    off_stats = run_off()
    sample_stats = run_sample()
    equivalent = (
        _stats_signature(off_stats) == _stats_signature(sample_stats)
        and not sample_stats.degraded
    )
    reference_s, optimized_s = time_pairs(run_off, run_sample, pairs)
    return BenchResult(
        name=f"oracle-overhead/replay-{kernel}",
        reference_s=reference_s,
        optimized_s=optimized_s,
        equivalent=equivalent,
        pairs=pairs,
        meta={
            "n_records": n_records,
            "warmup_fraction": warmup_fraction,
            "seed": seed,
            "scale": _REPLAY_SCALE,
            "budget": ORACLE_OVERHEAD_BUDGET,
        },
    )


def bench_oracle_steady(nx: int, pairs: int) -> BenchResult:
    """The warm cached-operator solve with oracles off vs ``sample``."""
    stack = build_stack([DieSpec(core2duo_floorplan())])
    config = SolverConfig(nx=nx, ny=nx)

    def run_off():
        with oracle_mode("off"):
            return solve_steady_state(stack, config)

    def run_sample():
        with oracle_mode("sample"):
            return solve_steady_state(stack, config)

    with oracle_mode("off"):
        clear_operator_cache()
    off_solution = run_off()  # also primes the operator cache
    violations_before = len(violations())
    sample_solution = run_sample()
    equivalent = bool(
        np.array_equal(
            off_solution.temperature, sample_solution.temperature
        )
        and len(violations()) == violations_before
    )
    reference_s, optimized_s = time_pairs(run_off, run_sample, pairs)
    return BenchResult(
        name="oracle-overhead/thermal-steady",
        reference_s=reference_s,
        optimized_s=optimized_s,
        equivalent=equivalent,
        pairs=pairs,
        meta={"nx": nx, "budget": ORACLE_OVERHEAD_BUDGET},
    )


def oracle_overhead_failures(results: List[BenchResult]) -> List[str]:
    """Names of ``oracle-overhead/*`` pairs whose slowdown blows the budget."""
    failures: List[str] = []
    for result in results:
        if not result.name.startswith("oracle-overhead/"):
            continue
        budget = float(result.meta.get("budget", ORACLE_OVERHEAD_BUDGET))
        if result.optimized_s > (1.0 + budget) * result.reference_s:
            overhead = result.optimized_s / max(result.reference_s, 1e-12) - 1
            failures.append(
                f"{result.name}: sample-mode overhead "
                f"{100 * overhead:.1f}% > {100 * budget:.0f}% budget"
            )
    return failures


def run_suite(
    quick: bool = True,
    seed: int = 1234,
    pairs: int = DEFAULT_PAIRS,
    progress: Optional[Any] = None,
) -> List[BenchResult]:
    """Run the benchmark tier; returns one result per pair.

    Args:
        quick: Small inputs (~½ minute, the CI gate tier) vs the full
            tier's larger traces and finer grids.
        seed: Trace-generation seed (both sides of every pair share it).
        pairs: Interleaved reference/optimized pairs per benchmark
            (times :data:`ORACLE_PAIRS_FACTOR` for the oracle-overhead
            pairs).
        progress: Optional ``print``-like callable for per-benchmark
            status lines.
    """
    tier = "quick" if quick else "full"
    say = progress or (lambda message: None)
    results: List[BenchResult] = []

    # The fast-path pairs measure the fast path itself: oracles off.
    # The oracle tax has its own dedicated pairs below.
    with oracle_mode("off"):
        for kernel, n_records in _TRACE_GEN_PLAN[tier]:
            say(f"bench trace-gen/{kernel} ({n_records} records)...")
            results.append(
                bench_trace_generation(kernel, n_records, seed, pairs)
            )
        for kernel, n_records, warmup in _REPLAY_PLAN[tier]:
            say(f"bench replay/{kernel} ({n_records} records)...")
            results.append(
                bench_replay(kernel, n_records, warmup, seed, pairs)
            )
        nx = 40 if quick else 48
        say(f"bench thermal-steady (nx={nx})...")
        results.append(bench_thermal_steady(nx, pairs))
        nx_t = 32 if quick else 40
        steps = 10 if quick else 20
        say(f"bench thermal-transient (nx={nx_t}, {steps} steps)...")
        results.append(bench_thermal_transient(nx_t, steps, pairs))
        nx_c = 16 if quick else 20
        epochs_c = 6 if quick else 10
        say(f"bench coupled-loop (nx={nx_c}, {epochs_c} epochs)...")
        results.append(bench_coupled_loop(nx_c, epochs_c, pairs))

    kernel, n_records, warmup = _REPLAY_PLAN[tier][0]
    say(f"bench oracle-overhead/replay-{kernel} ({n_records} records)...")
    oracle_pairs = ORACLE_PAIRS_FACTOR * pairs
    results.append(
        bench_oracle_replay(kernel, n_records, warmup, seed, oracle_pairs)
    )
    say(f"bench oracle-overhead/thermal-steady (nx={nx})...")
    results.append(bench_oracle_steady(nx, oracle_pairs))
    return results

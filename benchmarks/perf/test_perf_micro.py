"""Hot-path micro-benchmarks: the ``repro bench`` pairs under pytest.

Not part of the tier-1 suite (``testpaths`` excludes ``benchmarks/``);
run explicitly with::

    PYTHONPATH=src pytest benchmarks/perf -q

Each test runs one reference-vs-optimized pair at reduced size, asserts
the equivalence check the CLI gate relies on, and (loosely) that the
optimized path actually wins — the committed ``BENCH_repro.json``
baseline is the strict gate; these are smoke-level floors.
"""

import pytest

from repro.bench.suite import (
    bench_replay,
    bench_thermal_steady,
    bench_thermal_transient,
    bench_trace_generation,
)

SEED = 1234


def test_trace_generation_pair():
    result = bench_trace_generation("svd", 60_000, SEED, pairs=2)
    assert result.equivalent
    assert result.speedup > 1.2


def test_replay_pair_high_hit():
    result = bench_replay("svd", 80_000, 0.5, SEED, pairs=2)
    assert result.equivalent
    assert result.speedup > 1.5


def test_replay_pair_miss_heavy():
    result = bench_replay("pcg", 80_000, 0.35, SEED, pairs=2)
    assert result.equivalent
    # Miss-heavy workloads are Amdahl-limited by the genuine memory
    # simulation; the fast path must still not lose.
    assert result.speedup > 1.0


def test_thermal_steady_pair():
    result = bench_thermal_steady(32, pairs=2)
    assert result.equivalent
    assert result.speedup > 3.0


def test_thermal_transient_pair():
    result = bench_thermal_transient(24, steps=6, pairs=2)
    assert result.equivalent
    assert result.speedup > 2.0


@pytest.mark.parametrize("kernel", ["gauss", "smvm"])
def test_replay_equivalence_other_kernels(kernel):
    result = bench_replay(kernel, 60_000, 0.35, SEED, pairs=1)
    assert result.equivalent

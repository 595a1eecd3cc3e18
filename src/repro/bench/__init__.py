"""Micro-benchmark harness for the simulator hot paths.

``repro bench`` times each optimized hot path against its reference
implementation (per-record replay vs the chunked array fast path, cold
thermal assembly vs the cached operator, ...), verifies the two produce
equivalent results, and writes a ``repro-bench/2`` JSON report.  CI runs
the quick tier against the committed baseline and fails on a >25%
*speedup-ratio* regression — ratios, not absolute times, so the gate is
stable across machines.
"""

from repro.bench.harness import (
    BENCH_SCHEMA,
    REGRESSION_THRESHOLD,
    BenchResult,
    compare_to_baseline,
    load_report,
    time_pairs,
    write_report,
)
from repro.bench.suite import (
    ORACLE_OVERHEAD_BUDGET,
    oracle_overhead_failures,
    run_suite,
)

__all__ = [
    "BENCH_SCHEMA",
    "ORACLE_OVERHEAD_BUDGET",
    "REGRESSION_THRESHOLD",
    "BenchResult",
    "compare_to_baseline",
    "load_report",
    "oracle_overhead_failures",
    "run_suite",
    "time_pairs",
    "write_report",
]

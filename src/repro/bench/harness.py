"""Timing, reporting, and regression gating for ``repro bench``.

This is the only module in the package allowed to read the wall clock
(see the RPL1xx determinism pass): benchmark *suites* hand callables to
:func:`time_pairs` and never time anything themselves, which keeps every
simulation path deterministic by construction.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

#: Report schema identifier; bump on incompatible layout changes.
#: Version 2: times are medians over interleaved pairs (``pairs``), not
#: best-of sequential repeats, so version-1 baselines do not compare.
BENCH_SCHEMA = "repro-bench/2"

#: Interleaved reference/optimized pairs per benchmark: enough that the
#: median ignores a noise burst landing on one or two of them.
DEFAULT_PAIRS = 5

#: A benchmark regresses when its speedup ratio drops more than this
#: fraction below the baseline's.  Gating on the ratio of two timings
#: from the *same* run makes the gate machine-independent: a slower CI
#: box slows both sides of each pair.
REGRESSION_THRESHOLD = 0.25

PathLike = Union[str, Path]


def time_pairs(
    reference: Callable[[], Any],
    optimized: Callable[[], Any],
    pairs: int = DEFAULT_PAIRS,
) -> Tuple[float, float]:
    """Median wall times, in seconds, of ``reference()`` and
    ``optimized()`` over *pairs* interleaved pairs.

    The two sides of a pair run back to back, so a slow spell on a
    shared host lands on both; which side runs first alternates, so
    neither always inherits the other's cache state; and the median
    drops the pairs a noise burst hits.
    """
    if pairs < 1:
        raise ValueError("pairs must be >= 1")
    sides = (reference, optimized)
    times: Tuple[List[float], List[float]] = ([], [])
    for pair in range(pairs):
        for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
            start = time.perf_counter()
            sides[side]()
            times[side].append(time.perf_counter() - start)
    return statistics.median(times[0]), statistics.median(times[1])


@dataclass
class BenchResult:
    """One reference-vs-optimized benchmark pair.

    Attributes:
        name: Stable benchmark identifier (baseline matching key).
        reference_s: Median time of the reference implementation.
        optimized_s: Median time of the optimized path.
        equivalent: True if the two paths produced equivalent results
            (each suite defines and checks its own equivalence).
        pairs: Interleaved pairs the medians were taken over.
        meta: Free-form detail (workload, grid size, record counts...).
    """

    name: str
    reference_s: float
    optimized_s: float
    equivalent: bool = True
    pairs: int = DEFAULT_PAIRS
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        """Reference time over optimized time (>1 means faster)."""
        if self.optimized_s <= 0:
            return float("inf")
        return self.reference_s / self.optimized_s

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "reference_s": self.reference_s,
            "optimized_s": self.optimized_s,
            "speedup": self.speedup,
            "equivalent": self.equivalent,
            "pairs": self.pairs,
            "meta": dict(self.meta),
        }


def write_report(
    results: List[BenchResult],
    path: PathLike,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Write a :data:`BENCH_SCHEMA` JSON report; returns the report dict."""
    report: Dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "results": [result.to_dict() for result in results],
    }
    if extra:
        report.update(extra)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def load_report(path: PathLike) -> Dict[str, Any]:
    """Load and schema-check a report written by :func:`write_report`."""
    report = json.loads(Path(path).read_text())
    if report.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: expected schema {BENCH_SCHEMA!r}, "
            f"got {report.get('schema')!r}"
        )
    return report


def compare_to_baseline(
    report: Dict[str, Any],
    baseline: Dict[str, Any],
    threshold: float = REGRESSION_THRESHOLD,
) -> List[str]:
    """Regression messages for speedups that fell below the baseline.

    A benchmark regresses when ``speedup < baseline_speedup * (1 -
    threshold)``.  Benchmarks present on only one side are ignored (new
    benchmarks should not fail the gate retroactively); a pair whose
    equivalence check failed always regresses — a fast wrong answer is
    not a win.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    base_by_name = {
        entry["name"]: entry for entry in baseline.get("results", [])
    }
    problems: List[str] = []
    for entry in report.get("results", []):
        name = entry["name"]
        if not entry.get("equivalent", True):
            problems.append(
                f"{name}: optimized path is NOT equivalent to the reference"
            )
            continue
        base = base_by_name.get(name)
        if base is None:
            continue
        floor = base["speedup"] * (1.0 - threshold)
        if entry["speedup"] < floor:
            problems.append(
                f"{name}: speedup {entry['speedup']:.2f}x fell below "
                f"{floor:.2f}x (baseline {base['speedup']:.2f}x "
                f"- {100 * threshold:.0f}%)"
            )
    return problems

"""The pair timer shared by the hot-path micro-benchmarks.

This is the only code in the repository, outside the runner's
supervision layer, that reads the wall clock to time simulation work:
the cases in ``test_perf_micro.py`` hand it callables and never time
anything themselves.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, List, Optional, Tuple

import pytest


def pair_times(
    reference: Callable[[], Any],
    optimized: Callable[[], Any],
    pairs: int,
    clock: Optional[Callable[[], float]] = None,
) -> Tuple[List[float], List[float]]:
    """Times, in seconds, of ``reference()`` and ``optimized()`` over
    *pairs* interleaved pairs, in pair order.

    The two sides of a pair run back to back, so a slow spell on a
    shared host lands on both; which side runs first alternates, so
    neither always inherits the other's cache state.  *clock* defaults
    to ``time.perf_counter`` (wall time); ``time.process_time`` counts
    only this process's CPU time.
    """
    if pairs < 1:
        raise ValueError("pairs must be >= 1")
    clock = clock or time.perf_counter
    sides = (reference, optimized)
    times: Tuple[List[float], List[float]] = ([], [])
    for pair in range(pairs):
        for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
            start = clock()
            sides[side]()
            times[side].append(clock() - start)
    return times


def median_pair_times(
    reference: Callable[[], Any],
    optimized: Callable[[], Any],
    pairs: int,
) -> Tuple[float, float]:
    """Median wall times, in seconds, of ``reference()`` and
    ``optimized()`` over *pairs* interleaved pairs (:func:`pair_times`);
    the median drops the pairs a noise burst hits."""
    reference_s, optimized_s = pair_times(reference, optimized, pairs)
    return statistics.median(reference_s), statistics.median(optimized_s)


@pytest.fixture
def time_pairs():
    """:func:`median_pair_times`, the timer the ratio gates use."""
    return median_pair_times


@pytest.fixture
def time_each_pair():
    """:func:`pair_times`, for gates on the pair-by-pair ratio."""
    return pair_times

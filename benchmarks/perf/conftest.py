"""The pair timer shared by the hot-path micro-benchmarks.

This is the only code in the repository, outside the runner's
supervision layer, that reads the wall clock to time simulation work:
the cases in ``test_perf_micro.py`` hand it callables and never time
anything themselves.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, List, Tuple

import pytest


def median_pair_times(
    reference: Callable[[], Any],
    optimized: Callable[[], Any],
    pairs: int,
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


@pytest.fixture
def time_pairs():
    """:func:`median_pair_times`, the one timer the cases use."""
    return median_pair_times

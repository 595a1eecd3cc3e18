"""Deterministic simulation testing (DST) for the distributed stack.

FoundationDB-style testing: a single-threaded discrete-event harness
drives the *real* scheduler, lease table, journal, result cache, and
simulation service (``ReproService``, through the same synchronous
methods its asyncio server calls) through thousands of randomized fault
histories on a virtual clock, asserting protocol invariants after every
event.  A violating history is shrunk to a minimal failing prefix and
emitted as a replayable ``(seed, schedule)`` artifact.

Entry points: ``repro dst --seeds N`` explores a seed batch;
``repro dst --replay FILE`` re-executes a saved artifact bit-identically.
"""

from repro.dst.harness import HistoryResult, explore, replay, run_history
from repro.dst.schedule import (
    FaultEvent,
    FaultSchedule,
    generate_schedule,
    load_artifact,
    save_artifact,
)
from repro.dst.shrink import shrink_schedule

__all__ = [
    "FaultEvent",
    "FaultSchedule",
    "HistoryResult",
    "explore",
    "generate_schedule",
    "load_artifact",
    "replay",
    "run_history",
    "save_artifact",
    "shrink_schedule",
]

"""Seeded trace corruption for replay tests.

Builds the records a truncated or bit-flipped trace file would yield —
negative addresses, forward/self dependencies, bad cpu ids, uid
regressions, missing producers — bypassing :class:`TraceRecord`'s
construction-time validation, so tests can drive the replayer's
:class:`~repro.traces.record.TraceGuard` through its strict, lenient and
dangling-dependency paths.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Iterator

from repro.traces.record import AccessType, NO_DEP, TraceRecord

#: Corruption modes :meth:`TraceFaults.corrupt_record` draws from.
CORRUPTION_MODES = (
    "negative-address",
    "forward-dep",
    "self-dep",
    "bad-cpu",
    "uid-regression",
)


def make_raw_record(
    uid: int,
    cpu: int,
    kind: AccessType,
    address: int,
    ip: int,
    dep_uid: int = NO_DEP,
) -> TraceRecord:
    """Build a TraceRecord bypassing ``__post_init__`` validation.

    This is how invalid records "from disk" are modeled now that
    construction validates eagerly.
    """
    record = object.__new__(TraceRecord)
    object.__setattr__(record, "uid", uid)
    object.__setattr__(record, "cpu", cpu)
    object.__setattr__(record, "kind", kind)
    object.__setattr__(record, "address", address)
    object.__setattr__(record, "ip", ip)
    object.__setattr__(record, "dep_uid", dep_uid)
    return record


class TraceFaults:
    """Seeded source of trace faults; identical seeds, identical faults.

    Args:
        seed: RNG seed.
        record_corruption_rate: Probability of corrupting each record in
            :meth:`corrupt_trace`.
        dependency_drop_rate: Probability of dropping each *load* record
            in :meth:`drop_producers`.
    """

    def __init__(
        self,
        seed: int = 0,
        record_corruption_rate: float = 0.0,
        dependency_drop_rate: float = 0.0,
    ) -> None:
        for name, rate in (
            ("record_corruption_rate", record_corruption_rate),
            ("dependency_drop_rate", dependency_drop_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        self.rng = random.Random(seed)
        self.record_corruption_rate = record_corruption_rate
        self.dependency_drop_rate = dependency_drop_rate
        self.injected: Dict[str, int] = {}

    def _note(self, what: str) -> None:
        self.injected[what] = self.injected.get(what, 0) + 1

    def corrupt_record(self, record: TraceRecord) -> TraceRecord:
        """Return a corrupted copy of *record* (random corruption mode)."""
        mode = self.rng.choice(CORRUPTION_MODES)
        self._note(f"corrupt:{mode}")
        uid, cpu, addr, dep = record.uid, record.cpu, record.address, record.dep_uid
        if mode == "negative-address":
            addr = -abs(record.address) - 1
        elif mode == "forward-dep":
            dep = record.uid + self.rng.randint(1, 1000)
        elif mode == "self-dep":
            dep = record.uid
        elif mode == "bad-cpu":
            cpu = -1 if self.rng.random() < 0.5 else cpu + 4096
        elif mode == "uid-regression":
            uid = -record.uid - 1
        return make_raw_record(uid, cpu, record.kind, addr, record.ip, dep)

    def corrupt_trace(
        self, records: Iterable[TraceRecord]
    ) -> Iterator[TraceRecord]:
        """Yield *records* with a fraction corrupted in place."""
        for record in records:
            if self.rng.random() < self.record_corruption_rate:
                yield self.corrupt_record(record)
            else:
                yield record

    def drop_producers(
        self, records: Iterable[TraceRecord]
    ) -> Iterator[TraceRecord]:
        """Yield *records* minus a fraction of loads (dangling deps remain)."""
        for record in records:
            if record.is_load and self.rng.random() < self.dependency_drop_rate:
                self._note("dropped-producer")
                continue
            yield record

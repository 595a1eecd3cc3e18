"""The per-record replay path, kept as the reference for the replay loop.

:class:`ReferenceReplayer` adds the original record-at-a-time ``feed``
(with ``_maybe_end_warmup`` and ``feed_many``) to
:class:`repro.memsim.replay.TraceReplayer`, verbatim, and
:class:`ReferenceGuard` the original per-record ``admit`` to
:class:`repro.traces.record.TraceGuard`.  :func:`reference_replay` is
the old record path of :func:`~repro.memsim.replay.replay_trace`: array
rows become validated :class:`TraceRecord` objects, then every record
is admitted and fed one at a time.  The replay loop (``feed_array``) and
the guard's column screen must stay bit-identical to these:
``tests/test_replay_fastpath.py`` compares whole replay states, and the
``replay/*`` micro-benchmarks time the loop against this path.
"""

from __future__ import annotations

from bisect import insort
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from repro.memsim.config import HierarchyConfig
from repro.memsim.hierarchy import L1, MemoryHierarchy
from repro.memsim.replay import (
    _PRUNE_EVERY,
    ReplayStats,
    TraceReplayer,
    _prune_completions,
)
from repro.resilience.errors import TraceCorruptionError
from repro.traces.generator import array_to_records
from repro.traces.record import AccessType, NO_DEP, TraceGuard, TraceRecord

_VALID_KINDS = frozenset(int(k) for k in AccessType)


class ReferenceGuard(TraceGuard):
    """The guard that admits one record at a time."""

    def admit(self, record: TraceRecord) -> bool:
        """Validate one record; True to replay it, False to quarantine."""
        self.checked += 1
        reason = self._violation(record)
        if reason is None:
            self.last_uid = record.uid
            return True
        if self.strict:
            raise TraceCorruptionError(
                f"record uid={record.uid}: {reason} "
                f"(cpu={record.cpu}, dep_uid={record.dep_uid})",
                uid=record.uid,
                reason=reason,
            )
        self.quarantined += 1
        self.quarantined_by_reason[reason] = (
            self.quarantined_by_reason.get(reason, 0) + 1
        )
        return False

    def _violation(self, record: TraceRecord) -> Optional[str]:
        if record.uid < 0 or record.uid <= self.last_uid:
            return "non-monotonic-uid"
        if not 0 <= record.cpu < self.n_cpus:
            return "bad-cpu"
        if int(record.kind) not in _VALID_KINDS:
            return "bad-kind"
        if record.address < 0:
            return "bad-address"
        if record.dep_uid != NO_DEP:
            if record.dep_uid == record.uid:
                return "self-dep"
            if record.dep_uid > record.uid:
                return "forward-dep"
            if record.dep_uid < 0:
                return "bad-dep"
        return None


class ReferenceReplayer(TraceReplayer):
    """The replayer that feeds one record at a time."""

    def feed(self, record: TraceRecord) -> None:
        """Replay one record (skips it if the guard quarantines it)."""
        self.index += 1
        if self.guard is not None and not self.guard.admit(record):
            self._maybe_end_warmup()
            return
        hierarchy = self.hierarchy
        mshrs = hierarchy.config.mshrs_per_cpu
        window = hierarchy.config.reorder_window
        cpu = record.cpu
        # Issue slots advance at one reference per cpu per cycle; a
        # reference may *start* later than its slot if its producer has
        # not completed, but it does not hold later independent
        # references back (the paper's replay honors dependencies, not
        # program order).
        slot = self._next_free[cpu]
        self._next_free[cpu] = slot + 1.0
        t = slot
        # Finite reorder window: a reference needs a free window slot, so
        # it cannot start until the oldest in-flight reference retires.
        rob = self._robs[cpu]
        if len(rob) >= window:
            oldest = rob.popleft()
            if oldest > t:
                t = oldest
        dep = record.dep_uid
        # Dependent *loads* wait for their producer (the paper's Ld1/Ld2
        # rule).  Dependent stores drain through the store buffer instead
        # of stalling.
        if dep >= 0 and record.kind == AccessType.LOAD:
            dep_done = self._completion.get(dep)
            if dep_done is not None and dep_done > t:
                t = dep_done

        misses = self._outstanding[cpu]
        line_present = hierarchy.l1s[cpu].contains(
            record.address >> hierarchy._line_shift
        )
        if not line_present and misses:
            if len(misses) >= mshrs and misses[0] > t:
                t = misses[0]
            # Retire completed misses from the MSHR window.
            done = 0
            for value in misses:
                if value <= t:
                    done += 1
                else:
                    break
            if done:
                del misses[:done]

        if record.kind == AccessType.IFETCH:
            result = hierarchy.ifetch(cpu, record.address, t)
        else:
            result = hierarchy.access(
                cpu, record.kind == AccessType.STORE, record.address, t
            )
        if result.level != L1:
            insort(misses, result.completion)
        if record.kind == AccessType.LOAD:
            self._completion[record.uid] = result.completion
            if len(self._completion) > _PRUNE_EVERY:
                _prune_completions(self._completion, record.uid)

        # In-order retirement: a reference retires no earlier than its
        # predecessors.
        retire = result.completion
        if rob and rob[-1] > retire:
            retire = rob[-1]
        rob.append(retire)
        if retire > self._end_time:
            self._end_time = retire

        if not self._maybe_end_warmup():
            self._measured += 1
            latency = result.completion - t
            self._latency_sum += latency
            level = result.level
            self._level_latency_sum[level] = (
                self._level_latency_sum.get(level, 0.0) + latency
            )
            self._level_latency_n[level] = (
                self._level_latency_n.get(level, 0) + 1
            )

    def _maybe_end_warmup(self) -> bool:
        """Handle the warmup boundary; True while still inside warmup."""
        if not self.warmup_until:
            return False
        if self.index == self.warmup_until:
            self._end_warmup()
            return True
        return self.index < self.warmup_until

    def feed_many(self, records: Iterable[TraceRecord]) -> int:
        """Feed a stream of records; returns how many were consumed."""
        consumed = 0
        for record in records:
            self.feed(record)
            consumed += 1
        return consumed


def reference_replay(
    records: Union[Sequence[TraceRecord], np.ndarray],
    config: Optional[HierarchyConfig] = None,
    hierarchy: Optional[MemoryHierarchy] = None,
    warmup_fraction: float = 0.3,
    mode: Optional[str] = None,
) -> ReplayStats:
    """:func:`~repro.memsim.replay.replay_trace` one record at a time
    (*hierarchy* may be a ``tests.hierarchy_reference.ReferenceHierarchy``)."""
    if hierarchy is None:
        hierarchy = MemoryHierarchy(config or HierarchyConfig())
    guard = (
        ReferenceGuard(n_cpus=hierarchy.config.n_cpus, strict=mode == "strict")
        if mode is not None
        else None
    )
    replayer = ReferenceReplayer(
        hierarchy=hierarchy,
        warmup_until=int(len(records) * warmup_fraction),
        guard=guard,
    )
    if isinstance(records, np.ndarray):
        records = array_to_records(records)
    replayer.feed_many(records)
    return replayer.stats()

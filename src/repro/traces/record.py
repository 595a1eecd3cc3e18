"""The trace record format of the paper's trace generator (Section 2.1).

Each record carries a unique identification number, the cpu id, the access
type, the memory access address, the instruction pointer address, and the
unique id of an earlier record this record depends upon (or ``NO_DEP``).
The memory hierarchy simulator honors these dependencies: a dependent
access may not issue until the record it names has completed.

This module owns what makes a trace valid: per-record checks at
construction (:meth:`TraceRecord.__post_init__`), per-stream checks on
the columns of each replayed batch (:class:`TraceGuard`), and
whole-trace checks (:func:`validate_trace`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.resilience.errors import TraceCorruptionError

#: Sentinel dependency id for records with no dependency.
NO_DEP = -1


class AccessType(enum.IntEnum):
    """Kind of memory access a trace record describes."""

    LOAD = 0
    STORE = 1
    IFETCH = 2


@dataclass(frozen=True)
class TraceRecord:
    """One memory reference in a trace.

    Attributes:
        uid: Unique identification number (monotonically increasing over
            the whole trace, across cpus).
        cpu: Id of the cpu that executed the access.
        kind: Load or store.
        address: Byte address of the access.
        ip: Instruction pointer of the memory instruction.
        dep_uid: Uid of an earlier record this record depends upon, or
            ``NO_DEP``.
    """

    uid: int
    cpu: int
    kind: AccessType
    address: int
    ip: int
    dep_uid: int = NO_DEP

    def __post_init__(self) -> None:
        # Eager validation: a malformed record quietly entering the
        # replayer can deadlock or corrupt a multi-million-record run,
        # so reject it at construction.  TraceCorruptionError subclasses
        # ValueError, preserving older ``except ValueError`` callers.
        if self.uid < 0:
            raise TraceCorruptionError(
                f"uid must be non-negative, got {self.uid}",
                uid=self.uid,
                reason="bad-uid",
            )
        if self.cpu < 0:
            raise TraceCorruptionError(
                f"record {self.uid}: cpu id must be non-negative, got {self.cpu}",
                uid=self.uid,
                reason="bad-cpu",
            )
        if not isinstance(self.kind, AccessType):
            raise TraceCorruptionError(
                f"record {self.uid}: unknown access kind {self.kind!r}",
                uid=self.uid,
                reason="bad-kind",
            )
        if self.address < 0:
            raise TraceCorruptionError(
                f"address must be non-negative, got {self.address}",
                uid=self.uid,
                reason="bad-address",
            )
        if self.dep_uid != NO_DEP and not 0 <= self.dep_uid < self.uid:
            if self.dep_uid == self.uid:
                reason = "self-dep"
            elif self.dep_uid > self.uid:
                reason = "forward-dep"
            else:
                reason = "bad-dep"
            raise TraceCorruptionError(
                f"record {self.uid} depends on {self.dep_uid}, which is not "
                "an earlier record",
                uid=self.uid,
                reason=reason,
            )

    @property
    def is_load(self) -> bool:
        return self.kind == AccessType.LOAD

    @property
    def has_dependency(self) -> bool:
        return self.dep_uid != NO_DEP


def write_trace(records: Iterable[TraceRecord], path: Union[str, Path]) -> int:
    """Write records to a text trace file; returns the record count.

    Format: one record per line, ``uid cpu kind address ip dep_uid`` with
    hexadecimal addresses, matching the paper's per-instruction record
    layout.  The format is deliberately simple and diff-friendly.
    """
    count = 0
    with open(path, "w") as handle:
        for record in records:
            handle.write(
                f"{record.uid} {record.cpu} {int(record.kind)} "
                f"{record.address:x} {record.ip:x} {record.dep_uid}\n"
            )
            count += 1
    return count


def read_trace(
    path: Union[str, Path], strict: bool = True
) -> Iterator[TraceRecord]:
    """Stream records back from a file written by :func:`write_trace`.

    Args:
        path: Trace file to read.
        strict: If True (default), a malformed line raises
            :class:`~repro.resilience.errors.TraceCorruptionError`
            naming the file and line.  If False, malformed lines are
            skipped (the replayer's lenient guard counts them a second
            time if they parse but violate stream invariants).
    """
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            parts = line.split()
            try:
                if len(parts) != 6:
                    raise TraceCorruptionError(
                        f"malformed trace line {line!r}", reason="bad-line"
                    )
                uid, cpu, kind, address, ip, dep = parts
                fields = (int(uid), int(cpu), int(kind), int(address, 16),
                          int(ip, 16), int(dep))
                # Replay packs records into int64 columns.
                if not all(-(2**63) <= value < 2**63 for value in fields):
                    raise TraceCorruptionError(
                        f"value outside int64 in trace line {line!r}",
                        reason="bad-line",
                    )
                record = TraceRecord(
                    fields[0], fields[1], AccessType(fields[2]), *fields[3:]
                )
            except (TraceCorruptionError, ValueError) as exc:
                if strict:
                    reason = getattr(exc, "reason", "bad-line")
                    raise TraceCorruptionError(
                        f"{path}:{line_number}: {exc}", reason=reason
                    ) from exc
                continue
            yield record


def validate_trace(
    records: List[TraceRecord], n_cpus: Optional[int] = None
) -> None:
    """Check global trace invariants; raises TraceCorruptionError (a
    ValueError subclass) on violation.

    Invariants: uids strictly increase, every dependency names an
    earlier record that exists in the trace, and — when *n_cpus* is
    given — every record names a cpu within the simulated machine.
    """
    seen = set()
    last_uid = -1
    for record in records:
        if record.uid <= last_uid:
            raise TraceCorruptionError(
                f"uid {record.uid} does not increase after {last_uid}",
                uid=record.uid,
                reason="non-monotonic-uid",
            )
        if record.has_dependency and record.dep_uid not in seen:
            raise TraceCorruptionError(
                f"record {record.uid} depends on missing uid {record.dep_uid}",
                uid=record.uid,
                reason="missing-dep",
            )
        if n_cpus is not None and not 0 <= record.cpu < n_cpus:
            raise TraceCorruptionError(
                f"record {record.uid} names cpu {record.cpu}, machine has "
                f"{n_cpus}",
                uid=record.uid,
                reason="bad-cpu",
            )
        seen.add(record.uid)
        last_uid = record.uid


#: The violations :class:`TraceGuard` checks, in the order it checks
#: them: the uid order first, then the row-local ones.
_REASONS = (
    "non-monotonic-uid",
    "bad-cpu",
    "bad-kind",
    "bad-address",
    "self-dep",
    "forward-dep",
    "bad-dep",
)


@dataclass
class TraceGuard:
    """Stateful validator for one replayed trace stream.

    Checks per record, in this order: uid strictly increases over the
    stream, the cpu id is within the simulated machine, the access kind
    is known, the address is non-negative, and the dependency (if any)
    names a strictly earlier record.

    Attributes:
        n_cpus: Number of cpus in the target hierarchy; records naming
            other cpus are invalid.
        strict: If True, the first violation raises
            :class:`TraceCorruptionError`.  If False (lenient), bad
            records are quarantined: :meth:`screen` leaves them out of
            its mask and tallies them in :attr:`quarantined_by_reason`.
        checked: Records inspected so far.
        quarantined: Records rejected so far (lenient mode only).
        last_uid: Uid of the last admitted record.
    """

    n_cpus: int
    strict: bool = True
    checked: int = 0
    quarantined: int = 0
    last_uid: int = -1
    quarantined_by_reason: Dict[str, int] = field(default_factory=dict)

    def screen(
        self, array: np.ndarray
    ) -> Tuple[np.ndarray, Optional[TraceCorruptionError]]:
        """Check a :data:`~repro.traces.generator.TRACE_DTYPE` batch in one
        vectorised pass, continuing the stream of earlier batches.

        Returns the admit mask and, in strict mode, the error for the
        first rejected row (the mask then covers only the rows before
        it).  A row is admitted when its row-local checks pass and its
        uid exceeds the running maximum of earlier row-locally valid
        uids, which is :attr:`last_uid` as it stands before that row: a
        valid row that is not admitted never raises the maximum.
        """
        uid, cpu, dep = array["uid"], array["cpu"], array["dep_uid"]
        has_dep = dep != NO_DEP
        row_bad = (
            (cpu < 0) | (cpu >= self.n_cpus),
            ~np.isin(array["kind"], list(AccessType)),
            array["address"] < 0,
            has_dep & (dep == uid),
            has_dep & (dep > uid),
            has_dep & (dep < 0),
        )
        row_ok = uid >= 0
        for bad in row_bad:
            row_ok &= ~bad
        prior = np.maximum.accumulate(
            np.concatenate(([self.last_uid], np.where(row_ok, uid, -1)))
        )[:-1]
        out_of_order = (uid < 0) | (uid <= prior)
        admitted = row_ok & ~out_of_order
        # Each row's first violation, as an index into _REASONS.
        reason = np.select(
            (out_of_order,) + row_bad, range(len(_REASONS)), -1
        )
        rejected = np.flatnonzero(~admitted)
        if self.strict and len(rejected):
            row = int(rejected[0])
            self.checked += row + 1
            if row:
                self.last_uid = int(uid[row - 1])
            name = _REASONS[reason[row]]
            error = TraceCorruptionError(
                f"record uid={int(uid[row])}: {name} "
                f"(cpu={int(cpu[row])}, dep_uid={int(dep[row])})",
                uid=int(uid[row]),
                reason=name,
            )
            return admitted[:row], error
        self.checked += len(array)
        if admitted.any():
            self.last_uid = int(uid[admitted].max())
        self.quarantined += len(rejected)
        for code in reason[rejected].tolist():
            name = _REASONS[code]
            self.quarantined_by_reason[name] = (
                self.quarantined_by_reason.get(name, 0) + 1
            )
        return admitted, None

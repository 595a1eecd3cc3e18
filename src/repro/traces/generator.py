"""Two-thread SMP trace generation: kernels -> dependency-annotated records.

Mirrors the paper's trace-generation flow (Section 2.1): the workload runs
on a two-processor SMP (here: two kernel instances partitioning the shared
data), and the trace generator emits one record per memory instruction,
annotated with the uid of the earlier record it depends on.  Records from
the cpus are interleaved the way a free-running SMP would interleave them
(round-robin turns of 1-4 records, the burst drawn from the spec's seed),
and uids increase monotonically over the merged stream.

The dependency is the one the paper's generator tracks alongside the
simulator: a record whose *address computation* reads a register depends
on the last strictly earlier load, on its own cpu, that wrote that
register (the pointer-chase of Section 2.1: Ld2's address comes from
Ld1).  Stores write no register, so nothing depends on a store.

Everything is built in bounded blocks of numpy columns: the kernels
return blocks of accesses (:mod:`repro.traces.kernels.base`), and
:meth:`TraceGenerator.arrays` fills a :data:`TRACE_DTYPE` array
:data:`_BLOCK_ROWS` rows at a time with array ops: the cpu interleave,
the instruction fetches, the uid, ``ip`` and dependency columns.  The
array is the batch form the replay loop consumes
(:meth:`repro.memsim.replay.TraceReplayer.feed_array`);
:meth:`TraceGenerator.records` unpacks it into :class:`TraceRecord`
objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.traces.kernels.base import Block, Draws, KernelParams, LOAD, NO_REG
from repro.traces.kernels.registry import KernelEntry, default_params, get_kernel
from repro.traces.record import AccessType, NO_DEP, TraceRecord

#: Synthetic code region for instruction pointers, one page per kernel site.
_IP_BASE = 0x0040_0000

#: Structured-array layout of a batched trace: one row per record, same
#: fields as :class:`TraceRecord`.  All-int64 keeps row -> record exact.
TRACE_DTYPE = np.dtype(
    [
        ("uid", np.int64),
        ("cpu", np.int64),
        ("kind", np.int64),
        ("address", np.int64),
        ("ip", np.int64),
        ("dep_uid", np.int64),
    ]
)

#: Rows :meth:`TraceGenerator.arrays` fills per block.
_BLOCK_ROWS = 4096


def records_to_array(records: Iterable[TraceRecord]) -> np.ndarray:
    """Pack :class:`TraceRecord` objects into a :data:`TRACE_DTYPE` array."""
    rows = [
        (r.uid, r.cpu, int(r.kind), r.address, r.ip, r.dep_uid)
        for r in records
    ]
    if not rows:
        return np.empty(0, dtype=TRACE_DTYPE)
    return np.array(rows, dtype=TRACE_DTYPE)


def array_to_records(array: np.ndarray) -> Iterator[TraceRecord]:
    """Unpack a :data:`TRACE_DTYPE` array into validated records."""
    for uid, cpu, kind, address, ip, dep_uid in array.tolist():
        yield TraceRecord(
            uid=uid,
            cpu=cpu,
            kind=AccessType(kind),
            address=address,
            ip=ip,
            dep_uid=dep_uid,
        )


def first_rejected_row(array: np.ndarray) -> Tuple[int, Optional[ValueError]]:
    """Where :func:`array_to_records` would stop on *array*: the index of
    the first row :class:`TraceRecord` rejects (``len(array)`` when it
    accepts every row) and the error constructing that row raises."""
    uid, dep = array["uid"], array["dep_uid"]
    rejected = np.flatnonzero(
        (uid < 0)
        | (array["cpu"] < 0)
        | ~np.isin(array["kind"], list(AccessType))
        | (array["address"] < 0)
        | ((dep != NO_DEP) & ((dep < 0) | (dep >= uid)))
    )
    for row in rejected[:1].tolist():
        try:
            next(array_to_records(array[row : row + 1]))
        except ValueError as exc:  # TraceCorruptionError, or AccessType's
            return row, exc
    return len(array), None


@dataclass(frozen=True)
class WorkloadSpec:
    """A fully-specified trace-generation request.

    Attributes:
        name: RMS kernel name (see Table 1 / the kernel registry).
        n_records: Total records in the merged trace.
        n_threads: Number of SMP cpus (the paper uses 2).
        params: Kernel sizing; defaults to the registry footprint.
        seed: RNG seed — traces are deterministic given a spec.
        ifetch_every: If > 0, interleave one instruction-fetch record
            (at the current kernel site's instruction pointer) every N
            data references per cpu, exercising the L1I path of
            Figure 4.  RMS kernels are small loops, so these fetches are
            L1I-resident almost always.
    """

    name: str
    n_records: int = 100_000
    n_threads: int = 2
    params: Optional[KernelParams] = None
    seed: int = 1234
    ifetch_every: int = 0

    def __post_init__(self) -> None:
        if self.n_records <= 0:
            raise ValueError("n_records must be positive")
        if self.n_threads < 1:
            raise ValueError("n_threads must be >= 1")

    def resolved_params(self, scale: int = 1) -> KernelParams:
        """The kernel params to use (default footprint unless overridden)."""
        if self.params is not None:
            return self.params
        return default_params(self.name, scale=scale)


class _Interleave:
    """Which cpu issues each data record.

    The cpus take turns round-robin; each turn issues a burst of 1-4
    records (``randint(1, 4)`` on the master stream), because SMP
    interleaving is not perfectly alternating.
    """

    def __init__(self, seed: int, n_threads: int) -> None:
        self._n_threads = n_threads
        self._draws = Draws(seed)
        self._turns = 0
        self._pending = np.empty(0, dtype=np.int64)

    def take(self, count: int) -> np.ndarray:
        """The cpus of the next *count* data records."""
        while len(self._pending) < count:
            turns = max(64, (count - len(self._pending)) // 2)
            burst = 1 + self._draws.below(4, turns)
            cpu = (self._turns + np.arange(turns)) % self._n_threads
            self._turns += turns
            self._pending = np.concatenate(
                (self._pending, np.repeat(cpu, burst))
            )
        taken, self._pending = self._pending[:count], self._pending[count:]
        return taken


class _Thread:
    """One cpu: its kernel's blocks, read a record count at a time, and
    the uid of the last load that wrote each register."""

    def __init__(self, entry: KernelEntry, cpu: int, spec: WorkloadSpec,
                 params: KernelParams) -> None:
        self.cpu = cpu
        self._name = entry.name
        self._blocks = iter(entry.fn(
            cpu, spec.n_threads, params, Draws(spec.seed + 1000 * (cpu + 1))
        ))
        self._block: Block = tuple(np.empty(0, np.int64) for _ in range(5))
        self._offset = 0
        self._taken = 0
        self._producer: Dict[int, int] = {}

    def _next(self, count: int) -> Block:
        """The next *count* rows of the kernel's stream."""
        parts: List[Block] = []
        while count:
            if self._offset == len(self._block[0]):
                try:
                    self._block = next(self._blocks)
                except StopIteration:
                    # Kernels loop forever unless the cpu owns no work;
                    # one that ends would shorten the trace under its
                    # warmup split.
                    raise RuntimeError(
                        f"kernel {self._name!r} cpu {self.cpu} ended after "
                        f"{self._taken} records"
                    ) from None
                self._offset = 0
            stop = min(len(self._block[0]), self._offset + count)
            parts.append(tuple(c[self._offset:stop] for c in self._block))
            count -= stop - self._offset
            self._taken += stop - self._offset
            self._offset = stop
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return tuple(c[:0] for c in self._block)
        return tuple(np.concatenate(c) for c in zip(*parts))

    def take(self, uid: np.ndarray) -> Tuple[np.ndarray, ...]:
        """``(kind, address, site, dep_uid)`` of this cpu's next records,
        which get the uids *uid*."""
        kind, address, site, read_reg, write_reg = self._next(len(uid))
        dep = np.full(len(uid), NO_DEP, dtype=np.int64)
        written = np.where(kind == LOAD, write_reg, NO_REG)
        top = max(read_reg.max(initial=NO_REG), written.max(initial=NO_REG))
        for register in range(top + 1):
            producers = np.flatnonzero(written == register)
            readers = np.flatnonzero(read_reg == register)
            # Index 0 is the producer before these rows; producers
            # strictly earlier than a reader count, so a load that reads
            # and writes one register depends on the one before.
            uids = np.concatenate(
                ([self._producer.get(register, NO_DEP)], uid[producers])
            )
            dep[readers] = uids[np.searchsorted(producers, readers)]
            self._producer[register] = int(uids[-1])
        return kind, address, site, dep


def _fetch_rows(uid: np.ndarray, every: int, n_records: int) -> np.ndarray:
    """Where the merged stream has an instruction fetch.

    Before each data record whose uid would be ``every - 1`` mod
    *every*, one fetch takes that uid, unless it would be the last.  So
    every second uid is a fetch when *every* is 1, and the uids ``every
    - 1`` mod *every* are otherwise; a fetch is always followed by a data
    record.
    """
    if every <= 0:
        return np.zeros(len(uid), dtype=bool)
    if every == 1:
        return (uid % 2 == 0) & (uid < n_records - 1)
    return (uid % every == every - 1) & (uid < n_records - 1)


class TraceGenerator:
    """Generates a merged, dependency-annotated trace for one workload."""

    def __init__(self, spec: WorkloadSpec, scale: int = 1) -> None:
        self.spec = spec
        self.scale = scale
        self._entry = get_kernel(spec.name)

    def records(self) -> Iterator[TraceRecord]:
        """The merged trace as validated records (unpacks :meth:`arrays`)."""
        return array_to_records(self.arrays())

    def arrays(self) -> np.ndarray:
        """The full trace as one :data:`TRACE_DTYPE` structured array.

        The array is preallocated and filled :data:`_BLOCK_ROWS` rows at
        a time, so building it holds only block-sized temporaries on top
        of the array itself.
        """
        spec = self.spec
        n_records = spec.n_records
        params = spec.resolved_params(self.scale)
        threads = [_Thread(self._entry, cpu, spec, params)
                   for cpu in range(spec.n_threads)]
        interleave = _Interleave(spec.seed, spec.n_threads)
        array = np.empty(n_records, dtype=TRACE_DTYPE)
        start = 0
        while start < n_records:
            stop = min(n_records, start + _BLOCK_ROWS)
            uid = np.arange(start, stop)
            fetch = _fetch_rows(uid, spec.ifetch_every, n_records)
            if fetch[-1]:
                # A fetch copies the data record after it: keep the pair.
                stop += 1
                uid = np.arange(start, stop)
                fetch = np.append(fetch, False)
            _fill(array[start:stop], uid, fetch, threads, interleave)
            start = stop
        return array


def _fill(out: np.ndarray, uid: np.ndarray, fetch: np.ndarray,
          threads: List[_Thread], interleave: _Interleave) -> None:
    """Fill the rows *uid* of the trace, *fetch* marking the fetches."""
    data = np.flatnonzero(~fetch)
    data_cpu = interleave.take(len(data))
    out["uid"] = uid
    for thread in threads:
        rows = data[data_cpu == thread.cpu]
        kind, address, site, dep = thread.take(uid[rows])
        out["cpu"][rows] = thread.cpu
        out["kind"][rows] = kind
        out["address"][rows] = address
        out["ip"][rows] = _IP_BASE + site * 4
        out["dep_uid"][rows] = dep
    # Each fetch reads the instruction line feeding the next record's site.
    rows = np.flatnonzero(fetch)
    after = rows + 1
    out["cpu"][rows] = out["cpu"][after]
    out["kind"][rows] = AccessType.IFETCH
    out["address"][rows] = out["ip"][rows] = out["ip"][after]
    out["dep_uid"][rows] = NO_DEP

"""Dependency-honoring trace replay and the CPMA metric.

Section 2.1: "The memory hierarchy simulator ... honors all the
dependencies specified in the trace and issues memory accesses
accordingly.  For instance, if a load address Ld2 is dependent on an
earlier load Ld1, then Ld1 is first issued to the memory hierarchy to
obtain the memory access completion time of Ld1.  Then Ld2 is issued to
the memory hierarchy only after Ld1 is completed."

Each cpu issues at most one reference per cycle; a reference additionally
waits for (a) the completion of the record it depends on and (b) a free
MSHR if it misses the L1 while the cpu already has its maximum number of
misses outstanding.  CPMA — cycles per memory access — is the paper's
metric: total elapsed cycles divided by references retired per cpu.

The engine is the stateful :class:`TraceReplayer`, fed
:data:`~repro.traces.generator.TRACE_DTYPE` batches.  It spells the
rule above out once, in one loop that inlines the L1 hit and calls the
hierarchy's compiled walk for everything else; the loop's reference
mode sends every reference through the walk.  Its whole state
(hierarchy, queues, completion table, statistics) is plain picklable
data, which the differential oracle clones and replays in reference
mode.  An optional :class:`~repro.traces.record.TraceGuard` screens
each batch's columns before replay: strict mode raises
:class:`~repro.resilience.errors.TraceCorruptionError` at the first bad
record, lenient mode quarantines bad records and reports counts.
:func:`replay_trace` remains the one-shot convenience wrapper.
"""

from __future__ import annotations

import pickle
from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.memsim.config import HierarchyConfig
from repro.memsim.hierarchy import L1, MemoryHierarchy
from repro.oracles.config import (
    REPLAY_CHUNK,
    SAMPLE_STRIDE,
    get_oracle_config,
)
from repro.oracles.invariants import (
    check_cache_sets,
    check_counter_deltas,
    check_directory_consistency,
    check_rob_occupancy,
)
from repro.oracles.report import record_check, record_violation
from repro.traces.generator import (
    TRACE_DTYPE,
    first_rejected_row,
    records_to_array,
)
from repro.traces.record import TraceGuard, TraceRecord

#: Completion-table pruning: drop entries this many uids behind the head.
_PRUNE_WINDOW = 65536
_PRUNE_EVERY = 131072


def _prune_completions(table: Dict[int, float], uid: int) -> None:
    """Delete, in place, the completion entries more than
    :data:`_PRUNE_WINDOW` uids behind *uid*; the rest keep their order."""
    cutoff = uid - _PRUNE_WINDOW
    for stale in [u for u in table if u < cutoff]:
        del table[stale]


@dataclass
class ReplayStats:
    """Results of replaying one trace against one hierarchy configuration.

    Attributes:
        n_accesses: References measured (post-warmup).
        cpma: Cycles per memory access — elapsed cycles divided by
            per-cpu references (the Figure 5 primary axis).
        avg_latency: Mean individual reference latency, cycles.
        wall_cycles: Elapsed cycles over the measured region.
        bandwidth_gbps: Average off-die bus bandwidth, GB/s (the Figure 5
            secondary axis).
        bus_power_w: Average bus power at 20 mW/Gb/s (Section 3).
        level_counts: References satisfied per hierarchy level.
        level_latency: Mean reference latency per satisfying level,
            cycles (where the cycles per access actually go).
        offchip_fraction: Fraction of references that crossed the bus.
        invalidations: Coherence invalidations between the private L1s.
        quarantined: Records rejected by a lenient trace guard (0 when
            no guard was active or the stream was clean).
        quarantined_by_reason: Rejection counts keyed by violation tag.
        degraded: True when a replay oracle detected a divergence of
            the inlined L1 hit and the run fell back to the loop's
            reference mode (the numbers are correct, the inlined hit was
            not trusted).
    """

    n_accesses: int
    cpma: float
    avg_latency: float
    wall_cycles: float
    bandwidth_gbps: float
    bus_power_w: float
    level_counts: Dict[str, int] = field(default_factory=dict)
    level_latency: Dict[str, float] = field(default_factory=dict)
    offchip_fraction: float = 0.0
    invalidations: int = 0
    quarantined: int = 0
    quarantined_by_reason: Dict[str, int] = field(default_factory=dict)
    degraded: bool = False


class TraceReplayer:
    """Incremental replay of one trace.

    Feed :data:`~repro.traces.generator.TRACE_DTYPE` batches with
    :meth:`feed_array`, then call :meth:`stats` to finalize.  Feeding a
    trace in consecutive slices is the same as feeding it whole.

    Args:
        config: Hierarchy configuration (Table 3 baseline by default).
        hierarchy: A pre-built hierarchy to use instead of *config*.
        warmup_until: Number of leading records whose statistics are
            discarded (cache warmup); 0 disables warmup.
        guard: Optional trace-stream validator; in lenient mode rejected
            records are skipped (they still count toward *warmup_until*)
            and tallied.
    """

    def __init__(
        self,
        config: Optional[HierarchyConfig] = None,
        hierarchy: Optional[MemoryHierarchy] = None,
        warmup_until: int = 0,
        guard: Optional[TraceGuard] = None,
    ) -> None:
        self.hierarchy = hierarchy or MemoryHierarchy(
            config or HierarchyConfig()
        )
        self.warmup_until = warmup_until
        self.guard = guard
        n_cpus = self.hierarchy.config.n_cpus
        self.index = 0  # records consumed (fed), including quarantined
        self._next_free = [0.0] * n_cpus
        self._outstanding: List[List[float]] = [[] for _ in range(n_cpus)]
        self._robs: List[deque] = [deque() for _ in range(n_cpus)]
        self._completion: Dict[int, float] = {}
        self._measured = 0
        self._latency_sum = 0.0
        self._level_latency_sum: Dict[str, float] = {}
        self._level_latency_n: Dict[str, int] = {}
        self._measure_start: Optional[float] = None
        self._end_time = 0.0
        # Oracle bookkeeping (see feed_array): chunks replayed so far,
        # whether a differential check ever diverged, and whether the
        # rest of the run is pinned to the loop's reference mode.
        self._chunk_counter = 0
        self._oracle_fallback = False
        self._oracle_degraded = False

    def _end_warmup(self) -> None:
        """The warmup boundary: discard warmup statistics, then measure
        from the cycle the warmed pipeline has actually reached."""
        self.hierarchy.reset_stats()
        self._measure_start = max(
            max(self._next_free),
            max((r[-1] for r in self._robs if r), default=0.0),
        )
        self._measured = 0
        self._latency_sum = 0.0
        self._level_latency_sum.clear()
        self._level_latency_n.clear()

    # -- the replay loop -----------------------------------------------------

    def feed_array(self, array: np.ndarray) -> int:
        """Replay a :data:`~repro.traces.generator.TRACE_DTYPE` batch.

        Without a guard the rows are trusted (a malformed row fails with
        an ordinary IndexError/KeyError).  With one, a row that
        :class:`TraceRecord` rejects at construction raises its
        :class:`~repro.resilience.errors.TraceCorruptionError`, and the
        guard screens the rest: strict mode raises at the first rejected
        row, lenient mode skips and tallies rejected rows (they still
        count toward :attr:`warmup_until`).  The rows before an error
        are replayed first.

        With oracles enabled (:mod:`repro.oracles`), the batch is split
        into fixed-size chunks; every chunk runs cheap conservation
        invariants, and sampled chunks are replayed a second time in the
        loop's reference mode on a cloned replayer and compared state
        field for state field.  A divergence records a violation, adopts
        the reference state, and pins the rest of the run to the
        reference mode — the run completes ``degraded`` rather than
        crashing or silently trusting the inlined L1 hit.

        Returns the number of rows consumed.
        """
        if array.dtype != TRACE_DTYPE:
            raise ValueError(
                f"feed_array needs a TRACE_DTYPE array, got {array.dtype}"
            )
        return self._feed(array, rows_checked=False)

    def _feed(self, array: np.ndarray, rows_checked: bool) -> int:
        """:meth:`feed_array` past its dtype check; *rows_checked* says
        the rows come from constructed :class:`TraceRecord` objects, so
        only the guard screens them."""
        n = len(array)
        admitted = guard_error = row_error = None
        if self.guard is not None:
            if not rows_checked:
                n, row_error = first_rejected_row(array)
            admitted, guard_error = self.guard.screen(array[:n])
            n = len(admitted)
        cfg = get_oracle_config()
        consumed = 0
        while consumed < n:
            stop = min(n, consumed + REPLAY_CHUNK) if cfg.enabled else n
            if cfg.enabled and not self._oracle_fallback:
                counter = self._chunk_counter
                self._chunk_counter = counter + 1
                crosses_warmup = bool(
                    self.warmup_until
                    and self.index < self.warmup_until <= self.index
                    + (stop - consumed)
                )
                before = self._counter_snapshot()
                if cfg.strict or (
                    counter > 0 and counter % SAMPLE_STRIDE == 0
                ):
                    self._differential_chunk(array, consumed, stop, admitted)
                    self._structure_invariants()
                else:
                    self._feed_rows(array, consumed, stop, admitted)
                self._chunk_invariants(before, stop - consumed, crosses_warmup)
            else:
                # Oracles off, or a differential diverged and the rest of
                # the run is pinned to the loop's reference mode.
                self._feed_rows(array, consumed, stop, admitted)
            consumed = stop
        if guard_error is not None:
            self.index += 1  # the rejected record was consumed
            raise guard_error
        if row_error is not None:
            raise row_error
        return len(array)

    def _feed_rows(
        self,
        array: np.ndarray,
        start: int,
        stop: int,
        admitted: Optional[np.ndarray] = None,
    ) -> None:
        """Feed ``array[start:stop]`` (only its *admitted* rows, when
        given), splitting at the warmup boundary."""
        warmup_until = self.warmup_until
        if warmup_until and self.index < warmup_until:
            boundary = min(stop, start + (warmup_until - self.index))
            self._feed_span(array, start, boundary, False, admitted)
            if self.index == warmup_until:
                self._end_warmup()
            start = boundary
        if start < stop:
            self._feed_span(array, start, stop, True, admitted)

    def _feed_span(
        self,
        array: np.ndarray,
        start: int,
        stop: int,
        measure: bool,
        admitted: Optional[np.ndarray],
    ) -> None:
        """The replay loop: replay ``array[start:stop]``.

        Only the L1 hit (the vast majority of references) is inlined
        against the raw cache dicts; every L1 miss calls the hierarchy's
        compiled :attr:`~MemoryHierarchy.access`/:attr:`~MemoryHierarchy.
        ifetch` walk.  In reference mode (:attr:`_oracle_fallback`) the
        inlined probe sees empty sets, so every reference, L1 hits
        included, takes that walk; the issue slots, window, dependency
        and MSHR waits, retirement and latency sums are the same code
        either way.  Rows outside *admitted* are skipped but still
        advance :attr:`index`.
        """
        hierarchy = self.hierarchy
        fp = hierarchy.fastpath_state()
        d_sets = fp.d_sets
        d_mask = fp.d_mask
        i_mask = fp.i_mask
        d_probe = d_sets
        i_probe = fp.i_sets
        if self._oracle_fallback:
            # Probe sets that never hit (nothing is ever inserted into
            # them), so the walk owns every L1 hit.
            never = {}
            d_probe = [[never] * len(sets) for sets in d_probe]
            i_probe = [[never] * len(sets) for sets in i_probe]
        line_shift = fp.line_shift
        lat_l1d = fp.lat_l1d
        lat_l1i = fp.lat_l1i
        invalidate_other = fp.invalidate_other_copies
        mshrs = hierarchy.config.mshrs_per_cpu
        window = hierarchy.config.reorder_window
        access = hierarchy.access
        ifetch = hierarchy.ifetch
        next_free = self._next_free
        outstanding = self._outstanding
        robs = self._robs
        completion_table = self._completion
        completion_get = completion_table.get
        level_latency_sum = self._level_latency_sum
        level_latency_n = self._level_latency_n
        end_time = self._end_time
        latency_sum = self._latency_sum
        measured = self._measured
        n_cpus = len(next_free)
        d_hits = [0] * n_cpus
        i_hits = [0] * n_cpus
        # The L1 level-latency bucket stays in locals (sequential
        # accumulation from the current dict values, written back below
        # — same additions in the same order).
        l1_lat_sum = level_latency_sum.get(L1, 0.0)
        l1_lat_n0 = level_latency_n.get(L1, 0)
        l1_lat_n = l1_lat_n0

        span = array[start:stop]
        if admitted is not None:
            span = span[admitted[start:stop]]
        cpu_col = span["cpu"]
        kind_col = span["kind"]
        dep_col = span["dep_uid"]
        # Issue slots advance at one reference per cpu per cycle; the
        # whole slot sequence for the span is known up front.  The
        # values are integral doubles, so base + arange reproduces the
        # sequential base + 1.0 + 1.0 + ... additions exactly.  A
        # reference may *start* later than its slot if its producer has
        # not completed, but it does not hold later independent
        # references back (the paper's replay honors dependencies, not
        # program order).
        slot_col = np.empty(len(span), dtype=np.float64)
        for c in range(n_cpus):
            taken = cpu_col == c
            count = int(taken.sum())
            if count:
                base = next_free[c]
                slot_col[taken] = base + np.arange(count, dtype=np.float64)
                next_free[c] = base + float(count)
        # Dependent *loads* wait for their producer (the paper's Ld1/Ld2
        # rule); dependent stores drain through the store buffer instead
        # of stalling.  Fold that predicate into the dep column: -1
        # means "no wait".
        dep_col = np.where((dep_col >= 0) & (kind_col == 0), dep_col, -1)

        for uid, cpu, kind, address, dep, t in zip(
            span["uid"].tolist(),
            cpu_col.tolist(),
            kind_col.tolist(),
            span["address"].tolist(),
            dep_col.tolist(),
            slot_col.tolist(),
        ):
            # Finite reorder window: a reference needs a free window
            # slot, so it cannot start until the oldest in-flight
            # reference retires.
            rob = robs[cpu]
            if len(rob) >= window:
                oldest = rob.popleft()
                if oldest > t:
                    t = oldest

            # A reference that misses the L1D waits for a free MSHR and
            # retires the misses completed by then (an IFETCH checks the
            # L1D too).
            if kind == 2:  # IFETCH
                line = address >> line_shift
                if line not in d_sets[cpu][line & d_mask]:
                    misses = outstanding[cpu]
                    if misses:
                        if len(misses) >= mshrs and misses[0] > t:
                            t = misses[0]
                        done = 0
                        for value in misses:
                            if value <= t:
                                done += 1
                            else:
                                break
                        if done:
                            del misses[:done]
                i_entries = i_probe[cpu][line & i_mask]
                previous = i_entries.pop(line, None)
                if previous is not None:
                    i_entries[line] = previous
                    i_hits[cpu] += 1
                    comp = t + lat_l1i
                    level = L1
                else:
                    comp, level, _ = ifetch(cpu, address, t)
                    if level != L1:
                        insort(outstanding[cpu], comp)
            else:
                if dep >= 0:  # dependent LOAD (predicate folded above)
                    dep_done = completion_get(dep)
                    if dep_done is not None and dep_done > t:
                        t = dep_done
                line = address >> line_shift
                d_entries = d_probe[cpu][line & d_mask]
                previous = d_entries.pop(line, None)
                if previous is not None:  # L1D hit
                    if kind == 1:  # STORE write hit
                        d_entries[line] = True
                        invalidate_other(cpu, line)
                    else:
                        d_entries[line] = previous
                    d_hits[cpu] += 1
                    comp = t + lat_l1d
                    level = L1
                else:
                    misses = outstanding[cpu]
                    if misses and line not in d_sets[cpu][line & d_mask]:
                        if len(misses) >= mshrs and misses[0] > t:
                            t = misses[0]
                        done = 0
                        for value in misses:
                            if value <= t:
                                done += 1
                            else:
                                break
                        if done:
                            del misses[:done]
                    comp, level, _ = access(cpu, kind == 1, address, t)
                    if level != L1:
                        insort(misses, comp)

            if kind == 0:  # LOAD
                completion_table[uid] = comp
                if len(completion_table) > _PRUNE_EVERY:
                    _prune_completions(completion_table, uid)

            # In-order retirement: a reference retires no earlier than
            # its predecessors.
            retire = comp
            if rob and rob[-1] > retire:
                retire = rob[-1]
            rob.append(retire)
            if retire > end_time:
                end_time = retire

            if measure:
                latency = comp - t
                latency_sum += latency
                if level == L1:
                    l1_lat_sum += latency
                    l1_lat_n += 1
                else:
                    level_latency_sum[level] = (
                        level_latency_sum.get(level, 0.0) + latency
                    )
                    level_latency_n[level] = level_latency_n.get(level, 0) + 1

        self.index += stop - start
        self._end_time = end_time
        self._latency_sum = latency_sum
        if measure:
            measured += len(span)
        self._measured = measured
        if l1_lat_n != l1_lat_n0:
            level_latency_sum[L1] = l1_lat_sum
            level_latency_n[L1] = l1_lat_n
        hierarchy.flush_fast_counts(d_hits, i_hits, sum(d_hits) + sum(i_hits))

    # -- oracles -------------------------------------------------------------

    @staticmethod
    def _cache_fingerprint(cache: Any) -> Optional[Dict[str, Any]]:
        if cache is None:
            return None
        return {
            "hits": cache.hits,
            "misses": cache.misses,
            "evictions": cache.evictions,
            "writebacks": cache.writebacks,
            # Dict order IS the LRU order, so == checks it too.
            "sets": [list(entries.items()) for entries in cache._sets],
        }

    @staticmethod
    def _dram_cache_fingerprint(dc: Any) -> Optional[Dict[str, Any]]:
        if dc is None:
            return None
        return {
            "sector_hits": dc.sector_hits,
            "sector_misses": dc.sector_misses,
            "page_misses": dc.page_misses,
            "page_evictions": dc.page_evictions,
            "lifetime_page_evictions": dc.lifetime_page_evictions,
            "dirty_sector_writebacks": dc.dirty_sector_writebacks,
            "sets": [list(entries.items()) for entries in dc._sets],
            "dirty": [list(entries.items()) for entries in dc._dirty],
            "bank_free": list(dc.banks._bank_free),
            "open_pages": list(dc.banks._open_page),
        }

    def state_fingerprint(self) -> Dict[str, Any]:
        """Everything observable about the replay, for exact comparison.

        Covers cache contents *and* LRU order (dict order), the
        coherence directory, prefetch history, DRAM bank/page state, bus
        accounting, ROBs, completion tables, and every timing
        accumulator — the same surface the replay equivalence tests
        compare, so a differential mismatch pinpoints the diverged
        field.
        """
        h = self.hierarchy
        return {
            "l1d": [self._cache_fingerprint(c) for c in h.l1s],
            "l1i": [self._cache_fingerprint(c) for c in h.l1is],
            "l2": self._cache_fingerprint(h.l2),
            "stacked_sram": self._cache_fingerprint(h.stacked_sram),
            "stacked_dram": self._dram_cache_fingerprint(h.stacked_dram),
            "directory": dict(h._directory),
            "miss_history": [list(d) for d in h._miss_history],
            "level_counts": dict(h.level_counts),
            "offchip_accesses": h.offchip_accesses,
            "invalidations": h.invalidations,
            "prefetches": h.prefetches,
            "ddr_open_pages": list(h.ddr._open_page),
            "ddr_bank_free": list(h.ddr._bank_free),
            "ddr_page_hits": h.ddr.page_hits,
            "ddr_page_empties": h.ddr.page_empties,
            "ddr_page_conflicts": h.ddr.page_conflicts,
            "bus_free_at": h.bus._free_at,
            "bus_total_bytes": h.bus.total_bytes,
            "bus_transfers": h.bus.transfers,
            "bus_wait_cycles": h.bus.total_wait_cycles,
            "index": self.index,
            "next_free": list(self._next_free),
            "outstanding": [list(o) for o in self._outstanding],
            "robs": [list(r) for r in self._robs],
            "completion": dict(self._completion),
            "measured": self._measured,
            "latency_sum": self._latency_sum,
            "level_latency_sum": dict(self._level_latency_sum),
            "level_latency_n": dict(self._level_latency_n),
            "measure_start": self._measure_start,
            "end_time": self._end_time,
        }

    def _counter_snapshot(self) -> Dict[str, float]:
        """Cheap monotone-counter snapshot taken around every chunk."""
        h = self.hierarchy
        return {
            "index": self.index,
            "measured": self._measured,
            "latency_sum": self._latency_sum,
            "end_time": self._end_time,
            "total_accesses": h.total_accesses,
            "offchip_accesses": h.offchip_accesses,
            "invalidations": h.invalidations,
            "bus_total_bytes": h.bus.total_bytes,
        }

    def _record_replay_violation(self, detail: str, action: str) -> None:
        self._oracle_degraded = True
        record_violation("memsim.replay", "memsim", detail, action)

    def _chunk_invariants(
        self, before: Dict[str, float], rows: int, crosses_warmup: bool
    ) -> None:
        """O(1)-ish invariants run after *every* oracle-mode chunk."""
        record_check("memsim.replay-chunk")
        problems: List[str] = []
        after = self._counter_snapshot()
        if after["index"] != before["index"] + rows:
            problems.append(
                f"index advanced {after['index'] - before['index']} "
                f"for a {rows}-row chunk"
            )
        if not crosses_warmup:
            # reset_stats() at the warmup boundary legitimately rewinds
            # these; any other decrease is corruption.
            problems += check_counter_deltas(before, after)
        problems += check_rob_occupancy(
            [len(rob) for rob in self._robs],
            self.hierarchy.config.reorder_window,
        )
        mshrs = self.hierarchy.config.mshrs_per_cpu
        for cpu, misses in enumerate(self._outstanding):
            if len(misses) > mshrs:
                problems.append(
                    f"cpu{cpu} tracks {len(misses)} outstanding misses "
                    f"> {mshrs} MSHRs"
                )
            if any(a > b for a, b in zip(misses, misses[1:])):
                problems.append(f"cpu{cpu} MSHR completions out of order")
        for problem in problems:
            self._record_replay_violation(problem, "degraded")

    def _structure_invariants(self) -> None:
        """Cache/directory well-formedness (sampled chunks + stats())."""
        record_check("memsim.replay-structure")
        h = self.hierarchy
        problems: List[str] = []
        for cpu, cache in enumerate(h.l1s):
            problems += check_cache_sets(
                cache._sets, cache.config.ways, f"l1d{cpu}"
            )
        for cpu, cache in enumerate(h.l1is):
            problems += check_cache_sets(
                cache._sets, cache.config.ways, f"l1i{cpu}"
            )
        if h.l2 is not None:
            problems += check_cache_sets(h.l2._sets, h.l2.config.ways, "l2")
        if h.stacked_sram is not None:
            problems += check_cache_sets(
                h.stacked_sram._sets, h.stacked_sram.config.ways, "stacked-sram"
            )
        problems += check_directory_consistency(h)
        for problem in problems:
            self._record_replay_violation(problem, "degraded")

    def _differential_chunk(
        self,
        array: np.ndarray,
        start: int,
        stop: int,
        admitted: Optional[np.ndarray],
    ) -> None:
        """Replay one chunk in both modes of the loop and compare state
        exactly.

        The reference replayer is a pickle clone taken *before* the
        inlined replay touches anything, pinned to reference mode (every
        reference through the compiled walk) and fed the same rows.  On
        mismatch its state is adopted (it is the trusted semantics), so
        the rest of the run stays in reference mode.
        """
        record_check("memsim.replay-differential")
        reference = pickle.loads(pickle.dumps(self))
        reference._oracle_fallback = True
        self._feed_rows(array, start, stop, admitted)
        reference._feed_rows(array, start, stop, admitted)
        mine = self.state_fingerprint()
        theirs = reference.state_fingerprint()
        if mine == theirs:
            return
        diverged = sorted(
            key for key in mine if mine[key] != theirs.get(key)
        )
        self._record_replay_violation(
            "inlined replay diverged from reference replay at record "
            f"{self.index} (fields: {', '.join(diverged[:6])})",
            "fallback-reference",
        )
        # Adopt the reference state wholesale, reference mode included:
        # correctness beats speed once an oracle fires.
        degraded = self._oracle_degraded
        self.__dict__.update(reference.__dict__)
        self._oracle_degraded = degraded

    # -- finalization --------------------------------------------------------

    def stats(self) -> ReplayStats:
        """Finalize the replay into a :class:`ReplayStats`."""
        if self._measured == 0:
            raise ValueError("trace produced no measured references")
        if get_oracle_config().enabled:
            # Final well-formedness sweep: a run too short to reach a
            # sampled chunk gets at least this one structural check.
            self._structure_invariants()
        hierarchy = self.hierarchy
        start = self._measure_start or 0.0
        wall = max(self._end_time - start, 1.0)
        per_cpu_refs = self._measured / hierarchy.config.n_cpus
        clock = hierarchy.config.core_clock_ghz
        return ReplayStats(
            n_accesses=self._measured,
            cpma=wall / per_cpu_refs,
            avg_latency=self._latency_sum / self._measured,
            wall_cycles=wall,
            bandwidth_gbps=hierarchy.bus.bandwidth_gbps(wall, clock),
            bus_power_w=hierarchy.bus.power_w(wall, clock),
            level_counts=dict(hierarchy.level_counts),
            level_latency={
                level: self._level_latency_sum[level] / count
                for level, count in self._level_latency_n.items()
            },
            offchip_fraction=hierarchy.offchip_fraction(),
            invalidations=hierarchy.invalidations,
            quarantined=self.guard.quarantined if self.guard else 0,
            quarantined_by_reason=(
                dict(self.guard.quarantined_by_reason) if self.guard else {}
            ),
            degraded=self._oracle_degraded,
        )


def replay_trace(
    records: Union[Sequence[TraceRecord], np.ndarray],
    config: Optional[HierarchyConfig] = None,
    hierarchy: Optional[MemoryHierarchy] = None,
    warmup_fraction: float = 0.3,
    mode: Optional[str] = None,
) -> ReplayStats:
    """Replay a trace and measure CPMA, bandwidth, and bus power.

    Args:
        records: The trace — a :data:`~repro.traces.generator.TRACE_DTYPE`
            structured array, or a sequence of :class:`TraceRecord`
            (packed into one with identical results).
        config: Hierarchy configuration (Table 3 baseline by default).
        hierarchy: A pre-built hierarchy to use instead of *config*
            (useful for warmed or instrumented instances).
        warmup_fraction: Leading fraction of the trace used to warm the
            caches; its statistics are discarded, mirroring the paper's
            skipping of each benchmark's initialization phase.
        mode: ``"strict"`` screens every record and raises
            :class:`~repro.resilience.errors.TraceCorruptionError` on
            the first violation, after replaying the records before it;
            ``"lenient"`` quarantines bad records and reports counts in
            the stats; ``None`` (default) replays unvalidated, trusting
            construction-time checks.

    Returns:
        A :class:`ReplayStats`.
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError("warmup_fraction must be in [0, 1)")
    if mode not in (None, "strict", "lenient"):
        raise ValueError(f"mode must be 'strict' or 'lenient', got {mode!r}")

    if hierarchy is None:
        hierarchy = MemoryHierarchy(config or HierarchyConfig())
    guard = (
        TraceGuard(n_cpus=hierarchy.config.n_cpus, strict=mode == "strict")
        if mode is not None
        else None
    )
    replayer = TraceReplayer(
        hierarchy=hierarchy,
        warmup_until=int(len(records) * warmup_fraction),
        guard=guard,
    )
    if isinstance(records, np.ndarray):
        replayer.feed_array(records)
    else:
        replayer._feed(records_to_array(records), rows_checked=True)
    return replayer.stats()

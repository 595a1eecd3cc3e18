"""Lease-based campaign scheduler: the policy half of the runner.

The scheduler owns everything an executor backend must not: the task
queue, the **lease table** (:mod:`repro.runner.leases`), retry/backoff,
and the journal — the single source of truth a campaign resumes from.
Backends (:mod:`repro.runner.backends`) own mechanism only; the same
scheduler drives the local subprocess pool, the in-process backend,
and the simulated executors of :class:`repro.dst.fabric.SimFabric`.

Scheduling is lease-based:

* Before work is handed to an executor, the scheduler **claims** the
  task fingerprint under a TTL lease for that executor.
* Backend events translate executor liveness into **renewals**; an
  executor that stops proving itself alive (crashed, partitioned, or
  with a stalled heartbeat) lets its leases **expire**.
* Expired (or evicted — the backend *knows* the executor died) leases
  are reclaimed: the attempt is journaled ``executor-lost`` and the
  task re-queued immediately, so a surviving executor **steals** it.
* Completions are matched by fingerprint and resolved
  **idempotently**: the first journaled ``ok`` wins; later completions
  of the same fingerprint (a partitioned executor healing, an injected
  duplicate delivery) are journaled as ``duplicate`` for audit but
  discarded from aggregation — the sha256 task fingerprints make the
  match exact.
* Every grant carries a **fencing token** (the lease epoch, stamped
  into the assignment spec and echoed back in the outcome).  When a
  lease is reclaimed, its epoch becomes the fingerprint's fence: any
  completion carrying an epoch at or below the fence is a zombie
  executor's late write — journaled ``fenced`` for audit, never
  counted, never resumed from — so a presumed-dead executor can never
  shadow the result of a fresher attempt.

For deterministic simulation (:mod:`repro.dst`) the scheduler's time
source, journal construction, and decision points are pluggable via
``CampaignConfig.clock`` / ``journal_factory`` / ``event_hook``; the
default wiring is the real monotonic clock and the real journal, with
hooks disabled.

This module is the runner's one policy module: besides the loop it
holds the vocabulary the CLI, the service and the DST harness configure
it with — :class:`RetryPolicy`, :class:`CampaignConfig` and the
:class:`CampaignReport` every campaign ends with.  A campaign that loses
an entire executor still ends with a complete report, flagged
``degraded``; ``--resume`` re-runs only fingerprints without an ``ok``
journal entry and produces bit-identical results to an unfaulted run.
"""

from __future__ import annotations

import copy
import random
import sys
import tempfile
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.experiments import task_fingerprint
from repro.resilience.faults import FaultInjector
from repro.runner.backends import (
    Assignment,
    ExecutorBackend,
    make_backend,
    parse_backend_spec,
)
from repro.runner.journal import (
    Journal,
    completed_fingerprints,
    make_entry,
    scan_journal,
)
from repro.runner.leases import Lease, LeaseTable
from repro.runner.tasks import CampaignTask
from repro.runner.worker import HEARTBEAT_EVERY_S


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff + deterministic jitter.

    Attributes:
        max_retries: Extra attempts after the first (0 disables retry).
        backoff_base_s: Delay before the first retry.
        backoff_factor: Multiplier per subsequent retry.
        jitter_frac: Fraction of the delay added as jitter; the jitter
            is drawn from ``random.Random(f"{fingerprint}:{attempt}")``
            so it is reproducible, not synchronized across tasks.
    """

    max_retries: int = 2
    backoff_base_s: float = 0.25
    backoff_factor: float = 2.0
    jitter_frac: float = 0.5

    def delay_s(self, fingerprint: str, attempt: int) -> float:
        """Backoff before retry number *attempt* (1-based)."""
        base = self.backoff_base_s * self.backoff_factor ** max(0, attempt - 1)
        rng = random.Random(f"{fingerprint}:{attempt}")
        return base * (1.0 + self.jitter_frac * rng.random())


@dataclass
class CampaignConfig:
    """Knobs for one campaign run (CLI: ``repro sweep``).

    ``backend`` picks the executor backend: ``local`` (subprocess pool)
    or ``inproc`` (synchronous, deterministic; takes no ``injector``).
    ``workers`` caps the tasks one executor runs at once.  ``lease_ttl_s``
    is how long a claimed task may go without its executor proving
    itself alive before the scheduler reclaims the lease and re-queues
    the work for any live executor; ``lease_reclaim_budget`` bounds how
    many times one task may be reclaimed before it is finalized as
    failed.

    The last three knobs exist for deterministic simulation
    (:mod:`repro.dst`): ``clock`` swaps the scheduler's time source
    (any object with ``monotonic()`` and ``sleep(seconds)``; None means
    the real monotonic clock), ``event_hook`` receives
    ``(kind, payload)`` after every scheduler decision (claim, outcome,
    reclaim, journal append, ...), and ``journal_factory`` builds the
    journal from its path (None means :class:`repro.runner.journal.
    Journal`) so a simulated journal can tear writes on purpose.
    """

    workers: int = 2
    task_timeout_s: float = 300.0
    heartbeat_timeout_s: float = 10.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    journal_path: str = "campaign.jsonl"
    resume: bool = False
    scratch_dir: Optional[str] = None
    injector: Optional[FaultInjector] = None
    poll_interval_s: float = 0.02
    oracle_mode: str = "sample"
    backend: str = "local"
    lease_ttl_s: float = 15.0
    lease_reclaim_budget: int = 3
    clock: Optional[Any] = None
    event_hook: Optional[Callable[[str, Dict[str, Any]], None]] = None
    journal_factory: Optional[Callable[[str], Any]] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.task_timeout_s <= 0:
            raise ValueError("task_timeout_s must be positive")
        if self.heartbeat_timeout_s <= HEARTBEAT_EVERY_S:
            raise ValueError(
                "heartbeat_timeout_s must exceed the "
                f"{HEARTBEAT_EVERY_S:g}s worker heartbeat interval"
            )
        if self.lease_ttl_s <= 0:
            raise ValueError("lease_ttl_s must be positive")
        if self.lease_reclaim_budget < 0:
            raise ValueError("lease_reclaim_budget must be >= 0")
        # Fail on a malformed backend spec at config time, not after
        # the campaign scratch dir is already on disk.
        backend = parse_backend_spec(self.backend)
        if backend == "inproc" and self.injector is not None:
            raise ValueError(
                "the inproc backend injects no faults; chaos needs the "
                "local backend"
            )


@dataclass
class CampaignReport:
    """Degraded-but-complete summary of a campaign.

    ``degraded`` means the campaign finished but something was not
    clean: a task exhausted its retry budget, an oracle caught a
    violation, or an executor died mid-campaign (even when surviving
    executors stole and finished all of its work).  The per-task
    entries and the backend accounting say which and why.
    """

    tasks: List[Dict[str, Any]] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    taxonomy: Dict[str, int] = field(default_factory=dict)
    retries_used: int = 0
    wall_clock_s: float = 0.0
    degraded: bool = False
    journal_path: str = ""
    resumed_ok: int = 0
    torn_journal_lines: int = 0
    corrupt_journal_lines: int = 0
    stale_resume: int = 0
    oracle_checks: int = 0
    oracle_violations: int = 0
    backend: str = "local"
    executors_lost: int = 0
    leases_reclaimed: int = 0
    duplicate_completions: int = 0
    fenced_completions: int = 0
    work_stolen: int = 0
    per_executor: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every task (fresh or resumed) ended ``ok``."""
        return not self.degraded

    def backend_tallies(self) -> Dict[str, Any]:
        """Grouped backend/lease-table accounting for this campaign.

        The machine-readable block ``repro sweep --json`` emits and the
        service ``/stats`` endpoint aggregates: executors lost mid-run,
        leases reclaimed after missed heartbeats, tasks stolen by
        surviving executors, and duplicate completions discarded when a
        presumed-dead executor answered after all.
        """
        return {
            "backend": self.backend,
            "executors_lost": self.executors_lost,
            "leases_reclaimed": self.leases_reclaimed,
            "work_stolen": self.work_stolen,
            "duplicates_discarded": self.duplicate_completions,
            "fenced_discarded": self.fenced_completions,
            "per_executor": {
                executor: dict(counts)
                for executor, counts in self.per_executor.items()
            },
        }

    def to_dict(self) -> Dict[str, Any]:
        """Every field (shallow-copied, in declaration order), then the
        grouped :meth:`backend_tallies` block."""
        out = {f.name: copy.copy(getattr(self, f.name)) for f in fields(self)}
        out["backend_tallies"] = self.backend_tallies()
        return out


def entry_is_stale(entry: Dict[str, Any]) -> bool:
    """A journaled-ok line whose fingerprint belies its own inputs.

    The resume index is keyed on the *stored* fingerprint, so a line
    whose ``fingerprint`` field no longer matches a recomputation over
    its own recorded ``(experiment_id, kwargs)`` would be trusted for a
    task it never actually ran.  Detect and re-run.
    """
    expected = task_fingerprint(
        entry.get("experiment_id", ""), entry.get("kwargs") or {}
    )
    return expected != entry.get("fingerprint")


@dataclass
class _Pending:
    """One queued (task, attempt) waiting for dispatch."""

    task: CampaignTask
    attempt: int
    eligible_mono: float
    #: Prepared assignment, built once so a saturated backend does not
    #: re-consume fault-injector draws on every dispatch round.
    assignment: Optional[Assignment] = field(default=None, repr=False)


class WallClock:
    """Default time source: the process monotonic clock."""

    @staticmethod
    def monotonic() -> float:
        return time.monotonic()

    @staticmethod
    def sleep(seconds: float) -> None:
        time.sleep(seconds)


class Scheduler:
    """Drives one campaign over one executor backend."""

    def __init__(
        self,
        config: Optional[CampaignConfig] = None,
        backend: Optional[ExecutorBackend] = None,
    ) -> None:
        self.config = config or CampaignConfig()
        self._backend = backend
        self._clock = self.config.clock or WallClock()

    def _emit(self, kind: str, **payload: Any) -> None:
        """Fire the config's event hook, if any (DST decision points)."""
        hook = self.config.event_hook
        if hook is not None:
            hook(kind, payload)

    # -- assignment construction ---------------------------------------------

    def _build_assignment(
        self, task: CampaignTask, attempt: int, epoch: int
    ) -> Assignment:
        config = self.config
        chaos = None
        if config.injector is not None:
            chaos = config.injector.worker_fault(task.task_id, attempt)
        spec = dict(task.to_spec())
        spec.update(
            attempt=attempt,
            chaos=chaos,
            chaos_seed=(
                config.injector.seed if config.injector is not None else 0
            ),
            oracle_mode=config.oracle_mode,
            lease_epoch=epoch,
            sys_path=[p for p in sys.path if p],
        )
        return Assignment(
            task_id=task.task_id,
            experiment_id=task.experiment_id,
            fingerprint=task.fingerprint,
            kwargs=dict(task.kwargs),
            attempt=attempt,
            timeout_s=config.task_timeout_s,
            spec=spec,
        )

    # -- campaign loop -------------------------------------------------------

    def run(self, tasks: Sequence[CampaignTask]) -> CampaignReport:
        config = self.config
        started = self._clock.monotonic()
        seen: set = set()
        seen_fps: Dict[str, str] = {}
        for task in tasks:
            if task.task_id in seen:
                raise ValueError(f"duplicate task id {task.task_id!r}")
            seen.add(task.task_id)
            other = seen_fps.get(task.fingerprint)
            if other is not None:
                # The fingerprint is the unit of work: leases, journal
                # lines, and completion idempotence are all keyed on it.
                # Two tasks sharing one fingerprint are the same
                # computation — running both would make the second look
                # like a duplicate completion and never finalize.
                raise ValueError(
                    f"tasks {other!r} and {task.task_id!r} share "
                    f"fingerprint {task.fingerprint[:12]}; identical "
                    f"(experiment, kwargs) may be submitted once"
                )
            seen_fps[task.fingerprint] = task.task_id

        backend = self._backend or make_backend(config.backend, config)
        report = CampaignReport(
            journal_path=str(config.journal_path), backend=backend.name,
        )
        resumed: Dict[str, Dict[str, Any]] = {}
        if config.resume:
            entries, torn, crc_failed = scan_journal(config.journal_path)
            report.torn_journal_lines = torn
            report.corrupt_journal_lines = crc_failed
            resumed = completed_fingerprints(entries)

        # Mutable campaign state, shared with the handlers below.
        self._report = report
        self._pending: List[_Pending] = []
        self._leases = LeaseTable(ttl_s=config.lease_ttl_s)
        self._final_by_task: Dict[str, Dict[str, Any]] = {}
        self._completed_fps: set = set()
        self._first_claimant: Dict[str, str] = {}
        self._worker_failures: Dict[str, int] = {}
        self._reclaims: Dict[str, int] = {}
        self._next_attempt: Dict[str, int] = {}
        self._tasks_by_fp: Dict[str, CampaignTask] = {}
        self._dead_executors: set = set()
        #: Grants issued per fingerprint (the next grant's epoch is one
        #: more) and the fence: the highest epoch ever *reclaimed* per
        #: fingerprint.  Completions at or below the fence are zombies.
        self._epoch_by_fp: Dict[str, int] = {}
        self._fence_by_fp: Dict[str, int] = {}
        #: Injected duplicate deliveries not yet accepted by the backend,
        #: and the number running.  The campaign ends only once every
        #: ghost has reported, so its duplicate is always counted.
        self._ghosts: List[Assignment] = []
        self._ghosts_running = 0

        to_run = 0
        for task in tasks:
            done = resumed.get(task.fingerprint)
            if done is not None and not entry_is_stale(done):
                report.resumed_ok += 1
                report.tasks.append(dict(done, status="ok", resumed=True))
                self._completed_fps.add(task.fingerprint)
            else:
                if done is not None:
                    # Journaled-ok entry whose stored fingerprint does
                    # not match its own recorded inputs: the line was
                    # edited or corrupted after writing.  Re-run rather
                    # than resume from untrustworthy state.
                    report.stale_resume += 1
                self._tasks_by_fp[task.fingerprint] = task
                self._pending.append(_Pending(task, 0, started))
                self._next_attempt[task.task_id] = 1
                to_run += 1

        scratch_ctx = None
        if config.scratch_dir is None:
            scratch_ctx = tempfile.TemporaryDirectory(prefix="repro-sweep-")
            scratch = Path(scratch_ctx.name)
        else:
            scratch = Path(config.scratch_dir)
            scratch.mkdir(parents=True, exist_ok=True)

        journal_factory = config.journal_factory or Journal
        self._journal = journal_factory(config.journal_path)
        try:
            backend.start(scratch)
            while not self._settled(to_run):
                now = self._clock.monotonic()
                self._dispatch(backend, now)
                events = backend.poll()
                for event in events:
                    now = self._clock.monotonic()
                    if event.kind == "renew":
                        self._leases.renew(event.executor, now)
                        self._emit("renew", executor=event.executor)
                    elif event.kind == "executor-dead":
                        self._on_executor_dead(event.executor, event.detail)
                    elif event.kind == "outcome":
                        self._on_outcome(event.executor, event.outcome or {})
                for lease in self._leases.expired(self._clock.monotonic()):
                    self._reclaim(
                        lease,
                        f"lease expired after {config.lease_ttl_s:g}s "
                        f"without a renewal from {lease.executor_id!r}",
                    )
                if self._settled(to_run):
                    break
                made_progress = any(
                    event.kind != "renew" for event in events
                )
                if not self._maybe_strand(backend) and not made_progress:
                    self._clock.sleep(config.poll_interval_s)
        finally:
            backend.stop()
            self._journal.close()
            if scratch_ctx is not None:
                scratch_ctx.cleanup()

        for task in tasks:
            entry = self._final_by_task.get(task.task_id)
            if entry is not None:
                report.tasks.append(entry)
        report.counts = {
            "ok": sum(1 for t in report.tasks if t["status"] == "ok"),
            "failed": sum(1 for t in report.tasks if t["status"] != "ok"),
            "skipped": report.resumed_ok,
        }
        report.degraded = report.counts["failed"] > 0
        for entry in report.tasks:
            if entry.get("resumed"):
                # Oracle tallies belong to the run that produced them: a
                # resumed-ok task's violations were surfaced (and its
                # campaign degraded) back then, and its journaled result
                # already came off the trusted reference path — they do
                # not re-degrade this campaign.
                continue
            oracles = entry.get("oracles") or {}
            report.oracle_checks += int(oracles.get("total_checks", 0))
            report.oracle_violations += len(oracles.get("violations", []))
        # An oracle violation means some result came off an untrusted
        # fast path, and a lost executor means supervision itself took a
        # casualty; either way the campaign completed but is not clean.
        if report.oracle_violations or report.executors_lost:
            report.degraded = True
        report.wall_clock_s = round(self._clock.monotonic() - started, 4)
        return report

    def _settled(self, to_run: int) -> bool:
        """Every task has a final verdict and every ghost has reported."""
        return (
            len(self._final_by_task) >= to_run
            and not self._ghosts
            and not self._ghosts_running
        )

    # -- dispatch ------------------------------------------------------------

    def _deliver_ghosts(self, backend: ExecutorBackend) -> bool:
        """Submit owed duplicate deliveries; False while the backend is
        full (the ghosts go first once a slot frees)."""
        while self._ghosts:
            if backend.try_submit(self._ghosts[0]) is None:
                return False
            self._ghosts.pop(0)
            self._ghosts_running += 1
        return True

    def _dispatch(self, backend: ExecutorBackend, now: float) -> None:
        config = self.config
        self._pending.sort(key=lambda item: item.eligible_mono)
        while (
            self._deliver_ghosts(backend)
            and self._pending
            and self._pending[0].eligible_mono <= now
        ):
            item = self._pending[0]
            if item.assignment is None:
                # A pending fingerprint is never currently leased, so
                # bumping the grant counter here (once per queue entry;
                # the assignment is cached across saturated polls) is
                # what makes epochs strictly increase per fingerprint.
                fp = item.task.fingerprint
                epoch = self._epoch_by_fp.get(fp, 0) + 1
                self._epoch_by_fp[fp] = epoch
                item.assignment = self._build_assignment(
                    item.task, item.attempt, epoch
                )
            executor = backend.try_submit(item.assignment)
            if executor is None:
                return
            self._pending.pop(0)
            epoch = int(item.assignment.spec.get("lease_epoch", 1))
            self._leases.claim(
                item.task.fingerprint,
                item.task.task_id,
                executor,
                item.attempt,
                now,
                epoch=epoch,
            )
            self._emit(
                "claim",
                fingerprint=item.task.fingerprint,
                task_id=item.task.task_id,
                executor=executor,
                attempt=item.attempt,
                epoch=epoch,
            )
            self._first_claimant.setdefault(item.task.fingerprint, executor)
            if (
                config.injector is not None
                and config.injector.duplicate_delivery(item.task.task_id)
            ):
                # Backend-level fault: the same attempt is delivered
                # twice (a retransmit on a flaky control plane).  No
                # second lease — the scheduler believes it sent one
                # copy; idempotent completion matching absorbs the rest.
                # A full backend takes the ghost once a slot frees.
                self._ghosts.append(replace(
                    item.assignment,
                    spec=dict(item.assignment.spec, delivery=1),
                ))

    # -- event handlers ------------------------------------------------------

    def _on_executor_dead(self, executor_id: str, detail: str) -> None:
        if executor_id in self._dead_executors:
            return
        self._dead_executors.add(executor_id)
        self._report.executors_lost += 1
        self._emit("executor-dead", executor=executor_id, detail=detail)
        now = self._clock.monotonic()
        for lease in self._leases.evict_executor(executor_id, now):
            self._reclaim(
                lease,
                f"executor {executor_id!r} died"
                + (f" ({detail})" if detail else ""),
            )

    def _per_executor(self, executor_id: str) -> Dict[str, int]:
        return self._report.per_executor.setdefault(
            executor_id, {"ok": 0, "failed": 0, "duplicates": 0, "fenced": 0}
        )

    def _is_fenced(self, fingerprint: str, epoch: Optional[int]) -> bool:
        """Is a completion carrying *epoch* a zombie's late write?

        The fence is the highest epoch ever reclaimed for the
        fingerprint; a completion at or below it comes from a lease
        holder the scheduler already declared dead.  Outcomes without
        an epoch (older backends) are never fenced.
        """
        if epoch is None:
            return False
        return int(epoch) <= self._fence_by_fp.get(fingerprint, 0)

    def _on_outcome(
        self, executor_id: str, outcome: Dict[str, Any]
    ) -> None:
        if outcome.get("delivery"):
            self._ghosts_running -= 1
        fingerprint = outcome.get("fingerprint", "")
        task = self._tasks_by_fp.get(fingerprint)
        if task is None:
            return  # not part of this campaign (stale scratch replay)
        report = self._report
        if self._is_fenced(fingerprint, outcome.get("lease_epoch")):
            # The lease this attempt ran under was reclaimed: whatever
            # the zombie reports — even an ``ok`` — must not shadow the
            # attempt the task was re-granted to.  Journal for audit
            # (lease custody settled first, as with duplicates) and
            # discard from every aggregate.
            report.fenced_completions += 1
            self._per_executor(executor_id)["fenced"] += 1
            self._leases.release(fingerprint, executor_id)
            self._journal_append(self._entry(
                outcome, executor_id, final=False, fenced=True,
            ))
            self._emit(
                "fenced",
                fingerprint=fingerprint,
                executor=executor_id,
                epoch=outcome.get("lease_epoch"),
                status=outcome.get("status"),
            )
            return
        if fingerprint in self._completed_fps:
            # Idempotent resolution: the first journaled ``ok`` won;
            # this late completion (healed partition, duplicate
            # delivery) is journaled for audit and dropped from every
            # aggregate.
            report.duplicate_completions += 1
            self._per_executor(executor_id)["duplicates"] += 1
            # Release the straggler's lease *before* journalling: the
            # audit line must describe work whose lease custody has
            # already been settled, and a crash between the two must
            # not strand the fingerprint as still-leased.
            self._leases.release(fingerprint, executor_id)
            self._journal_append(self._entry(
                outcome, executor_id, final=False, duplicate=True,
            ))
            self._emit(
                "duplicate", fingerprint=fingerprint, executor=executor_id,
            )
            return

        status = outcome.get("status", "crash")
        if status == "ok":
            self._leases.release(fingerprint)
            self._completed_fps.add(fingerprint)
            # Cancel any reclaim-requeue racing this completion.
            self._pending = [
                p for p in self._pending
                if p.task.task_id != task.task_id
            ]
            entry = self._entry(outcome, executor_id, final=True)
            self._journal_append(entry)
            self._per_executor(executor_id)["ok"] += 1
            first = self._first_claimant.get(fingerprint)
            if first is not None and first != executor_id:
                report.work_stolen += 1
            final = dict(entry)
            final["retries_used"] = int(outcome.get("attempt", 0))
            self._final_by_task[task.task_id] = final
            self._emit(
                "completed",
                fingerprint=fingerprint,
                executor=executor_id,
                epoch=outcome.get("lease_epoch"),
            )
            return

        # A failed attempt.
        self._leases.release(fingerprint, executor_id)
        self._per_executor(executor_id)["failed"] += 1
        self._emit(
            "failed",
            fingerprint=fingerprint,
            executor=executor_id,
            status=status,
            epoch=outcome.get("lease_epoch"),
        )
        key = (
            outcome.get("error_type") if status == "error" else status
        ) or status
        report.taxonomy[key] = report.taxonomy.get(key, 0) + 1
        self._worker_failures[task.task_id] = (
            self._worker_failures.get(task.task_id, 0) + 1
        )
        live_elsewhere = (
            fingerprint in self._leases
            or any(
                p.task.task_id == task.task_id for p in self._pending
            )
        )
        retryable = (
            self._worker_failures[task.task_id]
            <= self.config.retry.max_retries
        )
        if live_elsewhere:
            # The task was already reclaimed and re-granted (or is
            # queued): journal this late failure, but neither retry nor
            # finalize — the live copy owns the task's fate.
            self._journal_append(self._entry(
                outcome, executor_id, final=False,
            ))
            return
        self._journal_append(self._entry(
            outcome, executor_id, final=not retryable,
        ))
        if retryable:
            attempt = self._next_attempt[task.task_id]
            self._next_attempt[task.task_id] = attempt + 1
            report.retries_used += 1
            delay = self.config.retry.delay_s(
                task.fingerprint, self._worker_failures[task.task_id]
            )
            self._pending.append(_Pending(
                task, attempt, self._clock.monotonic() + delay,
            ))
        else:
            final = dict(self._entry(
                outcome, executor_id, final=True,
            ))
            final["retries_used"] = self._worker_failures[task.task_id] - 1
            self._final_by_task[task.task_id] = final

    def _reclaim(self, lease: Lease, why: str) -> None:
        """An executor lost its claim: journal it, steal or finalize."""
        task = self._tasks_by_fp.get(lease.fingerprint)
        if (
            task is None
            or lease.fingerprint in self._completed_fps
            or task.task_id in self._final_by_task
        ):
            return
        # Fence the reclaimed epoch *before* anything else: from this
        # point on, a completion from the old lease holder is a zombie
        # write and must not be accepted, even if it arrives before the
        # re-granted attempt finishes.
        self._fence_by_fp[lease.fingerprint] = max(
            self._fence_by_fp.get(lease.fingerprint, 0), lease.epoch
        )
        report = self._report
        report.leases_reclaimed += 1
        report.taxonomy["executor-lost"] = (
            report.taxonomy.get("executor-lost", 0) + 1
        )
        self._reclaims[task.task_id] = (
            self._reclaims.get(task.task_id, 0) + 1
        )
        retryable = (
            self._reclaims[task.task_id] <= self.config.lease_reclaim_budget
        )
        outcome = dict(
            task_id=task.task_id,
            experiment_id=task.experiment_id,
            fingerprint=lease.fingerprint,
            kwargs=dict(task.kwargs),
            attempt=lease.attempt,
            elapsed_s=0.0,
            status="executor-lost",
            error=why,
            error_type="ExecutorLost",
            lease_epoch=lease.epoch,
        )
        entry = self._entry(outcome, lease.executor_id, final=not retryable)
        self._journal_append(entry)
        self._emit(
            "reclaim",
            fingerprint=lease.fingerprint,
            executor=lease.executor_id,
            epoch=lease.epoch,
            retryable=retryable,
            why=why,
        )
        if retryable:
            # Immediate re-queue: a surviving executor steals the work
            # on the next dispatch round, no backoff — the *task* did
            # nothing wrong.
            attempt = self._next_attempt[task.task_id]
            self._next_attempt[task.task_id] = attempt + 1
            self._pending.append(_Pending(
                task, attempt, self._clock.monotonic(),
            ))
        else:
            final = dict(entry)
            final["retries_used"] = int(
                self._worker_failures.get(task.task_id, 0)
            )
            self._final_by_task[task.task_id] = final

    def _maybe_strand(self, backend: ExecutorBackend) -> bool:
        """Finalize queued tasks that no live executor can ever run.

        Returns True when it stranded anything (the caller skips its
        poll sleep and re-checks the loop condition).  Without this, a
        campaign whose every executor died would spin forever waiting
        for capacity that cannot come back.
        """
        if backend.executors() or len(self._leases) or not self._pending:
            return False
        report = self._report
        for item in self._pending:
            report.taxonomy["executor-lost"] = (
                report.taxonomy.get("executor-lost", 0) + 1
            )
            outcome = dict(
                task_id=item.task.task_id,
                experiment_id=item.task.experiment_id,
                fingerprint=item.task.fingerprint,
                kwargs=dict(item.task.kwargs),
                attempt=item.attempt,
                elapsed_s=0.0,
                status="executor-lost",
                error="no live executor remains to run this task",
                error_type="ExecutorLost",
            )
            entry = self._entry(outcome, executor_id="", final=True)
            self._journal_append(entry)
            self._emit("strand", fingerprint=item.task.fingerprint)
            final = dict(entry)
            final["retries_used"] = int(
                self._worker_failures.get(item.task.task_id, 0)
            )
            self._final_by_task[item.task.task_id] = final
        self._pending = []
        return True

    # -- journal lines -------------------------------------------------------

    def _journal_append(self, entry: Dict[str, Any]) -> None:
        # Every scheduler journal line reflects lease-held work (or a
        # lease reclaim); the custody token travels inside the entry.
        lease_epoch = entry.get("lease_epoch")
        self._journal.append(entry)
        self._emit("journal", entry=entry, lease_epoch=lease_epoch)

    @staticmethod
    def _entry(
        outcome: Dict[str, Any],
        executor_id: str,
        final: bool,
        duplicate: bool = False,
        fenced: bool = False,
    ) -> Dict[str, Any]:
        lease_epoch = outcome.get("lease_epoch")
        return make_entry(
            task_id=outcome["task_id"],
            experiment_id=outcome["experiment_id"],
            fingerprint=outcome["fingerprint"],
            status=outcome["status"],
            attempt=int(outcome.get("attempt", 0)),
            final=final,
            kwargs=outcome.get("kwargs"),
            elapsed_s=outcome.get("elapsed_s", 0.0),
            error=outcome.get("error"),
            error_type=outcome.get("error_type"),
            result=outcome.get("result"),
            oracles=outcome.get("oracles"),
            executor=executor_id or None,
            duplicate=duplicate,
            lease_epoch=(
                int(lease_epoch) if lease_epoch is not None else None
            ),
            fenced=fenced,
        )


def run_campaign(
    tasks: Sequence[CampaignTask],
    config: Optional[CampaignConfig] = None,
    backend: Optional[ExecutorBackend] = None,
) -> CampaignReport:
    """Run *tasks* under supervision; never raises for task failures."""
    return Scheduler(config, backend=backend).run(tasks)

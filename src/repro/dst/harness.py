"""One simulated history, end to end: run, crash, resume, audit.

``run_history(seed)`` builds a virtual world from the seed — clock,
fault schedule, workload — and drives the **real** scheduler, lease
table, journal, protection state machines, and result cache through it:

1. **Campaign segment** — the production :class:`~repro.runner.
   scheduler.Scheduler` runs the DST workload over :class:`~repro.dst.
   fabric.SimFabric` on virtual time, with the :class:`~repro.dst.
   invariants.InvariantChecker` bound as its event hook.  A torn
   journal write (site ``journal``) kills the simulated process
   mid-append; the harness restarts the scheduler with ``--resume``
   over the same journal and the same world — crash recovery inside
   the history.
2. **Convergence segment** — after the faulted campaign completes, a
   fault-free resume must finish every task (no task lost), and a
   second resume must be a pure no-op: all tasks skipped and the
   journal bytes untouched.
3. **Service segment** — the ``service``-site events drive the real
   protection pipeline (:class:`~repro.service.simtransport.
   SimGateway`); breaker transitions and response codes are audited
   against :mod:`repro.oracles.protocol`.
4. **Cache segment** — ``cache``-site events flip a byte in a stored
   result-cache artifact; the cache must quarantine, never serve it.

Everything observable is folded into :class:`HistoryResult`, including
content hashes of the journal bytes and the normalized report — the
bit-identity witnesses ``repro dst --replay`` compares.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.dst.clock import SimClock
from repro.dst.fabric import SimCrash, SimFabric, SimWorld
from repro.dst.invariants import InvariantChecker
from repro.dst.schedule import (
    FaultSchedule,
    PROFILES,
    generate_schedule,
    load_artifact,
    save_artifact,
)
from repro.dst.workload import expected_result, make_tasks
from repro.oracles.protocol import (
    breaker_transition_problems,
    gateway_response_problems,
    journal_protocol_problems,
    report_conservation_problems,
)
from repro.runner.journal import Journal, scan_journal
from repro.runner.scheduler import CampaignConfig, RetryPolicy, run_campaign

#: Hard ceiling on fabric polls per scheduler run — exceeding it means
#: the scheduler livelocked, which is itself a reportable violation.
MAX_POLLS = 60_000

#: Simulated lease TTL (virtual seconds).  Short relative to the
#: fabric's service-time envelope so stalls/partitions expire leases.
LEASE_TTL_S = 0.5


class _SimStuck(Exception):
    """The scheduler failed to make progress within the poll budget."""


class SimJournal(Journal):
    """The real journal, with schedule-addressed torn writes.

    When a ``journal``-site event is due at this append index, the
    line is written *truncated* (no newline, mid-JSON) and
    :class:`~repro.dst.fabric.SimCrash` is raised — exactly what a
    process kill between ``write()`` and completing the line leaves on
    disk.  The harness restarts the scheduler, whose resume path must
    repair and tolerate the torn tail.
    """

    def __init__(self, path: Any, world: SimWorld) -> None:
        super().__init__(path)
        self.world = world

    def append(self, entry: Dict[str, Any]) -> None:
        index = self.world.journal_appends
        self.world.journal_appends += 1
        due = self.world.schedule.fire("journal", index)
        if due:
            from repro.oracles.integrity import attach_crc

            line = json.dumps(
                attach_crc(entry), sort_keys=True, default=str
            ) + "\n"
            # Cut strictly inside the JSON so the leftover line can
            # never parse: torn means torn.
            fraction = max(0.0, min(1.0, due[0].arg))
            cut = max(1, min(len(line) - 2, int(len(line) * fraction)))
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._repair_torn_tail()
                self._handle = open(  # noqa: SIM115
                    self.path, "a", encoding="utf-8"
                )
            self._handle.write(line[:cut])
            self._handle.flush()
            self.close()
            self.world.note(
                f"torn journal write at append {index} (cut {cut} bytes)"
            )
            raise SimCrash(f"torn write at journal append {index}")
        super().append(entry)


class _BoundedFabric(SimFabric):
    """SimFabric that trips the poll ceiling instead of spinning."""

    def poll(self):  # noqa: ANN201 - matches base signature
        if self.world.polls >= MAX_POLLS:
            raise _SimStuck(
                f"scheduler made no terminal progress within "
                f"{MAX_POLLS} simulated polls"
            )
        return super().poll()


@dataclass
class HistoryResult:
    """Everything one simulated history produced."""

    seed: int
    profile: str
    violations: List[str] = field(default_factory=list)
    crashes: int = 0
    n_events: int = 0
    n_polls: int = 0
    sim_time_s: float = 0.0
    n_schedule_events: int = 0
    journal_sha: str = ""
    report_sha: str = ""
    report: Dict[str, Any] = field(default_factory=dict)
    events_log: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        verdict = "ok" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        return (
            f"seed {self.seed} [{self.profile}]: {verdict} — "
            f"{self.n_schedule_events} faults, {self.crashes} crash(es), "
            f"{self.n_polls} polls, t={self.sim_time_s:.1f}s sim"
        )


def _sha256_file(path: Path) -> str:
    if not path.exists():
        return "missing"
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _normalized_report_sha(report_dict: Dict[str, Any]) -> str:
    normalized = dict(report_dict)
    # The journal lives in a per-history scratch directory; its path is
    # host noise, its *contents* are hashed separately.
    normalized.pop("journal_path", None)
    blob = json.dumps(normalized, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _campaign_config(
    journal_path: Path,
    scratch: Path,
    clock: SimClock,
    world: SimWorld,
    checker: Optional[InvariantChecker],
    resume: bool,
) -> CampaignConfig:
    return CampaignConfig(
        workers=2,
        task_timeout_s=6.0,
        retry=RetryPolicy(max_retries=2, backoff_base_s=0.05),
        journal_path=str(journal_path),
        resume=resume,
        scratch_dir=str(scratch),
        poll_interval_s=0.05,
        oracle_mode="off",
        backend="inproc",  # nominal; the SimFabric instance is injected
        lease_ttl_s=LEASE_TTL_S,
        lease_reclaim_budget=4,
        clock=clock,
        event_hook=checker.hook if checker is not None else None,
        journal_factory=lambda path: SimJournal(path, world),
    )


def _run_campaign_segment(
    seed: int,
    schedule: FaultSchedule,
    n_tasks: int,
    journal_path: Path,
    scratch: Path,
    checker: InvariantChecker,
    world: SimWorld,
    n_executors: int,
) -> Dict[str, Any]:
    """Crash/restart loop: returns ``{report, crashes, violations}``."""
    tasks = make_tasks(n_tasks, seed=seed % 997)
    violations: List[str] = []
    crashes = 0
    report = None
    fabric = _BoundedFabric(
        _campaign_config(journal_path, scratch, world.clock, world,
                         checker, resume=False),
        world, n_executors=n_executors,
    )
    max_restarts = len(schedule) + 2
    for incarnation in range(max_restarts):
        config = _campaign_config(
            journal_path, scratch, world.clock, world, checker,
            resume=incarnation > 0,
        )
        fabric.config = config
        try:
            report = run_campaign(tasks, config, backend=fabric)
            break
        except SimCrash:
            crashes += 1
            checker.restart()
            world.note(f"process crash #{crashes}; restarting with resume")
            continue
        except _SimStuck as exc:
            violations.append(f"liveness: {exc}")
            break
    if report is None and not violations:
        violations.append(
            f"history crashed {crashes} times and never completed "
            f"within {max_restarts} restarts"
        )
    return {
        "report": report,
        "tasks": tasks,
        "crashes": crashes,
        "violations": violations,
    }


def _check_campaign(
    result: Dict[str, Any],
    journal_path: Path,
    checker: InvariantChecker,
) -> List[str]:
    """End-of-history audits over the completed campaign segment."""
    violations: List[str] = list(checker.violations)
    report = result["report"]
    if report is None:
        return violations
    tasks = result["tasks"]
    entries, torn, crc_failed = scan_journal(journal_path)
    if torn != result["crashes"]:
        violations.append(
            f"journal integrity: {torn} torn line(s) for "
            f"{result['crashes']} injected mid-write crash(es)"
        )
    if crc_failed:
        violations.append(
            f"journal integrity: {crc_failed} line(s) failed CRC without "
            f"any injected in-line corruption"
        )
    violations.extend(journal_protocol_problems(
        entries, submitted=[t.fingerprint for t in tasks],
    ))
    violations.extend(report_conservation_problems(
        report.to_dict(), len(tasks)
    ))
    # Value integrity: any accepted result must equal the pure
    # recomputation of its task — no matter which incarnation ran it.
    by_fp = {t.fingerprint: t for t in tasks}
    for entry in report.tasks:
        if entry.get("status") != "ok":
            continue
        task = by_fp.get(entry.get("fingerprint"))
        if task is None:
            continue
        expected = expected_result(task.experiment_id, task.kwargs)
        if entry.get("result") != expected:
            violations.append(
                f"value integrity: task {task.task_id} reported "
                f"{entry.get('result')!r}, expected {expected!r}"
            )
    return violations


def _check_convergence(
    result: Dict[str, Any],
    journal_path: Path,
    scratch: Path,
    world: SimWorld,
) -> List[str]:
    """Fault-free resume completes everything; a second one is a no-op."""
    if result["report"] is None:
        return []
    violations: List[str] = []
    tasks = result["tasks"]
    empty = FaultSchedule([])
    for attempt, must_skip_all in ((1, False), (2, True)):
        clock = SimClock()
        quiet = SimWorld(world.seed, empty, clock)
        config = _campaign_config(
            journal_path, scratch, clock, quiet, checker=None, resume=True,
        )
        fabric = _BoundedFabric(config, quiet, n_executors=2)
        sha_before = _sha256_file(journal_path)
        try:
            report = run_campaign(tasks, config, backend=fabric)
        except (_SimStuck, SimCrash) as exc:
            violations.append(
                f"resume convergence: fault-free resume #{attempt} "
                f"did not complete: {exc}"
            )
            return violations
        if report.counts["failed"]:
            violations.append(
                f"resume convergence: resume #{attempt} still has "
                f"{report.counts['failed']} failed task(s)"
            )
        if must_skip_all:
            if report.counts["skipped"] != len(tasks):
                violations.append(
                    f"resume convergence: resume #{attempt} re-ran work "
                    f"({report.counts}) instead of skipping all "
                    f"{len(tasks)} tasks"
                )
            if _sha256_file(journal_path) != sha_before:
                violations.append(
                    "resume convergence: a no-op resume changed the "
                    "journal bytes"
                )
    return violations


def _run_service_segment(
    seed: int, schedule: FaultSchedule, clock: SimClock,
) -> List[str]:
    """Drive the protection pipeline through the ``service`` events."""
    from repro.core.experiments import task_fingerprint
    from repro.service.simtransport import SimGateway

    import random as _random

    gateway = SimGateway()
    rng = _random.Random(f"dst-service:{seed}")
    experiments = ("dst-unit-a", "dst-unit-b", "dst-unit-c")
    fail_budget = 0
    for i in range(40):
        clock.advance(0.1)
        now = clock.monotonic()
        for event in schedule.fire("service", i):
            if event.kind == "svc-backend-fail":
                fail_budget += int(event.arg)
            elif event.kind == "svc-flood":
                flooder = f"client-flood-{i}"
                for _ in range(int(event.arg) * 4):
                    eid = rng.choice(experiments)
                    value = rng.randrange(100)
                    gateway.submit(
                        flooder, eid,
                        task_fingerprint(eid, {"value": value}, None),
                        now, kwargs={"value": value},
                    )
        client = f"client-{i % 3}"
        eid = rng.choice(experiments)
        value = rng.randrange(8)
        fingerprint = task_fingerprint(eid, {"value": value}, None)
        gateway.submit(client, eid, fingerprint, now,
                       kwargs={"value": value})
        if i % 4 == 3:
            gateway.submit(client, "no-such-experiment", "f" * 16, now)
        fail = fail_budget > 0
        if fail:
            fail_budget -= 1
        gateway.backend_turn(now, fail=fail)
        gateway.poll_job(fingerprint, now)
    problems = breaker_transition_problems(gateway.transitions)
    problems += gateway_response_problems(gateway.responses)
    # Liveness: with failures exhausted and time passing, the breaker
    # must eventually let the queue drain.
    for _ in range(200):
        if not gateway.queue:
            break
        clock.advance(0.25)
        gateway.backend_turn(clock.monotonic(), fail=False)
    if gateway.queue:
        problems.append(
            f"service liveness: {len(gateway.queue)} job(s) stuck in "
            f"queue after backend recovered"
        )
    return problems


def _run_cache_segment(
    schedule: FaultSchedule, journal_path: Path, cache_root: Path,
) -> List[str]:
    """``cache-flip`` events corrupt stored artifacts; serving must not."""
    from repro.service.resultcache import ResultCache

    entries, _torn, _crc = scan_journal(journal_path)
    winners = [
        e for e in entries
        if e.get("status") == "ok"
        and not e.get("duplicate") and not e.get("fenced")
    ]
    problems: List[str] = []
    cache = ResultCache(cache_root)
    for i, entry in enumerate(winners):
        fingerprint = entry["fingerprint"]
        try:
            path = cache.store(fingerprint, entry)
        except ValueError as exc:
            problems.append(f"cache refused a winning journal entry: {exc}")
            continue
        flips = schedule.fire("cache", i)
        if flips:
            raw = bytearray(path.read_bytes())
            if raw:
                # Deterministic single-byte corruption, mid-file.
                raw[len(raw) // 2] ^= 0x40
                path.write_bytes(bytes(raw))
            loaded, why = cache.load_verified(fingerprint)
            if loaded is not None:
                problems.append(
                    f"cache served a corrupted artifact for "
                    f"{fingerprint[:12]} (expected quarantine)"
                )
            elif not why.startswith("quarantined"):
                problems.append(
                    f"cache neither served nor quarantined corrupted "
                    f"{fingerprint[:12]}: {why!r}"
                )
        else:
            loaded, why = cache.load_verified(fingerprint)
            if loaded is None:
                problems.append(
                    f"cache failed to serve a clean artifact for "
                    f"{fingerprint[:12]}: {why!r}"
                )
    return problems


def run_history(
    seed: int,
    schedule: Optional[FaultSchedule] = None,
    profile: str = "quick",
    workdir: Optional[Union[str, Path]] = None,
    n_executors: int = 2,
) -> HistoryResult:
    """Run one complete simulated history for *seed*.

    *schedule* defaults to :func:`~repro.dst.schedule.
    generate_schedule` of the seed (pass an explicit one when
    replaying or shrinking).  *workdir* defaults to a throwaway
    temporary directory.
    """
    schedule = schedule if schedule is not None else generate_schedule(
        seed, profile, n_executors=n_executors,
    )
    schedule.reset()
    cleanup = None
    if workdir is None:
        cleanup = tempfile.mkdtemp(prefix="repro-dst-")
        workdir = cleanup
    workdir = Path(workdir)
    journal_path = workdir / "dst-journal.jsonl"
    scratch = workdir / "scratch"
    clock = SimClock()
    world = SimWorld(seed, schedule, clock)
    checker = InvariantChecker()

    result = HistoryResult(
        seed=seed, profile=profile, n_schedule_events=len(schedule),
    )
    try:
        segment = _run_campaign_segment(
            seed, schedule, PROFILES[profile]["n_tasks"],
            journal_path, scratch, checker, world, n_executors,
        )
        result.crashes = segment["crashes"]
        result.violations.extend(segment["violations"])
        result.violations.extend(
            _check_campaign(segment, journal_path, checker)
        )
        result.violations.extend(
            _check_convergence(segment, journal_path, scratch, world)
        )
        result.violations.extend(
            _run_service_segment(seed, schedule, clock)
        )
        result.violations.extend(
            _run_cache_segment(schedule, journal_path, workdir / "cache")
        )
        if segment["report"] is not None:
            result.report = segment["report"].to_dict()
            result.report_sha = _normalized_report_sha(result.report)
        result.journal_sha = _sha256_file(journal_path)
        result.n_events = len(checker.events)
        result.n_polls = world.polls
        result.sim_time_s = round(clock.now, 4)
        result.events_log = list(world.events_log)
    finally:
        if cleanup is not None:
            shutil.rmtree(cleanup, ignore_errors=True)
    return result


def explore(
    n_seeds: int,
    seed_base: int = 0,
    profile: str = "quick",
    artifact_path: Optional[Union[str, Path]] = None,
    on_history: Optional[Callable[[HistoryResult], None]] = None,
    shrink: bool = True,
) -> Dict[str, Any]:
    """Run *n_seeds* histories; shrink + save an artifact on failure.

    Stops at the first violating seed (after shrinking it) so CI fails
    fast with a minimal repro in hand.
    """
    from repro.dst.shrink import shrink_schedule

    explored = 0
    for seed in range(seed_base, seed_base + n_seeds):
        history = run_history(seed, profile=profile)
        explored += 1
        if on_history is not None:
            on_history(history)
        if history.ok:
            continue
        minimal = generate_schedule(seed, profile)
        if shrink:
            minimal, history = shrink_schedule(
                seed, minimal, profile=profile,
            )
        saved = None
        if artifact_path is not None:
            saved = str(save_artifact(
                artifact_path, seed, minimal, profile=profile,
                violations=history.violations,
            ))
        return {
            "ok": False,
            "explored": explored,
            "failing_seed": seed,
            "violations": history.violations,
            "minimal_events": len(minimal),
            "artifact": saved,
        }
    return {
        "ok": True,
        "explored": explored,
        "failing_seed": None,
        "violations": [],
        "minimal_events": 0,
        "artifact": None,
    }


def replay(
    artifact: Union[str, Path], workdir: Optional[Union[str, Path]] = None,
) -> HistoryResult:
    """Re-execute a saved ``(seed, schedule)`` artifact."""
    loaded = load_artifact(artifact)
    return run_history(
        loaded["seed"],
        schedule=loaded["schedule"],
        profile=loaded["profile"],
        workdir=workdir,
    )


__all__ = [
    "HistoryResult",
    "LEASE_TTL_S",
    "MAX_POLLS",
    "SimJournal",
    "explore",
    "replay",
    "run_history",
]

"""Deterministic in-memory executor fabric for the DST harness.

:class:`SimFabric` implements the real
:class:`~repro.runner.backends.ExecutorBackend` interface, so the
*production* scheduler drives it exactly as it drives the subprocess
backends — but every executor is an in-memory record, every task runs
through the same :func:`~repro.runner.backends.inproc.execute_assignment`
path the inproc backend uses, and *when* things happen is dictated by
the virtual clock plus the fault schedule, never by the host.

It is the one simulator of executor faults: the DST harness drives it
from seed-derived schedules, and the scheduler's fault tests
(``tests/test_runner_backends.py``) drive it from hand-written ones.

Faults the fabric realizes (addressed to site ``executor:<slot>``):

* ``crash`` — the incarnation dies, in-flight work vanishes; a new
  incarnation (``sim<slot>.g<n+1>``) comes up next poll.
* ``crash-zombie`` — the incarnation dies, but its in-flight work
  keeps running *as the dead incarnation* and delivers its outcomes
  late, carrying the (now reclaimed) lease epoch — the zombie write
  the fencing tokens exist to reject.
* ``stall`` — renewals stop forever for the current incarnation;
  outcomes keep flowing (a wedged heartbeat thread).
* ``partition`` — renewals *and* outcomes are blackholed for ``arg``
  polls, then flushed all at once (a healing network split).
* ``hang`` — the oldest in-flight task never finishes; it is
  surfaced as a ``timeout`` outcome at its wall-clock deadline.
* ``flaky`` — the next finished task reports a synthetic ``crash``
  instead of its result (exercises retry/backoff).
* ``duplicate`` — the next outcome is delivered twice (a control-plane
  retransmit; same lease epoch both times).

Site ``clock`` carries ``clock-jump`` events: the virtual clock steps
forward by ``arg`` seconds between polls, burning lease TTLs early.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.dst.clock import SimClock
from repro.dst.schedule import FaultSchedule
from repro.runner.backends import Assignment, BackendEvent, ExecutorBackend
from repro.runner.backends.inproc import execute_assignment

#: Virtual seconds one fabric poll advances the world by.
POLL_TICK_S = 0.05

#: Service-time envelope for simulated execution (virtual seconds).
#: The upper end deliberately exceeds the harness's lease TTL so that
#: stalls and partitions reliably expire leases mid-flight.
SERVICE_TIME_RANGE = (0.02, 2.5)

_NEVER = float("inf")


class SimCrash(Exception):
    """The simulated process died mid-write (torn journal append).

    Raised by the harness's :class:`~repro.dst.harness.SimJournal`;
    the harness catches it and restarts the scheduler with
    ``resume=True`` over the same journal file — a crash/recovery cycle
    inside one history.
    """


@dataclass
class _Running:
    assignment: Assignment
    executor_id: str
    finish_at: float
    deadline: float


@dataclass
class _SimExecutor:
    """One executor slot; generations model crash/restart incarnations."""

    slot: int
    generation: int = 0
    stalled: bool = False
    partition_left: int = 0
    blackholed: List[BackendEvent] = field(default_factory=list)
    running: List[_Running] = field(default_factory=list)
    flaky_next: int = 0
    duplicate_next: int = 0

    @property
    def executor_id(self) -> str:
        return f"sim{self.slot}.g{self.generation}"


class SimWorld:
    """Shared mutable state of one simulated history.

    Survives scheduler crash/restart cycles within the history: the
    clock keeps its time, the schedule keeps its fired set, and the
    occurrence counters keep counting — a restart resumes the *world*,
    not just the journal.
    """

    def __init__(
        self, seed: int, schedule: FaultSchedule, clock: SimClock,
    ) -> None:
        self.seed = seed
        self.schedule = schedule
        self.clock = clock
        self.polls = 0
        self.journal_appends = 0
        self.events_log: List[str] = []

    def note(self, what: str) -> None:
        self.events_log.append(f"[t={self.clock.now:.2f}] {what}")


class SimFabric(ExecutorBackend):
    """N simulated executors under one fault schedule."""

    def __init__(
        self, config: Any, world: SimWorld, n_executors: int = 2,
    ) -> None:
        self.name = f"sim:{n_executors}"
        self.config = config
        self.world = world
        self._executors = [_SimExecutor(slot=i) for i in range(n_executors)]
        self._zombies: List[_Running] = []
        self._alive = False

    # -- lifecycle -----------------------------------------------------------

    def start(self, scratch: Path) -> None:
        del scratch
        self._alive = True

    def stop(self) -> None:
        self._alive = False

    def executors(self) -> List[str]:
        if not self._alive:
            return []
        return [ex.executor_id for ex in self._executors]

    # -- scheduling ----------------------------------------------------------

    def _service_time(self, assignment: Assignment) -> float:
        rng = random.Random(
            f"{self.world.seed}:svc:{assignment.fingerprint}"
            f":{assignment.attempt}"
        )
        lo, hi = SERVICE_TIME_RANGE
        return rng.uniform(lo, hi)

    def try_submit(self, assignment: Assignment) -> Optional[str]:
        if not self._alive:
            return None
        # Deterministic placement: least-loaded reachable executor,
        # lowest slot breaking ties.
        candidates = [
            ex for ex in self._executors if ex.partition_left == 0
        ]
        candidates = [
            ex for ex in candidates
            if len(ex.running) < self.config.workers
        ]
        if not candidates:
            return None
        target = min(candidates, key=lambda ex: (len(ex.running), ex.slot))
        now = self.world.clock.now
        target.running.append(_Running(
            assignment=assignment,
            executor_id=target.executor_id,
            finish_at=now + self._service_time(assignment),
            deadline=now + assignment.timeout_s,
        ))
        return target.executor_id

    # -- fault realization ---------------------------------------------------

    def _apply_fault(
        self, ex: _SimExecutor, kind: str, arg: float,
    ) -> Optional[BackendEvent]:
        world = self.world
        if kind in ("crash", "crash-zombie"):
            dead = ex.executor_id
            if kind == "crash-zombie":
                # Work survives its executor's declared death and will
                # report under the dead incarnation's identity.
                self._zombies.extend(ex.running)
            world.note(f"{kind} {dead}")
            ex.running = []
            ex.blackholed = []
            ex.partition_left = 0
            ex.stalled = False
            ex.generation += 1
            return BackendEvent(
                kind="executor-dead", executor=dead,
                detail=f"{kind} (simulated)",
            )
        if kind == "stall":
            ex.stalled = True
            world.note(f"stall {ex.executor_id}")
        elif kind == "partition":
            ex.partition_left = max(ex.partition_left, int(arg))
            world.note(f"partition {ex.executor_id} for {int(arg)} polls")
        elif kind == "hang":
            if ex.running:
                ex.running[0].finish_at = _NEVER
                world.note(
                    f"hang {ex.running[0].assignment.task_id} "
                    f"on {ex.executor_id}"
                )
        elif kind == "flaky":
            ex.flaky_next += 1
            world.note(f"flaky next outcome on {ex.executor_id}")
        elif kind == "duplicate":
            ex.duplicate_next += 1
            world.note(f"duplicate next outcome on {ex.executor_id}")
        return None

    # -- outcome production --------------------------------------------------

    def _finish(self, item: _Running, ex: Optional[_SimExecutor]) -> Dict:
        outcome = execute_assignment(item.assignment)
        if ex is not None and ex.flaky_next > 0:
            ex.flaky_next -= 1
            outcome = dict(
                outcome,
                status="crash",
                error="flaky executor dropped the result (simulated)",
                error_type="WorkerCrash",
            )
            outcome.pop("result", None)
        return outcome

    @staticmethod
    def _timeout_outcome(item: _Running) -> Dict[str, Any]:
        a = item.assignment
        return dict(
            task_id=a.task_id,
            experiment_id=a.experiment_id,
            fingerprint=a.fingerprint,
            kwargs=dict(a.kwargs),
            attempt=a.attempt,
            elapsed_s=a.timeout_s,
            lease_epoch=a.spec.get("lease_epoch"),
            status="timeout",
            error=f"exceeded wall-clock budget of {a.timeout_s:g}s "
                  f"(simulated)",
            error_type="WorkerTimeout",
        )

    def poll(self) -> List[BackendEvent]:
        if not self._alive:
            return []
        world = self.world
        world.polls += 1
        position = world.polls
        world.clock.advance(POLL_TICK_S)

        for event in world.schedule.fire("clock", position):
            world.note(f"clock-jump +{event.arg}s")
            world.clock.jump(event.arg)

        delivered: List[BackendEvent] = []
        for ex in self._executors:
            events: List[BackendEvent] = []
            for fault in world.schedule.fire(f"executor:{ex.slot}",
                                             position):
                dead = self._apply_fault(ex, fault.kind, fault.arg)
                if dead is not None:
                    # Death notices bypass any partition buffer: the
                    # scheduler's transport notices a closed socket
                    # even when the data path is blackholed.
                    delivered.append(dead)
            if not ex.stalled:
                events.append(BackendEvent(
                    kind="renew", executor=ex.executor_id,
                ))
            now = world.clock.now
            still: List[_Running] = []
            for item in ex.running:
                outcome = None
                if now >= item.deadline:
                    outcome = self._timeout_outcome(item)
                elif now >= item.finish_at:
                    outcome = self._finish(item, ex)
                if outcome is None:
                    still.append(item)
                    continue
                copies = 1
                if ex.duplicate_next > 0:
                    ex.duplicate_next -= 1
                    copies = 2
                for _ in range(copies):
                    events.append(BackendEvent(
                        kind="outcome", executor=item.executor_id,
                        outcome=dict(outcome),
                    ))
            ex.running = still

            if ex.partition_left > 0:
                ex.blackholed.extend(events)
                ex.partition_left -= 1
                if ex.partition_left == 0:
                    world.note(f"partition heals on {ex.executor_id}")
                    delivered.extend(ex.blackholed)
                    ex.blackholed = []
            else:
                delivered.extend(events)

        # Zombie work: completes under a dead incarnation's identity,
        # carrying the lease epoch the scheduler has since fenced.
        now = world.clock.now
        still_z: List[_Running] = []
        for item in self._zombies:
            if now >= item.finish_at and item.finish_at != _NEVER:
                world.note(
                    f"zombie outcome {item.assignment.task_id} "
                    f"from {item.executor_id}"
                )
                delivered.append(BackendEvent(
                    kind="outcome", executor=item.executor_id,
                    outcome=self._finish(item, None),
                ))
            elif now < item.deadline:
                still_z.append(item)
        self._zombies = still_z
        return delivered


__all__ = [
    "POLL_TICK_S",
    "SERVICE_TIME_RANGE",
    "SimCrash",
    "SimFabric",
    "SimWorld",
]

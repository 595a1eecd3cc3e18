"""In-process executor backend: synchronous, clock-free, deterministic.

Runs every assignment directly in the scheduler process — no worker
subprocesses, no heartbeat files, no wall clock in the data path — so
scheduler-level behavior (leases, retries, duplicate-completion
idempotence, executor loss and work stealing) can be tested exactly and
fast.  One assignment executes per :meth:`poll`, which gives the
scheduler a dispatch/renew turn between tasks, the same cadence a real
backend produces.

Worker-level chaos directives in the spec are *simulated* (a synthetic
``crash``/``timeout``/``worker-dead``/``corrupt-result`` outcome — the
directive's observable effect, without a process to kill).  Executor-
level chaos from the injector is simulated too:

* ``executor-crash`` — the current executor incarnation drops its
  queued work and is reported dead; a new incarnation
  (``inproc-<g+1>``) comes up, so reclaimed leases have somewhere to be
  work-stolen to.
* ``partition`` — renewals and finished outcomes are buffered for a
  fixed number of polls, then flushed: leases expire mid-blackhole and
  the late flush exercises the duplicate-completion path.
* ``lease-stall`` — renewals stop forever; outcomes keep flowing.

(``duplicate-delivery`` is injected by the *scheduler*, which submits
the same assignment twice — that fault is backend-agnostic.)

``flip-operator`` is ignored here: arming in-memory operator corruption
inside the scheduler process would poison shared cache state; the
subprocess backends cover it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.runner.backends import Assignment, BackendEvent, ExecutorBackend
from repro.runner.worker import resolve_registry

#: Polls a simulated partition blackholes events for.
PARTITION_POLLS = 8

#: Simulated outcomes for worker chaos directives.
_CHAOS_OUTCOMES = {
    "crash": ("crash", "WorkerCrash",
              "worker crashed (simulated by inproc backend)"),
    "hang": ("timeout", "WorkerTimeout",
             "exceeded wall-clock budget (simulated by inproc backend)"),
    "stall": ("worker-dead", "WorkerDead",
              "no heartbeat (simulated by inproc backend)"),
    "corrupt-result": ("corrupt-result", "CorruptResult",
                       "unreadable worker result (simulated by inproc "
                       "backend)"),
}


def execute_assignment(assignment: Assignment) -> Dict[str, Any]:
    """Run one assignment synchronously; returns the attempt outcome.

    The single in-process execution path, shared by
    :class:`InprocBackend` and the deterministic-simulation fabric
    (:mod:`repro.dst.fabric`): chaos directives in the spec become
    synthetic outcomes, everything else goes through the real
    :func:`repro.core.experiments.run_experiment` with the oracle mode
    saved and restored around the call.
    """
    spec = assignment.spec
    common = dict(
        task_id=assignment.task_id,
        experiment_id=assignment.experiment_id,
        fingerprint=assignment.fingerprint,
        seed=assignment.seed,
        kwargs=dict(assignment.kwargs),
        attempt=assignment.attempt,
        elapsed_s=0.0,  # clock-free by design
        lease_epoch=spec.get("lease_epoch"),
    )
    chaos = spec.get("chaos")
    if chaos in _CHAOS_OUTCOMES:
        status, error_type, error = _CHAOS_OUTCOMES[chaos]
        return dict(
            common, status=status, error=error, error_type=error_type,
        )

    from repro.core.experiments import run_experiment
    from repro.oracles.config import get_oracle_config, set_oracle_mode

    previous = get_oracle_config()
    if spec.get("oracle_mode"):
        set_oracle_mode(spec["oracle_mode"])
    try:
        registry = resolve_registry(
            spec.get("registry_spec", "repro.core.experiments:REGISTRY")
        )
        outcome = run_experiment(
            assignment.experiment_id,
            strict=False,
            registry=registry,
            seed=assignment.seed,
            **assignment.kwargs,
        )
    finally:
        set_oracle_mode(previous)
    if outcome.ok:
        return dict(
            common,
            status="ok",
            result=outcome.result,
            oracles=outcome.oracles or {},
        )
    return dict(
        common,
        status="error",
        error=outcome.error,
        error_type=outcome.error_type or "Exception",
        oracles=outcome.oracles or {},
    )


class InprocBackend(ExecutorBackend):
    """Synchronous single-executor backend for deterministic tests."""

    def __init__(self, config: Any) -> None:
        self.name = "inproc"
        self.config = config
        self._queue: List[Assignment] = []
        self._generation = 0
        self._alive = False
        #: Events held back by a simulated partition.
        self._blackholed: List[BackendEvent] = []
        self._partition_left = 0
        self._stalled = False

    # -- lifecycle -----------------------------------------------------------

    def start(self, scratch: Path) -> None:
        del scratch  # nothing to write: execution is in-process
        self._alive = True

    def stop(self) -> None:
        self._alive = False
        self._queue = []
        self._blackholed = []

    @property
    def _executor_id(self) -> str:
        return f"inproc-{self._generation}"

    def executors(self) -> List[str]:
        return [self._executor_id] if self._alive else []

    # -- scheduling ----------------------------------------------------------

    def try_submit(self, assignment: Assignment) -> Optional[str]:
        if not self._alive or len(self._queue) >= self.config.workers:
            return None
        self._queue.append(assignment)
        return self._executor_id

    def poll(self) -> List[BackendEvent]:
        if not self._alive:
            return []
        events: List[BackendEvent] = []

        fault = None
        injector = self.config.injector
        if injector is not None:
            fault = injector.executor_fault(self._executor_id)
        if fault == "executor-crash":
            dead = self._executor_id
            self._generation += 1
            self._queue = []  # in-flight work dies with the incarnation
            self._blackholed = []
            return [BackendEvent(
                kind="executor-dead", executor=dead,
                detail="executor crash (simulated)",
            )]
        if fault == "partition":
            self._partition_left = PARTITION_POLLS
        elif fault == "lease-stall":
            self._stalled = True

        if not self._stalled:
            events.append(
                BackendEvent(kind="renew", executor=self._executor_id)
            )
        if self._queue:
            outcome = self._execute(self._queue.pop(0))
            events.append(BackendEvent(
                kind="outcome", executor=self._executor_id, outcome=outcome,
            ))

        if self._partition_left > 0:
            self._blackholed.extend(events)
            self._partition_left -= 1
            if self._partition_left == 0:
                flushed, self._blackholed = self._blackholed, []
                return flushed
            return []
        return events

    # -- execution -----------------------------------------------------------

    def _execute(self, assignment: Assignment) -> Dict[str, Any]:
        return execute_assignment(assignment)

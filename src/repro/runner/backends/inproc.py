"""In-process executor backend: synchronous, clock-free, deterministic.

Runs every assignment directly in the scheduler process — no worker
subprocesses, no heartbeat files, no wall clock in the data path.  It
is ``repro serve``'s default backend.  One assignment executes per
:meth:`poll`, which gives the scheduler a dispatch/renew turn between
tasks, the same cadence a real backend produces.

It injects no faults: a campaign config pairing it with a fault
injector is rejected.  Executor faults run on the deterministic
simulation fabric (:mod:`repro.dst.fabric`), which executes through
the same :func:`execute_assignment`; real worker faults run on the
``local`` backend.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.runner.backends import Assignment, BackendEvent, ExecutorBackend
from repro.runner.worker import resolve_registry

EXECUTOR_ID = "inproc-0"


def execute_assignment(assignment: Assignment) -> Dict[str, Any]:
    """Run one assignment synchronously; returns the attempt outcome.

    The single in-process execution path, shared by
    :class:`InprocBackend` and the deterministic-simulation fabric
    (:mod:`repro.dst.fabric`): the real
    :func:`repro.core.experiments.run_experiment`, with the oracle mode
    saved and restored around the call.
    """
    spec = assignment.spec
    common = dict(
        task_id=assignment.task_id,
        experiment_id=assignment.experiment_id,
        fingerprint=assignment.fingerprint,
        kwargs=dict(assignment.kwargs),
        attempt=assignment.attempt,
        elapsed_s=0.0,  # clock-free by design
        lease_epoch=spec.get("lease_epoch"),
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
    """One synchronous executor in the scheduler process."""

    def __init__(self, config: Any) -> None:
        self.name = "inproc"
        self.config = config
        self._queue: List[Assignment] = []
        self._alive = False

    # -- lifecycle -----------------------------------------------------------

    def start(self, scratch: Path) -> None:
        del scratch  # nothing to write: execution is in-process
        self._alive = True

    def stop(self) -> None:
        self._alive = False
        self._queue = []

    def executors(self) -> List[str]:
        return [EXECUTOR_ID] if self._alive else []

    # -- scheduling ----------------------------------------------------------

    def try_submit(self, assignment: Assignment) -> Optional[str]:
        if not self._alive or len(self._queue) >= self.config.workers:
            return None
        self._queue.append(assignment)
        return EXECUTOR_ID

    def poll(self) -> List[BackendEvent]:
        if not self._alive:
            return []
        events = [BackendEvent(kind="renew", executor=EXECUTOR_ID)]
        if self._queue:
            outcome = execute_assignment(self._queue.pop(0))
            events.append(BackendEvent(
                kind="outcome", executor=EXECUTOR_ID, outcome=outcome,
            ))
        return events

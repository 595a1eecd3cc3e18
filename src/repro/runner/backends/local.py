"""Local-subprocess executor backend: the classic worker pool.

One executor (``local``) owning ``config.workers`` crash-isolated
worker subprocesses in the scheduler's own process tree — exactly the
execution model the pre-backend supervisor had, now behind the
:class:`~repro.runner.backends.ExecutorBackend` interface.

The executor itself is the scheduler's process, so it cannot die
independently of the campaign; the backend renews its leases on every
poll, and per-worker death (crash, timeout, stalled heartbeat) is
handled *inside* the pool and surfaces as ordinary attempt outcomes.
Scheduler-level lease expiry is a pure backstop here.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, List, Optional

from repro.runner.backends import Assignment, BackendEvent, ExecutorBackend
from repro.runner.pool import WorkerPool

#: The single executor id this backend exposes.
EXECUTOR_ID = "local"


class LocalBackend(ExecutorBackend):
    """Pool of worker subprocesses inside the scheduler process."""

    def __init__(self, config: Any) -> None:
        self.name = "local"
        self.config = config
        self._pool: Optional[WorkerPool] = None

    def start(self, scratch: Path) -> None:
        self._pool = WorkerPool(
            scratch=Path(scratch),
            heartbeat_timeout_s=self.config.heartbeat_timeout_s,
        )

    def stop(self) -> None:
        if self._pool is not None:
            self._pool.kill_all()
            self._pool = None

    def executors(self) -> List[str]:
        return [EXECUTOR_ID] if self._pool is not None else []

    def try_submit(self, assignment: Assignment) -> Optional[str]:
        if self._pool is None or self._pool.running >= self.config.workers:
            return None
        self._pool.launch(assignment.spec, assignment.timeout_s)
        return EXECUTOR_ID

    def poll(self) -> List[BackendEvent]:
        if self._pool is None:
            return []
        outcomes, _beats = self._pool.poll()
        # The local executor is this very process: being here to poll
        # *is* the proof of life, so its leases renew unconditionally
        # (individual worker death already surfaced as an outcome).
        events: List[BackendEvent] = [
            BackendEvent(kind="renew", executor=EXECUTOR_ID)
        ]
        events.extend(
            BackendEvent(kind="outcome", executor=EXECUTOR_ID, outcome=o)
            for o in outcomes
        )
        return events

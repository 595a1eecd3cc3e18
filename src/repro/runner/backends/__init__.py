"""Pluggable executor backends for the campaign scheduler.

The scheduler (:mod:`repro.runner.scheduler`) owns *policy* — the task
queue, the lease table, retries, and the journal.  A backend owns
*mechanism*: it accepts task assignments, runs them somewhere, and
reports events back.  Two implementations ship:

* :class:`~repro.runner.backends.local.LocalBackend` (``local``) — the
  classic pool of crash-isolated worker subprocesses in the scheduler's
  own process tree.
* :class:`~repro.runner.backends.inproc.InprocBackend` (``inproc``) —
  runs experiments synchronously in the scheduler process.  No
  subprocesses, no clocks in the data path, no fault injection: the
  default backend of ``repro serve``.

Executor faults (a whole executor crashing, partitioned or stalling
its renewals) are simulated by :class:`repro.dst.fabric.SimFabric`,
which implements this same interface.

A backend never touches the journal and never decides what a failure
*means* — it reports, the scheduler rules.  All of them speak the same
vocabulary:

* :class:`Assignment` — one attempt of one task, with the fully built
  worker spec.
* :class:`BackendEvent` — ``outcome`` (an attempt finished, here is the
  attempt-outcome dict), ``renew`` (an executor proved itself alive;
  renew its leases), or ``executor-dead`` (an executor is *known* dead;
  reclaim immediately instead of waiting out the lease TTL).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

#: Backend spec strings ``make_backend`` understands.
BACKEND_NAMES = ("local", "inproc")


@dataclass(frozen=True)
class Assignment:
    """One attempt of one task, handed from scheduler to backend.

    Attributes:
        task_id: Campaign task id.
        experiment_id: Registered experiment to run.
        fingerprint: Task fingerprint — the idempotence key.
        kwargs: Experiment keyword arguments.
        attempt: Attempt number (0-based, monotone per task).
        timeout_s: Wall-clock budget for this attempt.
        spec: Complete worker spec (everything
            ``repro.runner.worker`` needs except the scratch-file paths
            the executing pool fills in).
    """

    task_id: str
    experiment_id: str
    fingerprint: str
    kwargs: Dict[str, Any]
    attempt: int
    timeout_s: float
    spec: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class BackendEvent:
    """One thing a backend observed since the last poll.

    Attributes:
        kind: ``"outcome"``, ``"renew"``, or ``"executor-dead"``.
        executor: Executor id the event concerns.
        outcome: Attempt-outcome dict (``kind == "outcome"`` only).
        detail: Human-readable context (``executor-dead`` reason).
    """

    kind: str
    executor: str
    outcome: Optional[Dict[str, Any]] = None
    detail: str = ""


class ExecutorBackend(ABC):
    """Mechanism half of the scheduler/backend split.

    Lifecycle: ``start`` → (``try_submit`` | ``poll``)* → ``stop``.
    ``stop`` must be idempotent and safe after a partial ``start``.
    """

    #: Human-readable backend spec (``local``, ``inproc``).
    name: str = "?"

    @abstractmethod
    def start(self, scratch: Path) -> None:
        """Bring up executors; *scratch* is the campaign scratch dir."""

    @abstractmethod
    def stop(self) -> None:
        """Tear down every executor and release resources."""

    @abstractmethod
    def executors(self) -> List[str]:
        """Ids of currently live executors."""

    @abstractmethod
    def try_submit(self, assignment: Assignment) -> Optional[str]:
        """Accept *assignment* if any executor has capacity.

        Returns the executor id the work was placed on, or None when
        saturated (the scheduler keeps the task queued and retries on
        the next dispatch round).
        """

    @abstractmethod
    def poll(self) -> List[BackendEvent]:
        """Events observed since the last poll; never blocks."""

    def __enter__(self) -> "ExecutorBackend":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()


def parse_backend_spec(spec: str) -> str:
    """Parse a ``--backend`` string (``local`` | ``inproc``) to its name.

    Raises:
        ValueError: unknown name, or an argument after the name.
    """
    name, _, arg = (spec or "local").partition(":")
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown backend {spec!r}; known: {', '.join(BACKEND_NAMES)}"
        )
    if arg:
        raise ValueError(f"backend {name!r} takes no argument, got {spec!r}")
    return name


def make_backend(spec: str, config: Any) -> ExecutorBackend:
    """Build the backend *spec* names, configured from *config*.

    *config* is a :class:`repro.runner.scheduler.CampaignConfig`
    (duck-typed here to keep this package import-light: backends are
    mechanism, the config dataclass lives with the policy layer).
    """
    if parse_backend_spec(spec) == "local":
        from repro.runner.backends.local import LocalBackend

        return LocalBackend(config)
    from repro.runner.backends.inproc import InprocBackend

    return InprocBackend(config)


__all__ = [
    "Assignment",
    "BackendEvent",
    "BACKEND_NAMES",
    "ExecutorBackend",
    "make_backend",
    "parse_backend_spec",
]

"""Pluggable executor backends for the campaign scheduler.

The scheduler (:mod:`repro.runner.scheduler`) owns *policy* — the task
queue, the lease table, retries, and the journal.  A backend owns
*mechanism*: it accepts task assignments, runs them somewhere, and
reports events back.  Three implementations cover the space:

* :class:`~repro.runner.backends.local.LocalBackend` (``local``) — the
  classic pool of crash-isolated worker subprocesses in the scheduler's
  own process tree.
* :class:`~repro.runner.backends.inproc.InprocBackend` (``inproc``) —
  runs experiments synchronously in the scheduler process.  No
  subprocesses, no clocks in the data path: the fast deterministic
  backend for scheduler tests (and chaos *simulation*, including
  duplicate completion delivery).
* :class:`~repro.runner.backends.nodes.NodesBackend` (``nodes:N``) — N
  separate **node** processes, each owning a pool of workers, driven
  over a control socket.  A node stands in for a remote host: it can be
  SIGKILLed, partitioned, or stalled independently of the scheduler,
  which is exactly what the failover tests do.

A backend never touches the journal and never decides what a failure
*means* — it reports, the scheduler rules.  All three speak the same
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

#: Backend spec strings ``make_backend`` understands (``nodes`` takes a
#: ``:N`` suffix).
BACKEND_NAMES = ("local", "inproc", "nodes")


@dataclass(frozen=True)
class Assignment:
    """One attempt of one task, handed from scheduler to backend.

    Attributes:
        task_id: Campaign task id.
        experiment_id: Registered experiment to run.
        fingerprint: Task fingerprint — the idempotence key.
        seed: RNG seed, or None.
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
    seed: Optional[int]
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

    #: Human-readable backend spec (``local``, ``inproc``, ``nodes:2``).
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


def parse_backend_spec(spec: str) -> Dict[str, Any]:
    """Parse a ``--backend`` string: ``local`` | ``inproc`` | ``nodes:N``.

    Raises:
        ValueError: unknown name or malformed node count.
    """
    name, _, arg = (spec or "local").partition(":")
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown backend {spec!r}; known: local, inproc, nodes:N"
        )
    if name == "nodes":
        try:
            n_nodes = int(arg)
        except ValueError:
            raise ValueError(
                f"backend {spec!r}: node count must be an integer"
            ) from None
        if n_nodes < 1:
            raise ValueError(f"backend {spec!r}: need at least one node")
        return {"name": "nodes", "n_nodes": n_nodes}
    if arg:
        raise ValueError(f"backend {name!r} takes no argument, got {spec!r}")
    return {"name": name}


def make_backend(spec: str, config: Any) -> ExecutorBackend:
    """Build the backend *spec* names, configured from *config*.

    *config* is a :class:`repro.runner.scheduler.CampaignConfig`
    (duck-typed here to keep this package import-light: backends are
    mechanism, the config dataclass lives with the policy layer).
    """
    parsed = parse_backend_spec(spec)
    if parsed["name"] == "local":
        from repro.runner.backends.local import LocalBackend

        return LocalBackend(config)
    if parsed["name"] == "inproc":
        from repro.runner.backends.inproc import InprocBackend

        return InprocBackend(config)
    from repro.runner.backends.nodes import NodesBackend

    return NodesBackend(config, n_nodes=parsed["n_nodes"])


__all__ = [
    "Assignment",
    "BackendEvent",
    "BACKEND_NAMES",
    "ExecutorBackend",
    "make_backend",
    "parse_backend_spec",
]

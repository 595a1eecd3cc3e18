"""Lease table: who is allowed to be running which task fingerprint.

The scheduler (:mod:`repro.runner.scheduler`) grants an executor a
**lease** on a task fingerprint before handing it the work.  A lease is
a claim with a deadline: the executor must keep renewing it (its backend
translates heartbeats into renewals) or the scheduler treats the
executor as dead, reclaims the lease, and re-queues the task for a
surviving executor to steal.  Because completions are matched by
fingerprint and resolved first-write-wins in the journal, a reclaimed
task that *both* executors eventually finish is counted exactly once.

This module is deliberately **clock-free**: every method takes the
current time (or a deadline) as a parameter, so the lease state machine
is a pure data structure — trivially testable, and immune to the
wall-clock/monotonic confusion the scheduler exists to avoid.  Callers
use ``time.monotonic()`` values throughout; wall-clock time never enters
the table.

Lease life cycle::

    claim ──▶ ACTIVE ──renew──▶ ACTIVE (deadline pushed out)
                │ │
                │ └──release (outcome arrived) ──▶ gone
                └──deadline passes ──▶ expired() pops it ──▶ reclaimed
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class Lease:
    """One executor's claim on one task fingerprint.

    Attributes:
        fingerprint: Task fingerprint the lease covers (the idempotence
            key: completions are matched on this).
        task_id: Campaign task id, for reports and journal lines.
        executor_id: Executor currently holding the claim.
        attempt: Attempt number the claim was granted for.
        granted_at: Monotonic timestamp of the grant.
        deadline: Monotonic timestamp after which the lease is expired.
        renewals: How many times the lease has been renewed.
        epoch: Fencing token: the grant's position in the fingerprint's
            grant history (1 for the first claim, 2 for the first
            re-grant after a reclaim, ...).  The scheduler stamps the
            epoch into the assignment and rejects completions carrying
            an epoch at or below the last *reclaimed* epoch, so a
            zombie executor's late write can never shadow the result
            of a fresher attempt.
    """

    fingerprint: str
    task_id: str
    executor_id: str
    attempt: int
    granted_at: float
    deadline: float
    renewals: int = 0
    epoch: int = 1


@dataclass
class LeaseTable:
    """All active leases, keyed by fingerprint (one lease per task).

    Attributes:
        ttl_s: Lease time-to-live; ``claim``/``renew`` set the deadline
            to ``now + ttl_s``.
    """

    ttl_s: float = 15.0
    _by_fp: Dict[str, Lease] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.ttl_s <= 0:
            raise ValueError("ttl_s must be positive")

    def claim(
        self,
        fingerprint: str,
        task_id: str,
        executor_id: str,
        attempt: int,
        now: float,
        epoch: int = 1,
    ) -> Lease:
        """Grant *executor_id* a lease on *fingerprint*.

        Raises:
            RuntimeError: the fingerprint is already leased — the
                scheduler must release or expire a claim before
                re-granting it, or two executors would both believe
                they own the task *by design* rather than by partition.
        """
        existing = self._by_fp.get(fingerprint)
        if existing is not None:
            raise RuntimeError(
                f"fingerprint {fingerprint[:12]} already leased to "
                f"{existing.executor_id!r} (attempt {existing.attempt})"
            )
        lease = Lease(
            fingerprint=fingerprint,
            task_id=task_id,
            executor_id=executor_id,
            attempt=attempt,
            granted_at=now,
            deadline=now + self.ttl_s,
            epoch=epoch,
        )
        self._by_fp[fingerprint] = lease
        return lease

    def renew(self, executor_id: str, now: float) -> int:
        """Push out the deadline of every lease *executor_id* holds.

        A renewal is executor-scoped, not task-scoped: one heartbeat
        proves the whole executor alive, so all of its claims stay
        good.  Returns the number of leases renewed.
        """
        renewed = 0
        for lease in self._by_fp.values():
            if lease.executor_id == executor_id:
                lease.deadline = now + self.ttl_s
                lease.renewals += 1
                renewed += 1
        return renewed

    def release(
        self, fingerprint: str, executor_id: Optional[str] = None
    ) -> Optional[Lease]:
        """Drop the lease on *fingerprint*; returns it, or None.

        With *executor_id* given, only a lease held by that executor is
        released — a late completion from a partitioned executor must
        not evict the lease of the executor the task was re-granted to.
        """
        lease = self._by_fp.get(fingerprint)
        if lease is None:
            return None
        if executor_id is not None and lease.executor_id != executor_id:
            return None
        return self._by_fp.pop(fingerprint)

    def expired(self, now: float) -> List[Lease]:
        """Pop and return every lease whose deadline has passed."""
        out = [
            lease for lease in self._by_fp.values() if lease.deadline <= now
        ]
        for lease in out:
            del self._by_fp[lease.fingerprint]
        return out

    def held_by(self, executor_id: str) -> List[Lease]:
        """Every active lease *executor_id* holds."""
        return [
            lease for lease in self._by_fp.values()
            if lease.executor_id == executor_id
        ]

    def evict_executor(self, executor_id: str, now: float) -> List[Lease]:
        """Pop every lease held by a known-dead executor.

        Unlike :meth:`expired`, this does not wait for the TTL: when a
        backend *knows* an executor died (its control socket closed, its
        process was reaped) the scheduler reclaims immediately.  *now*
        is unused but taken for signature symmetry with the other
        transitions (and future grace windows).
        """
        del now
        out = self.held_by(executor_id)
        for lease in out:
            del self._by_fp[lease.fingerprint]
        return out

    def get(self, fingerprint: str) -> Optional[Lease]:
        return self._by_fp.get(fingerprint)

    def __len__(self) -> int:
        return len(self._by_fp)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._by_fp

"""Overload-protection primitives: rate limiting, admission, breaking.

Three small, clock-explicit state machines the service composes into its
backpressure pipeline (see DESIGN.md, "Backpressure state machine"):

* :class:`TokenBucket` / :class:`RateLimiter` — per-client request
  budgets.  A client over budget gets ``429 Too Many Requests`` with a
  ``Retry-After`` computed from the bucket's refill rate, never a
  queued request.
* :class:`AdmissionPolicy` — the bounded job queue's shed rule: admit
  below the watermark, shed ``503`` at or above it.  The queue has a
  hard capacity too, so even a watermark bug cannot grow memory without
  bound.
* :class:`CircuitBreaker` — wraps the executor backend.  Consecutive
  executor losses open the circuit (submissions shed ``503`` instead of
  piling onto a dead backend); after a cooldown one probe job is let
  through half-open, and its verdict closes or re-opens the circuit.

Like :class:`repro.runner.leases.LeaseTable`, nothing here reads a
clock: every transition takes an explicit monotonic ``now``, so unit
tests drive time deterministically and the service's single clock lives
on ``ReproService`` (``service/server.py``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

#: Circuit breaker states.
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"


@dataclass
class TokenBucket:
    """Classic token bucket: ``burst`` capacity refilled at ``rate``/s.

    ``try_take`` either grants the request (returns 0.0) or returns the
    seconds until enough tokens will have accumulated — the value the
    service sends as ``Retry-After``.
    """

    rate: float
    burst: float
    tokens: float = field(default=-1.0)
    updated: float = field(default=-1.0)

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")
        if self.tokens < 0:
            self.tokens = self.burst

    def _refill(self, now: float) -> None:
        if self.updated < 0:
            self.updated = now
        elapsed = max(0.0, now - self.updated)
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self.updated = now

    def try_take(self, now: float, cost: float = 1.0) -> float:
        """Grant *cost* tokens (0.0) or the seconds until they exist."""
        self._refill(now)
        if self.tokens >= cost:
            self.tokens -= cost
            return 0.0
        deficit = cost - self.tokens
        return deficit / self.rate


class RateLimiter:
    """Per-client token buckets with a bounded client table.

    The table is LRU-bounded at ``max_clients`` so an attacker rotating
    client ids cannot grow memory without bound — an evicted client
    simply starts over with a fresh (full) bucket, which only ever errs
    in the client's favor.
    """

    def __init__(
        self, rate: float, burst: float, max_clients: int = 1024
    ) -> None:
        if max_clients < 1:
            raise ValueError("max_clients must be >= 1")
        self.rate = rate
        self.burst = burst
        self.max_clients = max_clients
        self._buckets: "OrderedDict[str, TokenBucket]" = OrderedDict()

    def check(
        self, client: str, now: float, cost: float = 1.0
    ) -> Tuple[bool, float]:
        """``(allowed, retry_after_s)`` for one request from *client*."""
        bucket = self._buckets.get(client)
        if bucket is None:
            bucket = TokenBucket(rate=self.rate, burst=self.burst)
            self._buckets[client] = bucket
            while len(self._buckets) > self.max_clients:
                self._buckets.popitem(last=False)
        else:
            self._buckets.move_to_end(client)
        wait = bucket.try_take(now, cost=cost)
        return (wait == 0.0), wait

    def __len__(self) -> int:
        return len(self._buckets)


@dataclass(frozen=True)
class AdmissionPolicy:
    """Shed rule for the bounded job queue.

    ``depth`` is the queue's hard capacity; ``watermark`` is where
    shedding starts.  The gap between them absorbs the race between an
    admission decision and the enqueue it gates.
    """

    depth: int
    watermark: int

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if not 1 <= self.watermark <= self.depth:
            raise ValueError("watermark must be in [1, depth]")

    def admit(self, queued: int) -> bool:
        """True when a job may be enqueued at the current depth."""
        return queued < self.watermark


class CircuitBreaker:
    """Consecutive-failure circuit breaker around the executor backend.

    States: **closed** (normal; failures counted) → **open** after
    ``failure_threshold`` consecutive backend losses (every caller shed
    until ``reset_after_s`` elapses) → **half-open** (exactly one probe
    admitted; its success closes the circuit, its failure re-opens it
    with a fresh cooldown).  Experiment *errors* are not backend
    failures and must not be recorded here — the breaker protects
    against a dead or partitioned backend, not against bad inputs.
    """

    def __init__(
        self, failure_threshold: int = 3, reset_after_s: float = 5.0
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_after_s <= 0:
            raise ValueError("reset_after_s must be positive")
        self.failure_threshold = failure_threshold
        self.reset_after_s = reset_after_s
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        self.opens = 0
        self._probe_in_flight = False

    def allow(self, now: float) -> bool:
        """May a backend submission proceed right now?"""
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if (
                self.opened_at is not None
                and now - self.opened_at >= self.reset_after_s
            ):
                self.state = HALF_OPEN
                self._probe_in_flight = False
            else:
                return False
        # Half-open: exactly one probe at a time.
        if self._probe_in_flight:
            return False
        self._probe_in_flight = True
        return True

    def record_success(self) -> None:
        """A backend submission completed; close the circuit."""
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at = None
        self._probe_in_flight = False

    def record_failure(self, now: float) -> None:
        """A backend loss; open the circuit at the threshold."""
        self.consecutive_failures += 1
        if (
            self.state == HALF_OPEN
            or self.consecutive_failures >= self.failure_threshold
        ):
            if self.state != OPEN:
                self.opens += 1
            self.state = OPEN
            self.opened_at = now
            self._probe_in_flight = False

    def retry_after(self, now: float) -> float:
        """Seconds until the next half-open probe window."""
        if self.state != OPEN or self.opened_at is None:
            return 0.0
        return max(0.0, self.reset_after_s - (now - self.opened_at))

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready view for ``/healthz`` and ``/stats``."""
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "opens": self.opens,
        }

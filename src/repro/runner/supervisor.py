"""Campaign configuration and report model (policy data, no loop).

Historically this module *was* the campaign runner; the loop now lives
in :mod:`repro.runner.scheduler` (task queue, lease table, retries,
journal authority) with execution delegated to pluggable
:mod:`repro.runner.backends`.  What remains here is the shared
vocabulary both halves speak:

* :class:`RetryPolicy` — bounded retry with deterministic jitter.
* :class:`CampaignConfig` — every knob of one campaign run, including
  which backend executes it (``local`` | ``inproc`` | ``nodes:N``) and
  the lease TTL that governs failover.
* :class:`CampaignReport` — the degraded-but-complete summary, now with
  per-backend accounting (executors lost, leases reclaimed, duplicate
  completions discarded, work stolen).

The loop itself is :func:`repro.runner.scheduler.run_campaign`; this
module never imports the machinery it configures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core.experiments import task_fingerprint
from repro.resilience.faults import FaultInjector


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

    ``backend`` picks the executor backend: ``local`` (subprocess pool),
    ``inproc`` (synchronous, deterministic), or ``nodes:N`` (N node
    processes over a control socket).  ``workers`` is the concurrency
    *per executor*; a ``nodes:3`` campaign with ``workers=2`` runs up to
    6 tasks at once.  ``lease_ttl_s`` is how long a claimed task may go
    without its executor proving itself alive before the scheduler
    reclaims the lease and lets a surviving executor steal the work;
    ``lease_reclaim_budget`` bounds how many times one task may be
    reclaimed before it is finalized as failed.

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
    heartbeat_every_s: float = 0.2
    heartbeat_timeout_s: float = 10.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    journal_path: str = "campaign.jsonl"
    resume: bool = False
    scratch_dir: Optional[str] = None
    injector: Optional[FaultInjector] = None
    poll_interval_s: float = 0.02
    kill_grace_s: float = 1.0
    oracle_mode: str = "sample"
    backend: str = "local"
    lease_ttl_s: float = 15.0
    lease_reclaim_budget: int = 3
    workers_per_node: int = 0  # 0: inherit ``workers``
    clock: Optional[Any] = None
    event_hook: Optional[Callable[[str, Dict[str, Any]], None]] = None
    journal_factory: Optional[Callable[[str], Any]] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.task_timeout_s <= 0:
            raise ValueError("task_timeout_s must be positive")
        if self.heartbeat_timeout_s <= self.heartbeat_every_s:
            raise ValueError(
                "heartbeat_timeout_s must exceed heartbeat_every_s"
            )
        if self.lease_ttl_s <= 0:
            raise ValueError("lease_ttl_s must be positive")
        if self.lease_reclaim_budget < 0:
            raise ValueError("lease_reclaim_budget must be >= 0")
        # Fail on a malformed backend spec at config time, not after
        # the campaign scratch dir is already on disk.
        from repro.runner.backends import parse_backend_spec

        parse_backend_spec(self.backend)


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
    degraded_solves: int = 0
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
        return {
            "tasks": list(self.tasks),
            "counts": dict(self.counts),
            "taxonomy": dict(self.taxonomy),
            "retries_used": self.retries_used,
            "wall_clock_s": self.wall_clock_s,
            "degraded": self.degraded,
            "degraded_solves": self.degraded_solves,
            "journal_path": self.journal_path,
            "resumed_ok": self.resumed_ok,
            "torn_journal_lines": self.torn_journal_lines,
            "corrupt_journal_lines": self.corrupt_journal_lines,
            "stale_resume": self.stale_resume,
            "oracle_checks": self.oracle_checks,
            "oracle_violations": self.oracle_violations,
            "backend": self.backend,
            "executors_lost": self.executors_lost,
            "leases_reclaimed": self.leases_reclaimed,
            "duplicate_completions": self.duplicate_completions,
            "fenced_completions": self.fenced_completions,
            "work_stolen": self.work_stolen,
            "per_executor": {
                executor: dict(counts)
                for executor, counts in self.per_executor.items()
            },
            "backend_tallies": self.backend_tallies(),
        }


def solver_meta_counts(node: Any) -> int:
    """Count the degraded solver-info dicts nested in a result.

    The thermal experiments attach ``{"residual", "method", "degraded"}``
    dicts (see :meth:`ThermalSolution.solver_info`); surfacing them here
    keeps a solve an oracle flagged visible in campaign reports instead
    of silently blending with clean solves.
    """
    if isinstance(node, dict):
        own = {"residual", "method", "degraded"} <= set(node) and bool(
            node["degraded"]
        )
        return int(own) + sum(solver_meta_counts(v) for v in node.values())
    if isinstance(node, (list, tuple)):
        return sum(solver_meta_counts(v) for v in node)
    return 0


def entry_is_stale(entry: Dict[str, Any]) -> bool:
    """A journaled-ok line whose fingerprint belies its own inputs.

    The resume index is keyed on the *stored* fingerprint, so a line
    whose ``fingerprint`` field no longer matches a recomputation over
    its own recorded ``(experiment_id, kwargs, seed)`` would be trusted
    for a task it never actually ran.  Detect and re-run.
    """
    expected = task_fingerprint(
        entry.get("experiment_id", ""),
        entry.get("kwargs") or {},
        entry.get("seed"),
    )
    return expected != entry.get("fingerprint")

"""Job records and single-flight admission for the simulation service.

A **job** is one fingerprint's worth of work: the service keys jobs on
the sha256 task fingerprint over ``(experiment, kwargs)``, so N
concurrent submissions of the same pair **coalesce** onto one record
and exactly one scheduler submission (single-flight).  The job id *is*
the fingerprint — the API is content-addressed end to end.

Lifecycle (see DESIGN.md for the full backpressure state machine)::

    queued --dispatch--> running --ok+verified--> done
      ^                     |                      |
      |   retryable backend loss / verify failure  |
      +--------------------(requeue, bounded)------+
                            |
                            +--budget exhausted--> failed

``done`` is soft: the result of record lives in the
:class:`~repro.service.resultcache.ResultCache`, and every serve
re-verifies it.  A quarantined artifact flips the job back to
``queued`` (the re-run path), so "done" always means "a verified
artifact exists right now".

Every transition is journaled to an append-only, per-line-CRC'd JSONL
file (the same :class:`repro.runner.journal.Journal` machinery the
campaign scheduler trusts), so a crashed service leaves an auditable,
``repro verify``-able trail.  The store itself never reads a clock;
ordering is by a monotone sequence number and timestamps stay out of
the payloads the cache serves.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.runner.journal import Journal

#: Job lifecycle states.
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"
JOB_STATES = (QUEUED, RUNNING, DONE, FAILED)


@dataclass
class Job:
    """One fingerprint's worth of simulation work."""

    fingerprint: str
    experiment_id: str
    kwargs: Dict[str, Any] = field(default_factory=dict)
    registry_spec: str = "repro.core.experiments:REGISTRY"
    state: str = QUEUED
    #: Service-level dispatch attempts (each may wrap scheduler retries).
    attempts: int = 0
    #: Times a submission coalesced onto this in-flight job.
    coalesced: int = 0
    #: Underlying scheduler submissions actually performed — the
    #: single-flight acceptance metric.
    simulations: int = 0
    #: Times this job was re-queued after its artifact was quarantined.
    requeues: int = 0
    error: Optional[str] = None
    error_type: Optional[str] = None

    def public_view(self) -> Dict[str, Any]:
        """JSON shape for polling responses (no result payload)."""
        view = {
            "job_id": self.fingerprint,
            "fingerprint": self.fingerprint,
            "experiment": self.experiment_id,
            "kwargs": dict(self.kwargs),
            "status": self.state,
            "attempts": self.attempts,
        }
        if self.error is not None:
            view["error"] = self.error
            view["error_type"] = self.error_type
        return view


class JobStore:
    """Fingerprint-keyed job table with single-flight semantics.

    Thread-safe: handlers and dispatcher coroutines run on the event
    loop, but job runs return from executor threads, so all mutation
    goes through one lock.  The journal is only ever appended under
    that lock (single writer, as :class:`Journal` requires).
    """

    def __init__(self, journal_path: str) -> None:
        self._jobs: Dict[str, Job] = {}
        self._lock = threading.Lock()
        self._seq = 0
        self._journal = Journal(journal_path)

    # -- single-flight admission ---------------------------------------------

    def get(self, fingerprint: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(fingerprint)

    def get_or_create(
        self,
        fingerprint: str,
        experiment_id: str,
        kwargs: Dict[str, Any],
        registry_spec: str,
    ) -> tuple[Job, bool]:
        """``(job, created)`` — the single-flight gate.

        An existing queued/running job absorbs the submission
        (``coalesced`` incremented, no new work).  A ``done`` or
        ``failed`` job is returned as-is; the caller decides whether a
        failed job earns a fresh attempt.
        """
        with self._lock:
            job = self._jobs.get(fingerprint)
            if job is not None:
                if job.state in (QUEUED, RUNNING):
                    job.coalesced += 1
                return job, False
            job = Job(
                fingerprint=fingerprint,
                experiment_id=experiment_id,
                kwargs=dict(kwargs),
                registry_spec=registry_spec,
            )
            self._next_seq()
            self._jobs[fingerprint] = job
            self._journal_event(job, "submitted")
            return job, True

    def note_coalesced(self, job: Job) -> None:
        """Count one submission absorbed by an in-flight job."""
        with self._lock:
            job.coalesced += 1

    def discard(self, job: Job) -> None:
        """Drop a just-created job that was never admitted (shed).

        Only a still-queued record is removed: a shed submission must
        leave no ghost entry for later submissions to coalesce onto
        (they would wait forever on a queue token that does not exist).
        """
        with self._lock:
            if (
                self._jobs.get(job.fingerprint) is job
                and job.state == QUEUED
            ):
                self._journal_event(job, "shed")
                del self._jobs[job.fingerprint]

    # -- transitions ---------------------------------------------------------

    def mark_running(self, job: Job) -> None:
        with self._lock:
            job.state = RUNNING
            job.attempts += 1
            self._next_seq()
            self._journal_event(job, "started")

    def mark_simulated(self, job: Job) -> None:
        """Count one real scheduler submission (not a coalesced hit)."""
        with self._lock:
            job.simulations += 1

    def mark_done(self, job: Job) -> None:
        with self._lock:
            job.state = DONE
            job.error = job.error_type = None
            self._next_seq()
            self._journal_event(job, "completed")

    def mark_failed(
        self, job: Job, error: str, error_type: str
    ) -> None:
        with self._lock:
            job.state = FAILED
            job.error = error
            job.error_type = error_type
            self._next_seq()
            self._journal_event(job, "failed", error=error)

    def mark_requeued(self, job: Job, why: str) -> None:
        """Back to ``queued`` — a retryable loss or a quarantined artifact."""
        with self._lock:
            job.state = QUEUED
            job.requeues += 1
            self._next_seq()
            self._journal_event(job, "requeued", error=why)

    def reset_for_retry(self, job: Job) -> None:
        """Give a ``failed`` job a fresh service-level budget."""
        with self._lock:
            job.state = QUEUED
            job.attempts = 0
            job.error = job.error_type = None
            self._next_seq()
            self._journal_event(job, "resubmitted")

    # -- bookkeeping ---------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        with self._lock:
            out = dict.fromkeys(JOB_STATES, 0)
            for job in self._jobs.values():
                out[job.state] += 1
            out["total"] = len(self._jobs)
            out["coalesced"] = sum(
                j.coalesced for j in self._jobs.values()
            )
            out["simulations"] = sum(
                j.simulations for j in self._jobs.values()
            )
            out["requeues"] = sum(j.requeues for j in self._jobs.values())
            return out

    def close(self) -> None:
        with self._lock:
            self._journal.close()

    # -- journal -------------------------------------------------------------

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _journal_event(
        self, job: Job, event: str, error: Optional[str] = None
    ) -> None:
        """One CRC'd audit line per transition (lock already held)."""
        line = {
            "v": 1,
            "event": event,
            "fingerprint": job.fingerprint,
            "experiment_id": job.experiment_id,
            "kwargs": dict(job.kwargs),
            "state": job.state,
            "attempt": job.attempts,
            "seq": self._seq,
        }
        if error:
            line["error"] = error
        self._journal.append(line)

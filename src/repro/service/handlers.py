"""Route handlers: the service's four endpoints.

Handlers are synchronous and fast — they parse, consult the job store /
result cache / protection state, and return a :class:`Response`.  All
slow work (the simulations themselves) happens in the dispatcher
(``service/server.py``); a handler never blocks the event loop.

Status-code contract (the chaos acceptance test pins this):

* ``200`` — served: a job view, a verified result, health, or stats.
* ``400`` — the request itself is malformed (bad JSON, unknown
  experiment, non-dict kwargs).
* ``404`` — unknown path or unknown job id.
* ``429`` — the client is over its rate budget (``Retry-After`` set).
* ``503`` — load shed: admission queue over its watermark, circuit
  breaker open, or an internal error absorbed by the guard.  Never a
  ``500`` — under chaos every response is one of the codes above.

The cache-hit path deliberately runs **before** every shed check: a
fingerprint with a verified artifact is served even while the breaker
is open and the queue is full, because serving it costs no backend
work.  That is the degraded-mode guarantee: cached results stay
available bit-identically through a backend partition.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.experiments import task_fingerprint
from repro.service.jobstore import DONE, FAILED
from repro.service.middleware import Request, Response, shed

#: Retry-After hint for queue sheds (breaker sheds compute theirs).
RETRY_AFTER_S = 1.0


def _bump(stats: Dict[str, int], key: str) -> None:
    stats[key] = stats.get(key, 0) + 1


def _result_payload(entry: Dict[str, Any]) -> Dict[str, Any]:
    """The served form of a verified cache entry.

    Built exclusively from the immutable stored entry — never from live
    job state — so every serve of one fingerprint yields byte-identical
    JSON.
    """
    return {
        "job_id": entry.get("fingerprint"),
        "fingerprint": entry.get("fingerprint"),
        "status": "done",
        "experiment": entry.get("experiment_id"),
        "kwargs": entry.get("kwargs") or {},
        "seed": entry.get("seed"),
        "attempt": entry.get("attempt", 0),
        "result": entry.get("result") or {},
        "oracles": entry.get("oracles") or {},
        "cached": True,
    }


def _parse_submission(app: Any, request: Request) -> Dict[str, Any]:
    """Validate a POST /jobs body; raises ValueError with the 400 text."""
    body = request.json()
    if not isinstance(body, dict):
        raise ValueError("request body must be a JSON object")
    experiment_id = body.get("experiment")
    if not isinstance(experiment_id, str) or not experiment_id:
        raise ValueError("'experiment' must be a non-empty string")
    known = app.registry.list()
    if experiment_id not in known:
        raise ValueError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        )
    kwargs = body.get("kwargs") or {}
    if not isinstance(kwargs, dict) or any(
        not isinstance(k, str) for k in kwargs
    ):
        raise ValueError("'kwargs' must be an object with string keys")
    seed = body.get("seed")
    if seed is not None and not isinstance(seed, int):
        raise ValueError("'seed' must be an integer or null")
    return {"experiment": experiment_id, "kwargs": kwargs, "seed": seed}


def handle_submit(app: Any, request: Request, now: float) -> Response:
    """POST /jobs — admit (or coalesce, or serve-from-cache) one job."""
    try:
        sub = _parse_submission(app, request)
    except ValueError as exc:
        _bump(app.stats, "bad_requests")
        return Response(400, {"error": str(exc)})
    fingerprint = task_fingerprint(
        sub["experiment"], sub["kwargs"], sub["seed"]
    )

    # Cache first: a verified artifact is served unconditionally — no
    # rate-limited backend, open breaker, or full queue can block a
    # result that costs no new work.
    entry, why = app.cache.load_verified(fingerprint)
    if entry is not None:
        _bump(app.stats, "cache_hits")
        app.note_done_from_cache(fingerprint, entry)
        return Response(200, _result_payload(entry))
    if why.startswith("quarantined"):
        _bump(app.stats, "verify_failures")

    existing = app.jobs.get(fingerprint)
    if existing is not None and existing.state not in (DONE, FAILED):
        # Single-flight: this submission coalesces onto in-flight work
        # (and is never shed — it costs no new backend work).
        app.jobs.note_coalesced(existing)
        _bump(app.stats, "coalesced")
        return Response(200, existing.public_view())

    # New work (a fresh job, a failed job resubmitted, or a done job
    # whose artifact was just quarantined) must pass the shed gates
    # BEFORE any record is created: a shed submission must leave no
    # ghost job for later submissions to coalesce onto.
    response = _admission_shed(app, now)
    if response is not None:
        return response
    job, created = app.jobs.get_or_create(
        fingerprint,
        sub["experiment"],
        sub["kwargs"],
        sub["seed"],
        app.registry_spec,
    )
    if not created:
        if job.state == FAILED:
            app.jobs.reset_for_retry(job)
        elif job.state == DONE:  # artifact failed verification above
            app.jobs.mark_requeued(job, why)
    if not app.enqueue(job):
        _bump(app.stats, "shed_queue")
        if created:
            app.jobs.discard(job)
        else:
            app.jobs.mark_failed(job, "admission queue full", "Shed")
        return shed(503, "admission queue is full", RETRY_AFTER_S)
    _bump(app.stats, "admitted")
    return Response(200, job.public_view())


def _admission_shed(app: Any, now: float) -> Optional[Response]:
    """503 when new backend work may not be admitted, else None."""
    retry_after_s = app.breaker.retry_after(now)
    if retry_after_s > 0:
        _bump(app.stats, "shed_breaker")
        return shed(
            503,
            "circuit breaker is open: the executor backend is losing "
            "executors; cached fingerprints are still served",
            retry_after_s,
        )
    if not app.policy.admit(app.queue_depth()):
        _bump(app.stats, "shed_queue")
        return shed(
            503,
            "admission queue is over its load-shedding watermark",
            RETRY_AFTER_S,
        )
    return None


def handle_job_get(app: Any, job_id: str, now: float) -> Response:
    """GET /jobs/{id} — poll one job; id is the task fingerprint."""
    entry, why = app.cache.load_verified(job_id)
    if entry is not None:
        _bump(app.stats, "cache_hits")
        # A warm cache outlives job records (service restart): the
        # artifact alone is authoritative.
        app.note_done_from_cache(job_id, entry)
        return Response(200, _result_payload(entry))
    job = app.jobs.get(job_id)
    if job is None:
        return Response(404, {"error": f"unknown job {job_id!r}"})
    if job.state == DONE:
        # Done, but the artifact just failed verification (the cache
        # quarantined it above) or vanished: re-run rather than serve.
        _bump(app.stats, "verify_failures")
        app.jobs.mark_requeued(job, why)
        if not app.enqueue(job):
            # The job must not linger queued with no queue token (it
            # would never run): finalize, so a later POST retries it.
            _bump(app.stats, "shed_queue")
            app.jobs.mark_failed(
                job,
                "artifact quarantined and the re-run queue is full",
                "Shed",
            )
            return shed(
                503,
                "artifact quarantined and the re-run queue is full; "
                "retry shortly",
                RETRY_AFTER_S,
            )
        view = job.public_view()
        view["requeued"] = True
        return Response(200, view)
    return Response(200, job.public_view())


def handle_healthz(app: Any, now: float) -> Response:
    """GET /healthz — liveness plus the protection state at a glance."""
    return Response(200, {
        "ok": True,
        "breaker": app.breaker.snapshot(),
        "queue_depth": app.queue_depth(),
        "jobs": app.jobs.counts(),
    })


def handle_stats(app: Any, now: float) -> Response:
    """GET /stats — every counter the service keeps, JSON-stable."""
    return Response(200, app.stats_snapshot(now))


def route(app: Any, request: Request, now: float) -> Response:
    """Dispatch one parsed request to its handler (404 otherwise)."""
    method, path = request.method, request.path.rstrip("/") or "/"
    if method == "POST" and path == "/jobs":
        return handle_submit(app, request, now)
    if method == "GET" and path.startswith("/jobs/"):
        job_id = path[len("/jobs/"):]
        if job_id and "/" not in job_id:
            return handle_job_get(app, job_id, now)
    if method == "GET" and path == "/healthz":
        return handle_healthz(app, now)
    if method == "GET" and path == "/stats":
        return handle_stats(app, now)
    return Response(404, {"error": f"no route for {method} {request.path}"})

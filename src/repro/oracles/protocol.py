"""Protocol invariants for the distributed stack, as pure predicates.

These are the safety properties the deterministic-simulation harness
(:mod:`repro.dst`) asserts after every simulated event, written as
side-effect-free functions over plain data so they can also be applied
to a real campaign journal after the fact.  Each returns a list of
human-readable violation strings — empty means the history is legal.

The properties:

* **At-most-once accounting** — for every fingerprint, at most one
  journal ``ok`` line is *accepted* (non-duplicate, non-fenced).  Two
  accepted ``ok`` lines would double-count the result.
* **Fencing** — an accepted ``ok`` must carry a lease epoch strictly
  above every epoch the scheduler reclaimed for that fingerprint
  beforehand.  A zombie executor's late write sneaking past the fence
  is exactly the bug lease epochs exist to stop.
* **No task lost** — every submitted fingerprint reaches a final
  verdict (an accepted ``ok`` or a ``final`` failure line).
* **State-machine legality** — the circuit breaker only makes
  transitions its specification allows.
* **Service contract** — every answer the service gives is one of the
  advertised status codes, and every shed carries ``Retry-After``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

#: Legal (event, state-before) -> state-after transitions for
#: :class:`repro.service.protection.CircuitBreaker`.  ``success`` closes
#: from *any* state (record_success is unconditional by design — a
#: probe that succeeds proves the backend healthy).  ``failure`` opens
#: from any state once the threshold trips, or leaves the breaker
#: closed while under it; an open breaker stays open until its reset
#: window elapses, after which ``allow`` half-opens it.
_BREAKER_LEGAL = {
    ("success", "closed"): {"closed"},
    ("success", "open"): {"closed"},
    ("success", "half-open"): {"closed"},
    ("failure", "closed"): {"closed", "open"},
    ("failure", "open"): {"open"},
    ("failure", "half-open"): {"open"},
    ("allow", "closed"): {"closed"},
    ("allow", "open"): {"open", "half-open"},
    ("allow", "half-open"): {"half-open"},
}

#: Status codes ``ReproService.handle`` may return (``408`` is not
#: among them: only the socket reader produces it).
SERVICE_STATUSES = frozenset({200, 400, 404, 429, 503})


def journal_protocol_problems(
    entries: Sequence[Mapping[str, Any]],
    submitted: Optional[Iterable[str]] = None,
) -> List[str]:
    """Violations of at-most-once + fencing over journal *entries*.

    Walks the journal in write order, tracking per fingerprint the
    fence (highest lease epoch seen on a reclaim — an
    ``executor-lost`` line) and the accepted winners.  *submitted*, when
    given, is the set of fingerprints that must reach a final verdict
    (the no-task-lost check).
    """
    problems: List[str] = []
    fence: Dict[str, int] = {}
    accepted_ok: Dict[str, int] = {}
    finalized: set = set()
    for i, entry in enumerate(entries):
        fp = str(entry.get("fingerprint", ""))
        status = entry.get("status")
        epoch = entry.get("lease_epoch")
        where = f"journal line {i} (fp {fp[:12]})"
        if entry.get("final"):
            finalized.add(fp)
        if status == "executor-lost" and epoch is not None:
            fence[fp] = max(fence.get(fp, 0), int(epoch))
            continue
        if status != "ok":
            continue
        if entry.get("fenced"):
            # Audit line for a rejected zombie write: it must actually
            # be behind the fence, or fencing fired spuriously.
            if epoch is not None and int(epoch) > fence.get(fp, 0):
                problems.append(
                    f"{where}: journaled fenced but its epoch {epoch} is "
                    f"above the fence {fence.get(fp, 0)}"
                )
            continue
        if entry.get("duplicate"):
            continue
        # An accepted ok.
        if epoch is not None and int(epoch) <= fence.get(fp, 0):
            problems.append(
                f"{where}: accepted ok carries epoch {epoch} at or below "
                f"the fence {fence[fp]} — a zombie write was counted"
            )
        accepted_ok[fp] = accepted_ok.get(fp, 0) + 1
        if accepted_ok[fp] > 1:
            problems.append(
                f"{where}: fingerprint has {accepted_ok[fp]} accepted ok "
                f"lines — the result was double-counted"
            )
    if submitted is not None:
        for fp in submitted:
            if fp not in accepted_ok and fp not in finalized:
                problems.append(
                    f"fingerprint {fp[:12]}: submitted but never reached "
                    f"a final verdict — the task was lost"
                )
    return problems


def report_conservation_problems(
    report_dict: Mapping[str, Any], n_tasks: int
) -> List[str]:
    """Every submitted task is counted exactly once in the report."""
    problems: List[str] = []
    counts = report_dict.get("counts", {})
    # ``skipped`` (resume hits) is a subset of ``ok``, not disjoint
    # from it, so the partition of submitted tasks is ok + failed.
    total = int(counts.get("ok", 0)) + int(counts.get("failed", 0))
    if total != n_tasks:
        problems.append(
            f"report conservation: ok+failed = {total}, "
            f"but {n_tasks} tasks were submitted"
        )
    if int(counts.get("skipped", 0)) > int(counts.get("ok", 0)):
        problems.append(
            f"report conservation: skipped ({counts.get('skipped')}) "
            f"exceeds ok ({counts.get('ok')})"
        )
    tasks = report_dict.get("tasks", [])
    if len(tasks) != n_tasks:
        problems.append(
            f"report lists {len(tasks)} task verdicts for "
            f"{n_tasks} submitted tasks"
        )
    seen: set = set()
    for entry in tasks:
        fp = entry.get("fingerprint")
        if fp in seen:
            problems.append(
                f"report verdicts contain fingerprint {str(fp)[:12]} twice"
            )
        seen.add(fp)
    return problems


def breaker_transition_problems(
    transitions: Sequence[Sequence[Any]],
) -> List[str]:
    """Illegal circuit-breaker transitions in ``(event, before, after)``
    triples recorded by DST's audited breaker."""
    problems: List[str] = []
    for i, (event, before, after) in enumerate(transitions):
        legal = _BREAKER_LEGAL.get((event, before))
        if legal is None:
            problems.append(
                f"breaker transition {i}: unknown (event={event!r}, "
                f"state={before!r})"
            )
        elif after not in legal:
            problems.append(
                f"breaker transition {i}: {before!r} --{event}--> "
                f"{after!r} is illegal (allowed: {sorted(legal)})"
            )
    return problems


def service_response_problems(responses: Sequence[Any]) -> List[str]:
    """Service answers (objects with ``status`` and ``headers``) stay
    inside the advertised contract: a known status, and a
    ``Retry-After`` on every 429 and 503."""
    problems: List[str] = []
    for i, resp in enumerate(responses):
        if resp.status not in SERVICE_STATUSES:
            problems.append(
                f"service response {i}: status {resp.status!r} is outside "
                f"the advertised set {sorted(SERVICE_STATUSES)}"
            )
        if resp.status in (429, 503) and "retry-after" not in resp.headers:
            problems.append(
                f"service response {i}: {resp.status} shed without a "
                f"Retry-After header"
            )
    return problems


__all__ = [
    "SERVICE_STATUSES",
    "breaker_transition_problems",
    "journal_protocol_problems",
    "report_conservation_problems",
    "service_response_problems",
]

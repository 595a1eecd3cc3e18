"""Render a campaign report (``repro sweep``) for humans.

Takes the plain-dict form of
:class:`repro.runner.scheduler.CampaignReport` (``report.to_dict()``)
so this module stays import-independent of the runner — analysis renders
data, it does not orchestrate.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.analysis.tables import format_table

#: Status glyphs for the per-task table.
_GLYPHS = {
    "ok": "ok",
    "error": "ERR",
    "crash": "CRASH",
    "timeout": "TIMEOUT",
    "worker-dead": "DEAD",
    "corrupt-result": "CORRUPT",
    "executor-lost": "LOST",
}


def render_campaign_report(report: Dict[str, Any]) -> str:
    """Human-readable campaign summary: per-task table + verdict.

    A degraded campaign still renders completely — that is the point:
    partial failure produces a report, not an exception.
    """
    lines: List[str] = []
    tasks = report.get("tasks", [])
    rows = []
    for task in tasks:
        status = task.get("status", "?")
        note = ""
        if task.get("resumed"):
            note = "resumed from journal"
        elif status != "ok":
            note = f"{task.get('error_type') or ''}: {task.get('error') or ''}"
            note = note.strip(": ")[:60]
        rows.append([
            task.get("task_id", "?"),
            _GLYPHS.get(status, status),
            str(task.get("attempt", 0) + 1),
            f"{float(task.get('elapsed_s') or 0.0):.2f}s",
            note,
        ])
    lines.append(format_table(
        ["task", "status", "attempts", "elapsed", "notes"],
        rows,
        title="Campaign results",
    ))

    counts = report.get("counts", {})
    lines.append("")
    lines.append(
        f"tasks: {counts.get('ok', 0)} ok, {counts.get('failed', 0)} failed"
        + (f", {counts.get('skipped', 0)} resumed"
           if counts.get("skipped") else "")
    )
    taxonomy = report.get("taxonomy", {})
    if taxonomy:
        failures = ", ".join(
            f"{name}: {count}" for name, count in sorted(taxonomy.items())
        )
        lines.append(f"failure taxonomy (all attempts): {failures}")
    if report.get("retries_used"):
        lines.append(f"retries used: {report['retries_used']}")
    if report.get("degraded_solves"):
        lines.append(
            f"thermal solves: {report['degraded_solves']} degraded "
            f"(an oracle flagged the field)"
        )
    if report.get("torn_journal_lines") or report.get("corrupt_journal_lines"):
        lines.append(
            f"journal: {report.get('torn_journal_lines', 0)} torn line(s), "
            f"{report.get('corrupt_journal_lines', 0)} CRC-failed line(s) "
            f"skipped on resume"
        )
    if report.get("stale_resume"):
        lines.append(
            f"resume: {report['stale_resume']} journaled-ok entr(ies) had "
            f"a fingerprint/input mismatch and were re-run"
        )
    if report.get("oracle_checks") or report.get("oracle_violations"):
        lines.append(
            f"oracles: {report.get('oracle_checks', 0)} checks, "
            f"{report.get('oracle_violations', 0)} violation(s)"
        )
    backend = report.get("backend", "local")
    failover_bits = []
    if report.get("executors_lost"):
        failover_bits.append(f"{report['executors_lost']} executor(s) lost")
    if report.get("leases_reclaimed"):
        failover_bits.append(
            f"{report['leases_reclaimed']} lease(s) reclaimed"
        )
    if report.get("work_stolen"):
        failover_bits.append(f"{report['work_stolen']} task(s) work-stolen")
    if report.get("duplicate_completions"):
        failover_bits.append(
            f"{report['duplicate_completions']} duplicate completion(s) "
            f"discarded"
        )
    lines.append(
        f"backend: {backend}"
        + (f" — {', '.join(failover_bits)}" if failover_bits else "")
    )
    per_executor = report.get("per_executor", {})
    if len(per_executor) > 1 or failover_bits:
        for executor, tallies in sorted(per_executor.items()):
            lines.append(
                f"  {executor}: {tallies.get('ok', 0)} ok, "
                f"{tallies.get('failed', 0)} failed, "
                f"{tallies.get('duplicates', 0)} duplicate(s)"
            )
    lines.append(f"wall clock: {report.get('wall_clock_s', 0.0):.2f}s")
    if report.get("degraded"):
        if report.get("executors_lost") and not counts.get("failed"):
            lines.append(
                "verdict: DEGRADED — campaign completed (surviving "
                "executors stole the orphaned work), but an executor was "
                "lost mid-campaign; results are complete and journaled"
            )
        elif report.get("oracle_violations") and not counts.get("failed"):
            lines.append(
                "verdict: DEGRADED — campaign completed, but runtime "
                "oracles detected corruption and fell back to reference "
                "paths (see oracle counts above)"
            )
        else:
            lines.append(
                "verdict: DEGRADED — campaign completed, but some tasks "
                "exhausted their retry budget (see table); re-run failures "
                f"with --resume --journal {report.get('journal_path', '?')}"
            )
    else:
        lines.append("verdict: OK — every task completed")
    return "\n".join(lines)

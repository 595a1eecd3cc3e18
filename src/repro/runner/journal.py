"""Append-only JSONL result journal for resumable campaigns.

One line per *attempt outcome*, written with a single ``write()`` on a
file opened in append mode and fsynced, so a campaign killed mid-write
leaves at most one torn trailing line — which :func:`read_journal`
tolerates and reports instead of refusing the whole file.  Resume
(:func:`completed_fingerprints`) replays the journal and skips any task
whose exact fingerprint (experiment id + kwargs) already has an
``ok`` entry; failed tasks are re-run.

Every line written carries a crc32 over its canonical JSON encoding
(the ``crc`` key, see :mod:`repro.oracles.integrity`), so a bit flipped
*inside* a line — which still parses as valid JSON — is detected on
read instead of silently resuming from a corrupted result.  CRC-failed
lines are dropped and counted (:func:`scan_journal`), which makes the
scheduler re-run the affected task.  Lines without a ``crc`` key
(pre-oracles journals) are accepted unchecked.
"""

from __future__ import annotations

import io
import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.oracles.integrity import attach_crc, verify_entry_crc

#: Journal line format version; bump on incompatible schema changes.
JOURNAL_VERSION = 1

#: Attempt outcomes a journal line may carry.  ``ok`` and ``error`` come
#: from inside the worker (the experiment ran to a verdict); the rest
#: are verdicts the pool or the scheduler reaches about the worker.
STATUSES = (
    "ok",            # experiment completed, result captured
    "error",         # experiment raised; structured error captured
    "crash",         # worker exited abnormally / produced no result
    "timeout",       # worker exceeded the wall-clock budget and was killed
    "worker-dead",   # heartbeat stopped; worker killed by the watchdog
    "corrupt-result",  # worker's result file was unreadable garbage
    "executor-lost",  # executor holding the lease died/stalled; reclaimed
)

PathLike = Union[str, Path]


def make_entry(
    task_id: str,
    experiment_id: str,
    fingerprint: str,
    status: str,
    attempt: int,
    final: bool,
    *,
    kwargs: Optional[Dict[str, Any]] = None,
    elapsed_s: float = 0.0,
    error: Optional[str] = None,
    error_type: Optional[str] = None,
    result: Optional[Dict[str, Any]] = None,
    oracles: Optional[Dict[str, Any]] = None,
    executor: Optional[str] = None,
    duplicate: bool = False,
    lease_epoch: Optional[int] = None,
    fenced: bool = False,
) -> Dict[str, Any]:
    """Build one schema-checked journal line.

    ``executor`` records which executor produced the attempt (backend
    accounting/forensics).  ``duplicate=True`` marks an audit line for a
    completion that arrived *after* another executor's ``ok`` already
    won the fingerprint — journaled for the record, excluded from
    resume (see :func:`completed_fingerprints`) and aggregation.
    ``lease_epoch`` is the fencing token the attempt ran under (the
    grant's position in the fingerprint's grant history); ``fenced=True``
    marks an audit line for a completion the scheduler *rejected*
    because its lease epoch was at or below the last reclaimed epoch —
    a zombie executor's late write, recorded but never resumed from.
    """
    if status not in STATUSES:
        raise ValueError(f"unknown journal status {status!r}; known: {STATUSES}")
    entry = {
        "v": JOURNAL_VERSION,
        "task_id": task_id,
        "experiment_id": experiment_id,
        "fingerprint": fingerprint,
        "kwargs": dict(kwargs or {}),
        "status": status,
        "attempt": attempt,
        "final": final,
        "elapsed_s": elapsed_s,
        "error": error,
        "error_type": error_type,
        "result": result if result is not None else {},
    }
    if executor:
        entry["executor"] = executor
    if duplicate:
        entry["duplicate"] = True
    if lease_epoch is not None:
        entry["lease_epoch"] = int(lease_epoch)
    if fenced:
        entry["fenced"] = True
    if oracles:
        entry["oracles"] = oracles
    return entry


class Journal:
    """Single-writer append-only JSONL journal.

    Only the scheduler writes the journal (workers hand results back
    through per-task scratch files), so append-mode writes need no lock.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self._handle: Optional[io.TextIOWrapper] = None

    def append(self, entry: Dict[str, Any]) -> None:
        """Append one entry as a single atomic-enough write + fsync.

        The entry's per-line crc32 is (re)computed here so the stored
        CRC always covers exactly the bytes written.
        """
        line = json.dumps(attach_crc(entry), sort_keys=True, default=str)
        if "\n" in line:  # defensive: JSONL invariant
            line = line.replace("\n", " ")
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            existed = self.path.exists()
            # A run killed mid-write leaves a torn final line with no
            # newline; appending straight after it would weld this entry
            # onto the torn tail and lose BOTH (the merged line parses as
            # neither).  Terminate the tail first so only the torn line
            # is sacrificed.
            self._repair_torn_tail()
            # long-lived handle by design; closed in close()
            self._handle = open(  # noqa: SIM115
                self.path, "a", encoding="utf-8"
            )
            if not existed:
                # fsyncing the file persists its *bytes*; whether the
                # file has a name at all lives in the directory.  A
                # crash between create and directory flush loses the
                # whole journal despite every per-line fsync.
                self._fsync_dir(self.path.parent)
        self._handle.write(line + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    @staticmethod
    def _fsync_dir(directory: Path) -> None:
        """Flush a directory entry; best-effort where unsupported."""
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:
            return  # e.g. platforms that cannot open directories
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def _repair_torn_tail(self) -> None:
        """Newline-terminate the file if its last byte is not ``\\n``."""
        try:
            size = self.path.stat().st_size
        except FileNotFoundError:
            return
        if size == 0:
            return
        with open(self.path, "rb+") as handle:
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                handle.write(b"\n")
                handle.flush()
                os.fsync(handle.fileno())
                # The repair rewrote the tail; make sure the directory
                # entry (size/metadata journaling on some filesystems)
                # is durable too before new lines land after it.
                self._fsync_dir(self.path.parent)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def scan_journal(
    path: PathLike,
) -> Tuple[List[Dict[str, Any]], int, int]:
    """Read every verifiable entry; returns ``(entries, torn, crc_failed)``.

    Unparseable lines (a kill mid-append, disk-full truncation) are
    counted as *torn*, not fatal: a resumable journal must survive
    exactly the failures it exists to record.  Entries from a future
    format version are also skipped and counted as torn.  Lines that
    parse but fail their per-line CRC — a bit flip *inside* the JSON —
    are dropped and counted as *crc_failed* so the caller re-runs the
    task instead of trusting a corrupted record.
    """
    entries: List[Dict[str, Any]] = []
    torn = 0
    crc_failed = 0
    path = Path(path)
    if not path.exists():
        return entries, torn, crc_failed
    # errors="replace": a bit flip can leave bytes that are not valid
    # UTF-8; the replacement char then fails JSON parsing (torn) or the
    # per-line CRC (crc_failed) for that one line instead of aborting
    # the whole scan with UnicodeDecodeError.
    with open(path, encoding="utf-8", errors="replace") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                torn += 1
                continue
            if not isinstance(entry, dict) or "fingerprint" not in entry:
                torn += 1
                continue
            if entry.get("v", 0) > JOURNAL_VERSION:
                torn += 1
                continue
            if not verify_entry_crc(entry):
                crc_failed += 1
                continue
            entries.append(entry)
    return entries, torn, crc_failed


def read_journal(path: PathLike) -> Tuple[List[Dict[str, Any]], int]:
    """Back-compat wrapper over :func:`scan_journal`: ``(entries, torn)``.

    CRC-failed lines are silently dropped here; callers that must
    distinguish corruption from tearing use :func:`scan_journal`.
    """
    entries, torn, _ = scan_journal(path)
    return entries, torn


def completed_fingerprints(
    entries: Iterable[Dict[str, Any]],
) -> Dict[str, Dict[str, Any]]:
    """Map fingerprint -> winning ``ok`` entry (resume skips these).

    Duplicate-completion audit lines (``duplicate: true``) never win:
    the first journaled ``ok`` is the result of record, on resume as
    during the live campaign.  Fenced audit lines (``fenced: true``)
    never win either — they record a zombie executor's rejected write,
    not a result.
    """
    done: Dict[str, Dict[str, Any]] = {}
    for entry in entries:
        if (
            entry.get("status") == "ok"
            and not entry.get("duplicate")
            and not entry.get("fenced")
        ):
            done.setdefault(entry["fingerprint"], entry)
    return done

"""Content-addressed, verify-before-serve simulation result store.

One entry per task fingerprint (the sha256 over ``(experiment, kwargs,
seed)`` that :func:`repro.core.experiments.task_fingerprint` computes),
stored as an integrity-enveloped checkpoint file
(:mod:`repro.resilience.checkpoint`): ``MAGIC`` + pickled envelope
carrying the payload sha256 + the payload.  The payload is the winning
*journal entry* of the job's campaign run, CRC line and all — so one
cached artifact carries every integrity layer ``repro verify`` knows:

1. the checkpoint **sha256 envelope** over the stored bytes,
2. the **journal CRC** of the embedded entry (the exact line the
   scheduler fsynced when the simulation completed),
3. the **oracle scoreboard** recorded by that run (an entry with
   violations is never serve-clean: the result came off an untrusted
   path and must be re-simulated, not cached).

:meth:`ResultCache.load_verified` runs all three checks on every read —
a cache *hit* is only a hit if the artifact still proves itself.  Any
failure quarantines the file (``<name>.quarantined``) and reports a
miss, which makes the caller re-enqueue the simulation: the service
never serves a payload it cannot verify, it re-runs it.

Because the stored entry is canonical and the serve path re-encodes it
with sorted keys, two requests for the same fingerprint receive
byte-identical payloads — a million clients asking for the same
configuration pay for exactly one simulation and can diff their answers
bit-for-bit.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.oracles.integrity import verify_entry_crc
from repro.resilience.checkpoint import (
    load_checkpoint,
    quarantine_file,
    save_checkpoint,
)
from repro.resilience.errors import CheckpointError

#: Checkpoint ``kind`` tag for result-store entries.
RESULT_KIND = "service-result"

#: Filename suffix for live entries (quarantined ones gain
#: ``.quarantined`` on top, which batch ``repro verify`` skips).
RESULT_SUFFIX = ".result"

PathLike = Union[str, Path]


class ResultCache:
    """Directory of fingerprint-addressed, self-verifying result files."""

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats: Dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "stores": 0,
            "quarantined": 0,
        }

    def path(self, fingerprint: str) -> Path:
        """Cache file for *fingerprint* (exists or not)."""
        return self.root / f"{fingerprint}{RESULT_SUFFIX}"

    # -- write ---------------------------------------------------------------

    def store(self, fingerprint: str, entry: Dict[str, Any]) -> Path:
        """Persist the winning journal *entry* under *fingerprint*.

        Refuses entries that could never verify: a non-``ok`` status, a
        fingerprint mismatch, a failed line CRC, or recorded oracle
        violations.  Storing garbage would only move the failure to the
        serve path; rejecting it here keeps the cache serve-clean by
        construction.

        Raises:
            ValueError: the entry is not cacheable (reason in message).
        """
        reason = entry_unservable_reason(fingerprint, entry)
        if reason is not None:
            raise ValueError(f"refusing to cache {fingerprint}: {reason}")
        path = self.path(fingerprint)
        save_checkpoint(
            RESULT_KIND, {"fingerprint": fingerprint, "entry": entry}, path
        )
        self.stats["stores"] += 1
        return path

    # -- read ----------------------------------------------------------------

    def load_verified(
        self, fingerprint: str
    ) -> Tuple[Optional[Dict[str, Any]], str]:
        """``(entry, "hit")`` after full verification, or ``(None, why)``.

        ``why`` is ``"miss"`` for an absent entry, or a
        ``"quarantined: ..."`` reason when the artifact existed but
        failed any of the three checks — in which case the file has
        been moved aside and the fingerprint must be re-simulated.
        """
        path = self.path(fingerprint)
        if not path.exists():
            self.stats["misses"] += 1
            return None, "miss"
        try:
            state = load_checkpoint(path, RESULT_KIND)
        except CheckpointError as exc:
            return None, self._quarantine(path, f"envelope: {exc}")
        entry = state.get("entry")
        if state.get("fingerprint") != fingerprint or not isinstance(
            entry, dict
        ):
            return None, self._quarantine(
                path,
                "content-address mismatch: stored entry does not belong "
                "to this fingerprint",
            )
        reason = entry_unservable_reason(fingerprint, entry)
        if reason is not None:
            return None, self._quarantine(path, reason)
        self.stats["hits"] += 1
        return entry, "hit"

    def _quarantine(self, path: Path, why: str) -> str:
        try:
            quarantine_file(path)
        except OSError:
            # Racing quarantines (two readers of one corrupt entry):
            # the first rename wins, the loser just reports the reason.
            pass
        self.stats["quarantined"] += 1
        return f"quarantined: {why}"

    # -- bookkeeping ---------------------------------------------------------

    def snapshot(self) -> Dict[str, int]:
        """Counter view for ``/stats``."""
        return dict(self.stats)


def entry_unservable_reason(
    fingerprint: str, entry: Dict[str, Any]
) -> Optional[str]:
    """Why this journal entry may not be served, or None if clean.

    The shared serve/cache gate: status must be ``ok``, the entry's own
    fingerprint must match the requested one, its journal-line CRC must
    verify, and its oracle scoreboard must be violation-free.
    """
    if entry.get("status") != "ok":
        return f"entry status is {entry.get('status')!r}, not ok"
    if entry.get("fingerprint") != fingerprint:
        return "entry fingerprint does not match the requested one"
    if not verify_entry_crc(entry):
        return "journal-line CRC check failed"
    violations = (entry.get("oracles") or {}).get("violations") or []
    if violations:
        return (
            f"oracle scoreboard recorded {len(violations)} violation(s); "
            f"result must be re-simulated, not served"
        )
    return None

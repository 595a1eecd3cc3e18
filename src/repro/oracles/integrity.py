"""Integrity primitives: cheap CRCs for hot paths.

``crc32`` (zlib) is used where the check runs inside a hot loop — the
per-reuse operator-cache check and the per-line journal CRC — because
hashing a cached sparse matrix with sha256 would cost more than the
solve it protects.  sha256 is reserved for the once-per-file
checkpoint envelope (:mod:`repro.resilience.checkpoint`), where its
cost is invisible next to pickling.
"""

from __future__ import annotations

import json
import zlib
from typing import Dict, Iterable, Optional

import numpy as np

#: Journal-entry key carrying the line CRC (excluded from its own hash).
CRC_KEY = "crc"


def crc32_of_arrays(arrays: Iterable[Optional[np.ndarray]]) -> int:
    """One crc32 over the raw bytes of several arrays (None skipped).

    Array order matters; dtype/shape changes show up through the raw
    byte stream.  Used to fingerprint cached thermal operators
    (csc ``data``/``indices``/``indptr`` + mass + boundary rhs).
    """
    crc = 0
    for array in arrays:
        if array is None:
            continue
        crc = zlib.crc32(np.ascontiguousarray(array).view(np.uint8), crc)
    return crc


def journal_line_crc(entry: Dict[str, object]) -> str:
    """crc32 (8 hex chars) of a journal entry, excluding :data:`CRC_KEY`.

    The hash is taken over the canonical JSON encoding (sorted keys,
    ``default=str``) — the same encoding the journal writes — so a
    parsed-then-re-encoded entry reproduces the CRC bit-for-bit.
    """
    body = {k: v for k, v in entry.items() if k != CRC_KEY}
    encoded = json.dumps(body, sort_keys=True, default=str).encode("utf-8")
    return f"{zlib.crc32(encoded) & 0xFFFFFFFF:08x}"


def attach_crc(entry: Dict[str, object]) -> Dict[str, object]:
    """Return *entry* with its line CRC attached."""
    entry = dict(entry)
    entry[CRC_KEY] = journal_line_crc(entry)
    return entry


def verify_entry_crc(entry: Dict[str, object]) -> bool:
    """True when *entry*'s CRC matches (entries without one pass: legacy)."""
    stored = entry.get(CRC_KEY)
    if stored is None:
        return True
    return stored == journal_line_crc(entry)

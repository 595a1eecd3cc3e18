"""Integrity-checked state files (the result cache's entries).

Layout: ``MAGIC`` + a small pickled envelope ``{version, kind, sha256,
nbytes}`` + the pickled state payload as raw bytes.  The envelope
carries the sha256 of the payload, so a flipped bit anywhere in the
state is detected *before* the bytes reach :mod:`pickle`: reading
corrupt state raises :class:`~repro.resilience.errors.StateIntegrityError`.
Only the current :data:`VERSION` is read; anything else is a
:class:`~repro.resilience.errors.CheckpointError`.

Writes are atomic (temp file + fsync + rename) so an interruption
mid-write never destroys the previous good file.  These are trusted
local files produced by the same codebase (they use :mod:`pickle`); do
not load them from untrusted sources.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from pathlib import Path
from typing import Any, Dict, Tuple, Union

from repro.resilience.errors import CheckpointError, StateIntegrityError

#: Identifies a file as one of ours before unpickling the payload.
MAGIC = b"REPRO-CKPT"
#: Envelope format version, the only one this build reads.
VERSION = 2

PathLike = Union[str, Path]


def save_checkpoint(kind: str, state: Dict[str, Any], path: PathLike) -> Path:
    """Atomically write *state* as a *kind* checkpoint; returns the path."""
    path = Path(path)
    payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    envelope = {
        "version": VERSION,
        "kind": kind,
        "sha256": hashlib.sha256(payload).hexdigest(),
        "nbytes": len(payload),
    }
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(MAGIC)
            pickle.dump(envelope, handle, protocol=pickle.HIGHEST_PROTOCOL)
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc
    return path


def _read_verified(path: Path) -> Tuple[Dict[str, Any], bytes]:
    """``(envelope, payload)`` once magic, version, nbytes and sha256 hold.

    Raises:
        CheckpointError: missing file, foreign/truncated envelope, or a
            version other than :data:`VERSION`.
        StateIntegrityError: the payload's size or sha256 does not match
            its envelope (bit-rot or tampering detected).
    """
    try:
        with open(path, "rb") as handle:
            magic = handle.read(len(MAGIC))
            if magic != MAGIC:
                raise CheckpointError(
                    f"{path} is not a repro checkpoint (bad magic)"
                )
            try:
                envelope = pickle.load(handle)
            except Exception as exc:  # truncated or corrupt pickle stream
                raise CheckpointError(
                    f"{path} is truncated or corrupt: {exc}"
                ) from exc
            payload = handle.read()
    except FileNotFoundError as exc:
        raise CheckpointError(f"checkpoint {path} does not exist") from exc
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(envelope, dict):
        raise CheckpointError(f"{path} has no envelope")
    version = envelope.get("version")
    if version != VERSION:
        raise CheckpointError(
            f"{path} has checkpoint version {version}, this build reads "
            f"version {VERSION}"
        )
    nbytes = envelope.get("nbytes")
    if len(payload) != nbytes:
        raise StateIntegrityError(
            f"{path} is truncated or corrupt: payload is {len(payload)} "
            f"bytes, envelope says {nbytes}",
            path=str(path),
        )
    expected = envelope.get("sha256")
    digest = hashlib.sha256(payload).hexdigest()
    if digest != expected:
        raise StateIntegrityError(
            f"{path} failed its sha256 integrity check "
            f"(stored {expected}, computed {digest})",
            path=str(path),
        )
    return envelope, payload


def quarantine_file(path: PathLike) -> Path:
    """Move a corrupt artifact aside to ``<name>.quarantined``."""
    path = Path(path)
    target = path.with_name(path.name + ".quarantined")
    os.replace(path, target)
    return target


def load_checkpoint(path: PathLike, kind: str) -> Dict[str, Any]:
    """Read a *kind* checkpoint; returns its state dict.

    Raises:
        CheckpointError: the envelope check fails (see
            :func:`_read_verified`), the kind differs, or the payload is
            not a state dict.
        StateIntegrityError: the payload fails its integrity check or
            does not unpickle.
    """
    path = Path(path)
    envelope, payload = _read_verified(path)
    if envelope.get("kind") != kind:
        raise CheckpointError(
            f"{path} is a {envelope.get('kind')!r} checkpoint, "
            f"expected {kind!r}"
        )
    try:
        state = pickle.loads(payload)
    except Exception as exc:
        raise StateIntegrityError(
            f"{path} state payload does not unpickle: {exc}", path=str(path)
        ) from exc
    if not isinstance(state, dict):
        raise CheckpointError(f"{path} has no state payload")
    return state


def verify_checkpoint(path: PathLike) -> Dict[str, Any]:
    """Verify a checkpoint's envelope + digest without applying it.

    Returns a summary dict (``path``, ``version``, ``kind``, ``nbytes``,
    ``sha256``) on success; raises as :func:`_read_verified` does and
    never moves the file (``repro verify`` is read-only).
    """
    path = Path(path)
    envelope, payload = _read_verified(path)
    return {
        "path": str(path),
        "version": VERSION,
        "kind": envelope.get("kind"),
        "nbytes": len(payload),
        "sha256": envelope["sha256"],
    }

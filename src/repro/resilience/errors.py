"""Structured exception taxonomy for the three simulation engines.

Every failure a long run can hit maps onto one of these classes, so
callers (the CLI, the experiment runner, the service) can
distinguish "the solver diverged" from "the trace is corrupt" from "the
checkpoint file is unusable" without string-matching messages.

The taxonomy:

``ReproError``
    Base class.  Carries an optional ``partial`` payload — whatever
    intermediate results the failing engine had produced — so a guarded
    run can report progress made before the failure.

``SolverDivergenceError``
    A linear solve or time step produced non-finite values, an
    out-of-tolerance residual, or failed to converge.  Carries the
    offending ``residual`` and the solver ``method`` that failed.

``TraceCorruptionError``
    A trace record or stream violates the format invariants (Section
    2.1): non-monotonic uids, forward/self dependencies, bad cpu ids,
    negative addresses.  Subclasses :class:`ValueError` so existing
    callers that guard trace parsing with ``except ValueError`` keep
    working.

``CheckpointError``
    A checkpoint file is missing, truncated, of the wrong kind, or of an
    envelope version this build does not read.

``GuardViolation``
    A run guard rejected an engine's input (a non-finite or negative
    power map).  Also a :class:`ValueError` for backward compatibility.

``StateIntegrityError``
    Persisted state (a checkpoint envelope, a journal line) failed its
    sha256/CRC integrity check.  Subclasses :class:`CheckpointError`, so
    one ``except CheckpointError`` catches every unusable state file.

``OracleError``
    A runtime invariant oracle tripped *and* the caller asked for an
    exception (``repro verify``, strict library use).  Campaign runs
    never raise this — they record the violation and degrade.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class ReproError(Exception):
    """Base class for all structured simulation failures.

    Attributes:
        partial: Intermediate results produced before the failure (empty
            if the engine had nothing to report).
    """

    def __init__(self, message: str, partial: Optional[Dict[str, Any]] = None):
        super().__init__(message)
        self.partial: Dict[str, Any] = partial or {}


class SolverDivergenceError(ReproError):
    """A linear solve produced garbage: NaN/inf output, a residual above
    tolerance, or an iterative method that failed to converge.

    Attributes:
        residual: Relative residual ``||Ax - b|| / ||b||`` at failure,
            or ``float("nan")`` if the solve produced no usable vector.
        method: Which solver failed (``"cg"``, ``"transient"``, ...).
    """

    def __init__(
        self,
        message: str,
        residual: float = float("nan"),
        method: str = "lu",
        partial: Optional[Dict[str, Any]] = None,
    ):
        super().__init__(message, partial)
        self.residual = residual
        self.method = method


class TraceCorruptionError(ReproError, ValueError):
    """A trace record or stream violates the Section 2.1 invariants.

    Attributes:
        uid: Uid of the offending record, if known.
        reason: Short machine-readable violation tag (e.g.
            ``"non-monotonic-uid"``, ``"forward-dep"``, ``"bad-cpu"``).
    """

    def __init__(
        self,
        message: str,
        uid: Optional[int] = None,
        reason: str = "corrupt",
        partial: Optional[Dict[str, Any]] = None,
    ):
        super().__init__(message, partial)
        self.uid = uid
        self.reason = reason


class CheckpointError(ReproError):
    """A checkpoint file could not be written, read, or applied."""


class StateIntegrityError(CheckpointError):
    """Persisted state failed its integrity check (corruption detected).

    Attributes:
        path: The offending file, if known.
    """

    def __init__(
        self,
        message: str,
        path: Optional[str] = None,
        partial: Optional[Dict[str, Any]] = None,
    ):
        super().__init__(message, partial)
        self.path = path


class OracleError(ReproError):
    """A runtime invariant oracle tripped and the caller wanted a raise.

    Attributes:
        oracle: Identifier of the tripped oracle (``engine.check``).
    """

    def __init__(
        self,
        message: str,
        oracle: str = "oracle",
        partial: Optional[Dict[str, Any]] = None,
    ):
        super().__init__(message, partial)
        self.oracle = oracle


class GuardViolation(ReproError, ValueError):
    """A run guard rejected an engine output as physically implausible.

    Attributes:
        guard: Name of the guard that fired (e.g.
            ``"temperature-bounds"``, ``"residual"``, ``"power-map"``).
    """

    def __init__(
        self,
        message: str,
        guard: str = "guard",
        partial: Optional[Dict[str, Any]] = None,
    ):
        super().__init__(message, partial)
        self.guard = guard

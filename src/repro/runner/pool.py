"""Supervised pool of ``repro.runner.worker`` subprocesses.

This is the one place a worker subprocess is launched, watched, and
reaped.  Both executor backends that own real workers use it: the local
backend (:mod:`repro.runner.backends.local`) runs a pool inside the
scheduler process, and every node process (:mod:`repro.runner.node`)
runs its own pool on the far side of a control socket.  Module-level
imports are stdlib-only so the node entry point stays as cheap to start
as the worker itself.

Per worker it enforces:

* a **wall-clock timeout** — a worker past its budget is killed, not
  waited on;
* a **heartbeat watchdog** — the worker touches a heartbeat file from a
  daemon thread; a worker whose heartbeat stops is killed as *dead*
  long before its wall-clock budget.

Liveness is judged **only on the monotonic clock**: the pool remembers
the last *observed change* of the heartbeat file's mtime and the
``time.monotonic()`` instant it noticed the change, and declares death
when too much monotonic time passes without a change.  Comparing
``time.time() - st_mtime`` (what the old supervisor did) misjudges a
healthy worker as dead across an NTP step backward on the filesystem's
clock, and misses a dead one across a step forward; on coarse-mtime
filesystems the raw difference is noise.  Watching mtime *transitions*
against a monotonic deadline is immune to both.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

#: Result-payload keys copied into an ``ok`` outcome.
_OK_KEYS = ("result", "oracles")

#: Grace between SIGTERM and SIGKILL when reaping a worker.
KILL_GRACE_S = 1.0


@dataclass
class WorkerHandle:
    """Runtime state of one launched worker subprocess."""

    key: str
    spec: Dict[str, Any]
    proc: subprocess.Popen
    result_path: Path
    heartbeat_path: Path
    started_mono: float
    deadline_mono: float
    #: Last heartbeat mtime observed (ns, raw value; only *changes*
    #: matter, never its distance to any clock).
    last_beat_mtime_ns: int
    #: Monotonic instant the mtime was last observed to change.
    last_beat_mono: float


def kill_process(proc: subprocess.Popen, grace_s: float) -> None:
    """Terminate, then kill after *grace_s*; always reaps the child."""
    if proc.poll() is not None:
        return
    proc.terminate()
    try:
        proc.wait(timeout=grace_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


class WorkerPool:
    """Launches worker subprocesses from task specs and supervises them.

    Args:
        scratch: Directory for spec/result/heartbeat files.
        heartbeat_timeout_s: Monotonic seconds without an observed
            heartbeat-mtime change before a worker is declared dead.
    """

    def __init__(
        self,
        scratch: Path,
        heartbeat_timeout_s: float = 10.0,
    ) -> None:
        self.scratch = Path(scratch)
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self._running: List[WorkerHandle] = []

    # -- launch --------------------------------------------------------------

    def launch(self, spec: Dict[str, Any], timeout_s: float) -> WorkerHandle:
        """Write *spec* to scratch and start one worker subprocess.

        The spec must already carry the task identity fields
        (``task_id``, ``experiment_id``, ``fingerprint``, ``seed``,
        ``kwargs``, ``attempt``); the pool adds the per-attempt file
        paths it owns (``result_path``, ``heartbeat_path``).
        """
        self.scratch.mkdir(parents=True, exist_ok=True)
        stem = (
            f"{str(spec['task_id']).replace(os.sep, '_')}"
            f".a{int(spec.get('attempt', 0))}"
        )
        if spec.get("delivery"):
            # An injected duplicate delivery of the same attempt must
            # not share scratch files with the original.
            stem += f".d{int(spec['delivery'])}"
        spec_path = self.scratch / f"{stem}.spec.json"
        result_path = self.scratch / f"{stem}.result.json"
        heartbeat_path = self.scratch / f"{stem}.heartbeat"
        spec = dict(
            spec,
            result_path=str(result_path),
            heartbeat_path=str(heartbeat_path),
        )
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        result_path.unlink(missing_ok=True)
        heartbeat_path.touch()  # baseline mtime: launch time

        env = dict(os.environ)
        package_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = (
            package_root + (os.pathsep + existing if existing else "")
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.runner.worker", str(spec_path)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        now = time.monotonic()
        handle = WorkerHandle(
            key=stem,
            spec=spec,
            proc=proc,
            result_path=result_path,
            heartbeat_path=heartbeat_path,
            started_mono=now,
            deadline_mono=now + timeout_s,
            last_beat_mtime_ns=self._mtime_ns(heartbeat_path),
            last_beat_mono=now,
        )
        self._running.append(handle)
        return handle

    @staticmethod
    def _mtime_ns(path: Path) -> int:
        try:
            return path.stat().st_mtime_ns
        except OSError:
            return -1

    # -- polling -------------------------------------------------------------

    def poll(self) -> Tuple[List[Dict[str, Any]], int]:
        """Advance every worker; returns ``(outcomes, beats)``.

        *outcomes* are attempt-outcome dicts (see :meth:`_collect_exited`)
        for workers that finished — exited, timed out, or were killed by
        the watchdog — this call.  *beats* counts workers whose
        heartbeat advanced, so a backend can translate liveness into
        lease renewals.
        """
        outcomes: List[Dict[str, Any]] = []
        beats = 0
        still: List[WorkerHandle] = []
        for handle in self._running:
            outcome, beat = self._check(handle)
            beats += beat
            if outcome is None:
                still.append(handle)
            else:
                outcomes.append(outcome)
        self._running = still
        return outcomes, beats

    def _check(
        self, handle: WorkerHandle
    ) -> Tuple[Optional[Dict[str, Any]], int]:
        """Poll one worker: ``(outcome or None, heartbeat advanced?)``."""
        now = time.monotonic()
        beat = 0
        mtime_ns = self._mtime_ns(handle.heartbeat_path)
        if mtime_ns != handle.last_beat_mtime_ns:
            handle.last_beat_mtime_ns = mtime_ns
            handle.last_beat_mono = now
            beat = 1
        if handle.proc.poll() is not None:
            return self._collect_exited(handle), beat
        if now >= handle.deadline_mono:
            budget = handle.deadline_mono - handle.started_mono
            return self._collect_killed(
                handle, "timeout",
                f"exceeded wall-clock budget of {budget:g}s; killed",
            ), beat
        quiet_s = now - handle.last_beat_mono
        if quiet_s > self.heartbeat_timeout_s:
            return self._collect_killed(
                handle, "worker-dead",
                f"no heartbeat for {quiet_s:.1f}s "
                f"(limit {self.heartbeat_timeout_s:g}s); killed",
            ), beat
        return None, beat

    # -- outcome construction ------------------------------------------------

    def _common(self, handle: WorkerHandle) -> Dict[str, Any]:
        spec = handle.spec
        return dict(
            task_id=spec["task_id"],
            experiment_id=spec["experiment_id"],
            fingerprint=spec["fingerprint"],
            seed=spec.get("seed"),
            kwargs=spec.get("kwargs") or {},
            attempt=int(spec.get("attempt", 0)),
            elapsed_s=round(time.monotonic() - handle.started_mono, 4),
            lease_epoch=spec.get("lease_epoch"),
        )

    def _collect_exited(self, handle: WorkerHandle) -> Dict[str, Any]:
        """Attempt outcome for a worker that exited on its own."""
        common = self._common(handle)
        returncode = handle.proc.returncode
        if not handle.result_path.exists():
            return dict(
                common,
                status="crash",
                error=f"worker exited with code {returncode} "
                      f"and produced no result",
                error_type="WorkerCrash",
            )
        try:
            payload = json.loads(
                handle.result_path.read_text(encoding="utf-8")
            )
            if not isinstance(payload, dict) or "ok" not in payload:
                raise ValueError("result payload missing 'ok'")
        except (ValueError, OSError) as exc:
            return dict(
                common,
                status="corrupt-result",
                error=f"unreadable worker result: {exc}",
                error_type="CorruptResult",
            )
        if payload["ok"]:
            return dict(
                common,
                status="ok",
                result=payload.get("result", {}),
                oracles=payload.get("oracles") or {},
            )
        return dict(
            common,
            status="error",
            error=payload.get("error"),
            error_type=payload.get("error_type") or "Exception",
            oracles=payload.get("oracles") or {},
        )

    def _collect_killed(
        self, handle: WorkerHandle, status: str, why: str
    ) -> Dict[str, Any]:
        kill_process(handle.proc, KILL_GRACE_S)
        return dict(
            self._common(handle),
            status=status,
            error=why,
            error_type=(
                "WorkerTimeout" if status == "timeout" else "WorkerDead"
            ),
        )

    # -- lifecycle -----------------------------------------------------------

    @property
    def running(self) -> int:
        """Number of live workers."""
        return len(self._running)

    def kill_all(self, grace_s: float = KILL_GRACE_S) -> None:
        """Reap every worker (campaign abort / shutdown)."""
        for handle in self._running:
            kill_process(handle.proc, grace_s)
        self._running = []

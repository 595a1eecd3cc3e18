"""Worker process entry point: ``python -m repro.runner.worker <spec.json>``.

The supervisor never shares memory with a worker.  Everything crosses
the boundary through three files named in the spec:

* **spec** (read) — the task: experiment id, kwargs, registry import
  spec, chaos directive.
* **heartbeat** (written) — touched every :data:`HEARTBEAT_EVERY_S` by a
  daemon thread started *before* the heavy simulation imports, so the
  supervisor's watchdog can tell "still importing" from "dead".
* **result** (written once) — the JSON-serialized
  :class:`~repro.core.experiments.ExperimentOutcome`, written to a temp
  file and renamed, so the supervisor either sees a complete result or
  none at all.

Module-level imports are stdlib-only on purpose: heartbeats must start
within milliseconds of process launch, long before ``repro.core`` pulls
in numpy.  Only a thermal experiment imports scipy, when it first
solves heat (see :mod:`repro.thermal`); a performance-only task such as
``table-4`` never does.

Chaos directives (from :meth:`repro.resilience.faults.FaultInjector
.worker_fault`) make the worker misbehave on demand so campaign tests
can prove the supervisor survives it:

* ``crash`` — exit abruptly with no result, like a segfault or OOM kill.
* ``hang`` — spin forever *with* heartbeats: only the wall-clock
  timeout can end it.
* ``stall`` — spin forever *without* heartbeats: the watchdog should
  kill it long before the wall-clock budget.
* ``corrupt-result`` — report success but write garbage where the
  result should be.
* ``flip-operator`` — flip one bit in the next cached thermal operator
  the experiment reuses; the run *completes* but the oracle layer must
  detect it and mark the result degraded.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
import time
from typing import Any, Dict

#: Exit code for an injected crash (distinctive in supervisor logs).
CRASH_EXIT_CODE = 23

#: Seconds between a worker's heartbeat-file touches.  A campaign's
#: ``heartbeat_timeout_s`` must exceed it.
HEARTBEAT_EVERY_S = 0.2


def _start_heartbeat(path: str) -> threading.Event:
    """Touch *path* every :data:`HEARTBEAT_EVERY_S` until the event is set."""
    stop = threading.Event()

    def beat() -> None:
        while not stop.is_set():
            try:
                with open(path, "a"):
                    os.utime(path, None)
            except OSError:
                pass  # scratch dir vanished; the supervisor will notice
            stop.wait(HEARTBEAT_EVERY_S)

    thread = threading.Thread(target=beat, name="heartbeat", daemon=True)
    thread.start()
    return stop


def _write_result(path: str, payload: Dict[str, Any]) -> None:
    """Write *payload* atomically: temp file + fsync + rename."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, default=str)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def resolve_registry(registry_spec: str) -> Any:
    """Import the ``module.path:ATTRIBUTE`` an experiment registry names."""
    module_name, _, attribute = registry_spec.partition(":")
    if not module_name or not attribute:
        raise ValueError(
            f"registry spec must be 'module:ATTR', got {registry_spec!r}"
        )
    return getattr(importlib.import_module(module_name), attribute)


def run_spec(spec: Dict[str, Any]) -> int:
    """Execute one task spec; returns the process exit code."""
    for extra in spec.get("sys_path", []):
        if extra not in sys.path:
            sys.path.insert(0, extra)

    heartbeat_stop = _start_heartbeat(spec["heartbeat_path"])

    chaos = spec.get("chaos")
    if chaos == "crash":
        os._exit(CRASH_EXIT_CODE)
    if chaos in ("hang", "stall"):
        if chaos == "stall":
            heartbeat_stop.set()
        while True:  # killed by the supervisor (timeout or watchdog)
            time.sleep(0.1)
    if chaos == "corrupt-result":
        with open(spec["result_path"], "w", encoding="utf-8") as handle:
            handle.write('{"ok": tru')  # torn JSON, as a dying disk writes
        return 0

    # Heavy imports only now, with heartbeats already flowing.
    from repro.core.experiments import run_experiment
    from repro.oracles.config import set_oracle_mode

    if spec.get("oracle_mode"):
        set_oracle_mode(spec["oracle_mode"])
    if chaos == "flip-operator":
        # Arm a one-shot bit flip against the next cached thermal
        # operator this worker reuses: the strict/sample oracle must
        # catch it (detection is what the chaos CI job asserts).
        from repro.resilience.faults import FaultInjector
        from repro.thermal import solver as thermal_solver

        injector = FaultInjector(seed=int(spec.get("chaos_seed", 0)))
        thermal_solver.arm_operator_corruption(
            lambda op: injector.flip_array_bits(op.matrix.data, n_flips=1)
        )

    registry = resolve_registry(
        spec.get("registry_spec", "repro.core.experiments:REGISTRY")
    )
    outcome = run_experiment(
        spec["experiment_id"],
        strict=False,
        registry=registry,
        **spec.get("kwargs", {}),
    )
    _write_result(
        spec["result_path"],
        {
            "schema": 1,
            "task_id": spec.get("task_id", spec["experiment_id"]),
            "ok": outcome.ok,
            "result": outcome.result,
            "error": outcome.error,
            "error_type": outcome.error_type,
            "partial": outcome.partial,
            "fingerprint": outcome.fingerprint,
            "oracles": outcome.oracles,
        },
    )
    heartbeat_stop.set()
    return 0


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python -m repro.runner.worker <spec.json>",
              file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        spec = json.load(handle)
    return run_spec(spec)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main(sys.argv[1:]))

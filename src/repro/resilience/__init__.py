"""Resilience subsystem: guards, fallbacks, checkpoints, fault injection.

Production-hardens the repository's three long-running engines — trace
replay (Section 3), the interval performance model (Section 4), and the
finite-volume thermal solver (Section 2.3) — with:

* a structured exception taxonomy (:mod:`repro.resilience.errors`),
* run guards over solver outputs and trace streams with strict/lenient
  modes (:mod:`repro.resilience.guards`),
* checkpoint/resume for interruptible runs
  (:mod:`repro.resilience.checkpoint`), and
* a seeded fault-injection harness proving every degradation path
  engages (:mod:`repro.resilience.faults`).
"""

import importlib

#: Every re-export is resolved lazily (PEP 562).  The subsystem sits
#: *below* the engines it hardens (``traces.record`` raises our errors,
#: the thermal/memsim engines call our guards), yet ``guards`` and
#: ``faults`` import ``traces.record`` — an eager import here would
#: therefore close an import cycle.
_EXPORTS = {
    "ReproError": "errors",
    "SolverDivergenceError": "errors",
    "TraceCorruptionError": "errors",
    "CheckpointError": "errors",
    "StateIntegrityError": "errors",
    "OracleError": "errors",
    "GuardViolation": "errors",
    "TraceGuard": "guards",
    "check_finite": "guards",
    "check_power_map": "guards",
    "check_residual": "guards",
    "check_temperature_bounds": "guards",
    "relative_residual": "guards",
    "RESIDUAL_TOL": "guards",
    "TEMP_MIN_C": "guards",
    "TEMP_MAX_C": "guards",
    "save_checkpoint": "checkpoint",
    "load_checkpoint": "checkpoint",
    "verify_checkpoint": "checkpoint",
    "quarantine_file": "checkpoint",
    "FaultInjector": "faults",
    "make_raw_record": "faults",
    "WORKER_FAULT_MODES": "faults",
}


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    module = importlib.import_module(f"repro.resilience.{module_name}")
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))

__all__ = list(_EXPORTS)

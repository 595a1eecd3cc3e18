"""Resilience subsystem: errors, checkpoints, fault injection.

Layer 0 under the engines it hardens — trace replay (Section 3), the
interval performance model (Section 4), the finite-volume thermal
solver (Section 2.3) and the campaign runner/service around them:

* a structured exception taxonomy (:mod:`repro.resilience.errors`),
* checkpoint/resume for interruptible runs
  (:mod:`repro.resilience.checkpoint`), and
* a seeded fault-injection harness proving every degradation path
  engages (:mod:`repro.resilience.faults`).

No module here imports another ``repro`` package; callers import the
submodules directly.
"""

"""``repro lint`` — AST-based invariant analysis for the reproduction.

Five static passes guard the contracts the paper's results depend on
(seeded determinism, layer discipline, experiment/figure mapping,
physics-constant hygiene) and the runner/service code's resource and
event-loop hygiene, each emitting coded diagnostics:

* ``RPL1xx`` and ``RPL504`` — determinism and clock threading
  (:mod:`repro.checks.determinism`)
* ``RPL2xx`` — layering (:mod:`repro.checks.layering`)
* ``RPL3xx`` — experiment contracts (:mod:`repro.checks.contracts`)
* ``RPL4xx`` — physics hygiene (:mod:`repro.checks.physics`)
* ``RPL503`` and ``RPL601`` — resource close and blocking calls in
  coroutines (:mod:`repro.checks.concurrency`)

Every rule reads one module (or one function) at a time; none follows
control-flow paths.

The subsystem is deliberately self-contained: it imports nothing from
the simulator layers (everything is derived from source text and ASTs),
so the linter can never be broken by the code it checks.

Run it via ``repro lint`` (see :mod:`repro.checks.engine`); any finding
fails CI.
"""

from repro.checks.diagnostics import CODES, Diagnostic
from repro.checks.engine import LintReport, run_lint

__all__ = [
    "CODES",
    "Diagnostic",
    "LintReport",
    "run_lint",
]

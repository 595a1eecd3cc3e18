"""Runtime self-verification: invariant oracles + integrity-checked state.

Three layers (see DESIGN.md "Oracles"):

1. **Invariant oracles** — cheap online checks registered per engine
   (energy conservation and temperature bounds in thermal, cache/ROB
   well-formedness in memsim, CPI/CPMA sanity bands in uarch/core).
2. **Differential sampling** — a configurable fraction of fast-path
   work re-executed on the reference path and compared field-for-field;
   a mismatch quarantines the offending cache entry or falls back to
   the reference path, and marks the run ``degraded``.
3. **Integrity-checked state** — a sha256 envelope on every result-cache
   entry, re-proved on every read (a corrupt entry is quarantined to
   ``*.quarantined`` and re-simulated), and a per-line CRC on journal
   entries, verified when a sweep resumes.

The package keeps process-global mode + scoreboard state so that
engines deep in the call tree can consult the oracle mode without
threading a config through every signature.  ``run_experiment`` resets
the scoreboard per run and attaches the resulting
:class:`~repro.oracles.report.OracleReport` to the outcome.
"""

from repro.oracles.config import (
    MODES,
    OracleConfig,
    get_oracle_config,
    oracle_mode,
    set_oracle_mode,
)
from repro.oracles.integrity import (
    attach_crc,
    crc32_of_arrays,
    journal_line_crc,
    verify_entry_crc,
)
from repro.oracles.invariants import (
    CPMA_BANDS,
    check_cpi_band,
    check_cpma_band,
    check_energy_conservation,
    check_temperature_bounds,
)
from repro.oracles.report import (
    OracleReport,
    OracleViolation,
    oracle_report,
    record_check,
    record_violation,
    reset_oracles,
)

__all__ = [
    "MODES",
    "OracleConfig",
    "get_oracle_config",
    "oracle_mode",
    "set_oracle_mode",
    "attach_crc",
    "crc32_of_arrays",
    "journal_line_crc",
    "verify_entry_crc",
    "CPMA_BANDS",
    "check_cpi_band",
    "check_cpma_band",
    "check_energy_conservation",
    "check_temperature_bounds",
    "OracleReport",
    "OracleViolation",
    "oracle_report",
    "record_check",
    "record_violation",
    "reset_oracles",
]

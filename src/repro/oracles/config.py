"""Oracle mode + sampling configuration (process-global).

Modes:

``off``
    No runtime checks at all; fast paths run exactly as before.
``sample``
    The default.  Cheap invariants run on every chunk/solve; the
    expensive checks run on a deterministic sample: replay re-executes
    chunks :data:`SAMPLE_STRIDE`, 2 x :data:`SAMPLE_STRIDE`, ... (never
    chunk 0), and a cached thermal operator is integrity-checked on its
    first reuse and on every :data:`SAMPLE_STRIDE`-th.
``strict``
    Every chunk is differentially replayed and every operator reuse is
    integrity-checked.  Used by detection tests and the CI chaos job;
    far too slow for production sweeps.

The active config is process-global so engines deep in the call tree
(the replay hot loop, the solver cache) can consult it without
threading a parameter through every public signature.  Worker
subprocesses inherit the mode from the campaign spec via
:func:`set_oracle_mode`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Union

#: Recognised oracle modes, in increasing order of paranoia.
MODES = ("off", "sample", "strict")

#: Row-span size the chunked replay fast path is broken into when
#: oracles are enabled (so per-chunk invariants see bounded deltas).
REPLAY_CHUNK = 4096

#: In ``sample`` mode, differentially replay every N-th chunk (and
#: integrity-recheck every N-th operator reuse).  ~1/64 keeps the
#: overhead within the bench budget.
SAMPLE_STRIDE = 64

#: Relative tolerance for the thermal energy-conservation residual
#: (boundary heat flow vs. total injected power).
CONSERVATION_RTOL = 1e-5

#: Relative residual ``||Ax - b|| / ||b||`` considered healthy for a
#: steady solve; the Jacobi-preconditioned CG solve converges to 1e-12.
RESIDUAL_TOL = 1e-6

#: Slack below ambient tolerated before the temperature-bounds oracle
#: trips (numerical undershoot).
TEMP_SLACK_C = 1e-6


@dataclass(frozen=True)
class OracleConfig:
    """The runtime oracle subsystem's mode, one of :data:`MODES`."""

    mode: str = "sample"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(
                f"unknown oracle mode {self.mode!r}; expected one of {MODES}"
            )

    @property
    def enabled(self) -> bool:
        return self.mode != "off"

    @property
    def strict(self) -> bool:
        return self.mode == "strict"


_ACTIVE = OracleConfig()


def get_oracle_config() -> OracleConfig:
    """The process-global oracle configuration."""
    return _ACTIVE


def set_oracle_mode(mode: Union[str, OracleConfig]) -> OracleConfig:
    """Set the global oracle mode (or install a full config); returns it."""
    global _ACTIVE
    if isinstance(mode, OracleConfig):
        _ACTIVE = mode
    else:
        _ACTIVE = OracleConfig(mode)
    return _ACTIVE


@contextmanager
def oracle_mode(mode: Union[str, OracleConfig]) -> Iterator[OracleConfig]:
    """Temporarily switch the global oracle mode (tests, verify paths)."""
    previous = _ACTIVE
    try:
        yield set_oracle_mode(mode)
    finally:
        set_oracle_mode(previous)

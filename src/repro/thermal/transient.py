"""Transient thermal solver — Equation (1) with its time term.

The paper solves the steady heat-conduction problem; its Equation (1)
is written with the full ``rho c dT/dt`` term, so this module implements
it too: an implicit (backward-Euler) integration of

    M dT/dt = -A T + b,

where A/b are the steady finite-volume operator and source from
:func:`repro.thermal.solver.assemble_system` and M is the lumped cell
heat capacity.  Backward Euler is unconditionally stable, so time steps
can span the stack's fast (die) and slow (heat sink) time constants.

Use cases: power-on warm-up curves, power-step response (e.g. a DVFS
transition from Table 5), and verifying that transients decay to the
steady solution.

Long integrations can snapshot their state every ``checkpoint_every``
steps and resume from the latest snapshot after an interruption; each
step's output is guarded against divergence (non-finite temperatures
raise :class:`~repro.resilience.errors.SolverDivergenceError` instead of
silently propagating NaN to the end of the run).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.oracles.config import TEMP_SLACK_C, get_oracle_config
from repro.oracles.invariants import check_temperature_bounds
from repro.oracles.report import record_check, record_violation
from repro.resilience.checkpoint import load_checkpoint, save_checkpoint
from repro.resilience.errors import CheckpointError, SolverDivergenceError
from repro.thermal.solver import (
    _TRANSIENT_LU_MAX,
    SolverConfig,
    ThermalSolution,
    assemble_system,
)
from repro.thermal.stack import ThermalStack


@dataclass
class TransientResult:
    """A transient run.

    Attributes:
        times_s: Sample times, seconds.
        peak_c: Peak on-die temperature at each sample.
        final: Full field at the last step.
    """

    times_s: List[float]
    peak_c: List[float]
    final: ThermalSolution

    @property
    def peak_rise(self) -> float:
        """Total peak-temperature rise over the run, Kelvin.

        Negative on a cooling transient (e.g. a DVFS step-down).
        """
        return self.peak_c[-1] - self.peak_c[0]

    def time_to_fraction(self, fraction: float) -> float:
        """First sampled time at which the peak covers *fraction* of its
        total excursion (e.g. 0.63 for one thermal time constant).

        Works for both signs of :attr:`peak_rise`: on a heating run the
        peak must climb to ``start + fraction * rise``; on a cooling run
        (negative rise, e.g. a DVFS step-down) it must *fall* to that
        target.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        rise = self.peak_rise
        target = self.peak_c[0] + fraction * rise
        for t, peak in zip(self.times_s, self.peak_c):
            reached = peak >= target if rise >= 0 else peak <= target
            if reached:
                return t
        return self.times_s[-1]


def solve_transient(
    stack: ThermalStack,
    config: Optional[SolverConfig] = None,
    duration_s: float = 10.0,
    dt_s: float = 0.05,
    initial: Optional[np.ndarray] = None,
    power_schedule: Optional[Callable[[float], float]] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[Union[str, Path]] = None,
    resume_from: Optional[Union[str, Path]] = None,
    reuse_operator: bool = True,
) -> TransientResult:
    """Integrate the stack's temperature field over time.

    Args:
        stack: Configuration to solve.
        config: Discretization parameters.
        duration_s: Simulated time span; must be a whole number of
            *dt_s* steps (the run ends exactly where requested, never a
            silently truncated step short).
        dt_s: Backward-Euler step.
        initial: Starting field (flat or shaped); defaults to uniform
            ambient (a cold power-on).
        power_schedule: Optional multiplier on the dissipated power as a
            function of time; boundary (ambient) terms are unaffected.
            The schedule is piecewise constant per step: it is sampled
            once at each step's *start* time and the returned factor
            applies over ``[t, t + dt)``.  A DVFS step written
            ``lambda t: 0.66 if t >= 5 else 1.0`` therefore takes effect
            exactly on the step beginning at t = 5 (a step boundary when
            dt divides 5), never half a step early.
        checkpoint_every: Snapshot the integration state every this many
            steps (requires *checkpoint_path*).
        checkpoint_path: Where to write snapshots.
        resume_from: Path of a snapshot written by a previous run of the
            *same* stack/config/schedule; integration continues from the
            checkpointed step.
        reuse_operator: Reuse the geometry-keyed cached operator and its
            per-dt backward-Euler factorization (the default).  False
            assembles and factorizes from scratch without touching the
            cache — the reference side of the coupled-loop benchmark.

    Returns:
        A :class:`TransientResult` sampled at every step.

    Raises:
        SolverDivergenceError: a step produced non-finite temperatures.
        CheckpointError: *resume_from* is unusable or incompatible.
    """
    if duration_s <= 0 or dt_s <= 0:
        raise ValueError("duration and time step must be positive")
    steps = int(round(duration_s / dt_s))
    if steps < 1 or not math.isclose(
        steps * dt_s, duration_s, rel_tol=1e-9, abs_tol=0.0
    ):
        raise ValueError(
            f"dt_s={dt_s:g} does not divide duration_s={duration_s:g}: "
            f"{steps} whole step(s) would cover {steps * dt_s:g} s; pick a "
            f"step that divides the duration so the run ends where requested"
        )
    if checkpoint_every is not None:
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if checkpoint_path is None:
            raise ValueError("checkpoint_every requires checkpoint_path")
    system = assemble_system(stack, config, reuse_operator=reuse_operator)
    ambient = system.config.ambient_c

    n = system.matrix.shape[0]
    # The assembly already delivers the rhs split into power injection and
    # ambient boundary terms (exactly, not by subtraction), so a power
    # schedule can scale only the former.
    power_part = system.power_rhs
    boundary_rhs = system.boundary_rhs

    # One backward-Euler factorization per (geometry, dt) pair; reruns
    # over the same stack (parameter sweeps, resumed runs) skip straight
    # to the time loop.  K + M/dt is symmetric positive definite, so the
    # diagonal is a stable pivot sequence: factor in symmetric mode with
    # no row pivoting, which keeps the fill-reducing column order on the
    # rows too (perm_r == perm_c).
    operator = system.operator
    lu = operator.transient_lus.get(dt_s) if operator is not None else None
    if lu is None:
        mass_over_dt = sp.diags(system.mass / dt_s)
        lhs = (system.matrix + mass_over_dt).tocsc()
        lu = spla.splu(
            lhs,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
        if operator is not None:
            operator.transient_lus[dt_s] = lu
            while len(operator.transient_lus) > _TRANSIENT_LU_MAX:
                operator.transient_lus.pop(
                    next(iter(operator.transient_lus))
                )

    if resume_from is not None:
        # quarantine=True: a checkpoint failing its sha256 envelope is
        # moved to *.quarantined so a retry restarts clean instead of
        # tripping over the same corrupt bytes.
        state = load_checkpoint(resume_from, kind="transient", quarantine=True)
        if state["n"] != n or state["dt_s"] != dt_s:
            raise CheckpointError(
                f"checkpoint {resume_from} was written for n={state['n']}, "
                f"dt={state['dt_s']}; this run has n={n}, dt={dt_s}"
            )
        # Same cell count is not same stack: a checkpoint from a
        # different geometry would be silently accepted on n/dt alone.
        saved_stack = state.get("stack_name")
        if saved_stack is not None and saved_stack != stack.name:
            raise CheckpointError(
                f"checkpoint {resume_from} was written for stack "
                f"{saved_stack!r}; this run solves {stack.name!r}"
            )
        # Duration compatibility: the checkpointed progress must lie
        # within this run's horizon.  (Resuming an interrupted run with
        # the full original duration is the normal case, so the saved
        # target duration may legitimately be shorter than ours.)
        elapsed_s = int(state["step"]) * dt_s
        if int(state["step"]) > steps:
            raise CheckpointError(
                f"checkpoint {resume_from} is {elapsed_s:g} s into its run "
                f"(step {state['step']}); this run ends at "
                f"{duration_s:g} s ({steps} steps) and has nothing to resume"
            )
        temperature = np.asarray(state["temperature"], dtype=float)
        times = list(state["times_s"])
        peaks = list(state["peak_c"])
        start_step = int(state["step"]) + 1
    else:
        if initial is None:
            temperature = np.full(n, ambient)
        else:
            temperature = np.asarray(initial, dtype=float).reshape(n).copy()
        if not np.all(np.isfinite(temperature)):
            raise SolverDivergenceError(
                "initial temperature field is non-finite", method="transient"
            )
        times = [0.0]
        peaks = [float(system.solution_from(temperature).peak_temperature())]
        start_step = 1

    for step in range(start_step, steps + 1):
        t_now = step * dt_s
        # Piecewise-constant convention (see the docstring): the factor
        # for the step spanning (t_now - dt, t_now] is the schedule's
        # value at the step's start, so a step change written with
        # ``t >= boundary`` lands on the step *beginning* there.
        t_start = (step - 1) * dt_s
        factor = power_schedule(t_start) if power_schedule else 1.0
        if factor < 0:
            raise ValueError("power schedule must be non-negative")
        rhs = boundary_rhs + factor * power_part + (system.mass / dt_s) * temperature
        temperature = lu.solve(rhs)
        if not np.all(np.isfinite(temperature)):
            raise SolverDivergenceError(
                f"transient step {step} (t={t_now:g} s) produced non-finite "
                "temperatures",
                method="transient",
                partial={"step": step, "times_s": times, "peak_c": peaks},
            )
        times.append(t_now)
        peaks.append(
            float(system.solution_from(temperature).peak_temperature())
        )
        if checkpoint_every and step % checkpoint_every == 0:
            save_checkpoint(
                "transient",
                {
                    "step": step,
                    "n": n,
                    "dt_s": dt_s,
                    "duration_s": duration_s,
                    "temperature": temperature,
                    "times_s": times,
                    "peak_c": peaks,
                    "stack_name": stack.name,
                },
                checkpoint_path,
            )
    final = system.solution_from(temperature)
    if get_oracle_config().enabled:
        # Bounds oracle on the final field: a transient may legitimately
        # pass through any trajectory, but its end state must still be
        # physical (>= ambient with backward Euler from a cold start,
        # below the damage ceiling).
        record_check("thermal.transient-bounds")
        field = final.temperature
        # A caller-supplied initial field may legitimately start (and
        # end) below ambient; only ambient starts get the lower bound.
        floor = ambient if initial is None else float("-inf")
        for problem in check_temperature_bounds(
            float(field.min()), float(field.max()), floor, TEMP_SLACK_C
        ):
            record_violation("thermal.transient-bounds", "thermal", problem)
            final.degraded = True
    return TransientResult(
        times_s=times,
        peak_c=peaks,
        final=final,
    )

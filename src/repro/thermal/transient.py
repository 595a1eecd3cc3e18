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

Each step's output is guarded against divergence (non-finite
temperatures raise :class:`~repro.resilience.errors.SolverDivergenceError`
instead of silently propagating NaN to the end of the run).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.oracles.config import TEMP_SLACK_C, get_oracle_config
from repro.oracles.invariants import check_temperature_bounds
from repro.oracles.report import record_check, record_violation
from repro.resilience.errors import SolverDivergenceError
from repro.thermal.solver import (
    _TRANSIENT_LU_MAX,
    DiscreteSystem,
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


def whole_steps(
    duration_s: float,
    dt_s: float,
    duration_name: str = "duration_s",
    dt_name: str = "dt_s",
) -> int:
    """The number of *dt_s* steps that cover *duration_s* exactly.

    Float noise is tolerated (``0.1 * 3`` covers 0.3); a step that does
    not divide the duration is rejected, so a run ends where requested
    and never a silently truncated step short.  The names label the
    error message.

    Raises:
        ValueError: a non-positive argument, or a step that does not
            divide the duration.
    """
    if duration_s <= 0 or dt_s <= 0:
        raise ValueError(
            f"{duration_name} and {dt_name} must be positive"
        )
    steps = int(round(duration_s / dt_s))
    if steps < 1 or not math.isclose(
        steps * dt_s, duration_s, rel_tol=1e-9, abs_tol=0.0
    ):
        raise ValueError(
            f"{dt_name}={dt_s:g} does not divide "
            f"{duration_name}={duration_s:g}: {steps} whole step(s) would "
            f"cover {steps * dt_s:g} s; pick a step that divides the "
            f"duration so the run ends where requested"
        )
    return steps


class BackwardEuler:
    """The backward-Euler update of one assembled system at one step.

    ``(K + M/dt) T' = b_ambient + f * q + (M/dt) T`` for a power factor
    ``f``.  :meth:`step` advances one field ``(n,)`` under one factor, or
    a block ``(P, n)`` of P independent fields (one row each) under a
    ``(P, 1)`` column of factors with one multi-column back-substitution.
    Every right-hand-side element is the same floating-point expression
    either way, and SuperLU solves each column of a block bit-identically
    to solving it alone, so a row of a block run equals its solo run.
    """

    def __init__(self, system: DiscreteSystem, dt_s: float) -> None:
        self.system = system
        self.mass_over_dt = system.mass / dt_s
        # One factorization per (geometry, dt) pair, kept on the cached
        # operator: reruns over the same stack (parameter sweeps, control
        # epochs) skip straight to the time loop.  K + M/dt
        # is symmetric positive definite, so the diagonal is a stable
        # pivot sequence: factor in symmetric mode with no row pivoting,
        # which keeps the fill-reducing column order on the rows too
        # (perm_r == perm_c).
        operator = system.operator
        lu = operator.transient_lus.get(dt_s) if operator is not None else None
        if lu is None:
            lhs = (system.matrix + sp.diags(self.mass_over_dt)).tocsc()
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
        self.lu = lu

    def step(
        self,
        temperature: np.ndarray,
        factor: Union[float, np.ndarray],
        step: int,
        t_s: float,
        partial: Optional[Dict[str, Any]] = None,
    ) -> np.ndarray:
        """The field(s) one step on; *step* and *t_s* (the step's end
        time) label a divergence.

        Raises:
            SolverDivergenceError: a result is non-finite (carries
                *partial*).
        """
        system = self.system
        rhs = (
            system.boundary_rhs
            + factor * system.power_rhs
            + self.mass_over_dt * temperature
        )
        # SuperLU wants (n, P) columns; the transpose of a C-ordered
        # (P, n) block is one, and the solved block transposes back to
        # C-ordered rows.  Both are no-ops on a single field.
        out = self.lu.solve(rhs.T).T
        if not np.all(np.isfinite(out)):
            raise SolverDivergenceError(
                f"transient step {step} (t={t_s:g} s) produced non-finite "
                "temperatures",
                method="transient",
                partial=partial,
            )
        return out


def check_transient_bounds(field: np.ndarray, floor_c: float) -> None:
    """Bounds oracle on a transient's end field.

    A transient may legitimately pass through any trajectory, but its
    end state must still be physical (>= *floor_c*, ambient for a cold
    start under backward Euler, and below the damage ceiling).  Records
    one ``thermal.transient-bounds`` check when oracles are on.
    """
    if not get_oracle_config().enabled:
        return
    record_check("thermal.transient-bounds")
    for problem in check_temperature_bounds(
        float(field.min()), float(field.max()), floor_c, TEMP_SLACK_C
    ):
        record_violation("thermal.transient-bounds", "thermal", problem)


def solve_transient(
    stack: ThermalStack,
    config: Optional[SolverConfig] = None,
    duration_s: float = 10.0,
    dt_s: float = 0.05,
    initial: Optional[np.ndarray] = None,
    power_schedule: Optional[Callable[[float], float]] = None,
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
        reuse_operator: Reuse the geometry-keyed cached operator and its
            per-dt backward-Euler factorization (the default).  False
            assembles and factorizes from scratch without touching the
            cache — the reference side of the coupled-loop benchmark.

    Returns:
        A :class:`TransientResult` sampled at every step.

    Raises:
        SolverDivergenceError: a step produced non-finite temperatures.
    """
    steps = whole_steps(duration_s, dt_s)
    system = assemble_system(stack, config, reuse_operator=reuse_operator)
    ambient = system.config.ambient_c
    n = system.matrix.shape[0]
    euler = BackwardEuler(system, dt_s)

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

    for step in range(1, steps + 1):
        t_now = step * dt_s
        # Piecewise-constant convention (see the docstring): the factor
        # for the step spanning (t_now - dt, t_now] is the schedule's
        # value at the step's start, so a step change written with
        # ``t >= boundary`` lands on the step *beginning* there.
        t_start = (step - 1) * dt_s
        factor = power_schedule(t_start) if power_schedule else 1.0
        if factor < 0:
            raise ValueError("power schedule must be non-negative")
        temperature = euler.step(
            temperature, factor, step, t_now,
            partial={"step": step, "times_s": times, "peak_c": peaks},
        )
        times.append(t_now)
        peaks.append(
            float(system.solution_from(temperature).peak_temperature())
        )
    final = system.solution_from(temperature)
    # A caller-supplied initial field may legitimately start (and end)
    # below ambient; only ambient starts get the lower bound.
    floor = ambient if initial is None else float("-inf")
    check_transient_bounds(final.temperature, floor)
    return TransientResult(
        times_s=times,
        peak_c=peaks,
        final=final,
    )

"""The closed-loop co-simulation engine.

Alternates control epochs between the two sides of the machine:

* **uarch side** — at the current V/f point, the interval CPI/IPC model
  gives performance (memory latency is fixed in nanoseconds, so it
  grows in cycles with frequency — Table 5's 0.82%/1% slope emerges
  rather than being assumed) and the block-level power roll-up gives
  the per-component power, scaled by V^2*f and the workload's activity.
* **thermal side** — backward Euler advances the full temperature
  field one epoch under that power (the field carries over between
  epochs, so thermal history is exact), reusing the cached
  per-(geometry, dt) factorization every epoch.
* **DTM** — the policy observes the epoch's peak temperature and picks
  the next V/f point.

The policies of one run share the stack, the load and the step, so
:func:`run_coupled_policies` advances them together: one ``(P, n)``
block of fields, one assembly per epoch and one P-column
back-substitution per step.  Each policy's row is bit-identical to its
solo run (see :class:`~repro.thermal.transient.BackwardEuler`), and
:func:`run_coupled_loop` is the one-policy case.

One steady solve calibrates the linear power→peak-temperature map (the
discrete conduction operator is linear, so the full-power solution
scales to any power), and one warm-up transient measures the thermal
time constant for the predictive policy via ``time_to_fraction``.
Neither depends on the policy: :func:`calibrate` computes them once per
config, and every policy run of that config shares the result.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.coupled.drivers import LoadSchedule, constant_load
from repro.coupled.dtm import DtmObservation, DtmPolicy, NoDtm
from repro.floorplan.pentium4 import (
    pentium4_3d_floorplans,
    pentium4_planar_floorplan,
)
from repro.thermal.solver import (
    SolverConfig,
    assemble_system,
    solve_steady_state,
)
from repro.thermal.stack import DieSpec, ThermalStack, build_stack
from repro.thermal.transient import (
    BackwardEuler,
    solve_transient,
    check_transient_bounds,
    whole_steps,
)
from repro.uarch.interval import geomean_ipc
from repro.uarch.pipeline import planar_pipeline, stacked_pipeline
from repro.uarch.power import planar_power_breakdown, stacked_power_breakdown
from repro.uarch.workloads import CATEGORY_COUNTS, SuiteColumns, make_profile

#: One first-order time constant: 1 - 1/e of the step response.
TAU_FRACTION = 0.632

#: Workload profiles per category for the per-epoch interval model (a
#: representative slice of the 656-trace suite; both pipelines see the
#: same slice, so the planar-relative ratio is unbiased).
PROFILES_PER_CATEGORY = 4

#: Quantization of the perf-model cache key (vcc resolution at which
#: two operating points are treated as the same frequency).
_FREQ_KEY_DIGITS = 4


@dataclass(frozen=True)
class CoupledConfig:
    """Knobs of one closed-loop run.

    Attributes:
        epoch_s: Control epoch length, seconds (power/thermal exchange
            period).
        n_epochs: Number of control epochs to simulate.
        dt_s: Backward-Euler step inside an epoch; must divide epoch_s.
        nx: Thermal grid resolution (ny = nx).
        ceiling_c: Thermal ceiling; None solves the planar baseline's
            peak at this resolution (Table 5's Same Temp target).
        vcc_min: Lowest V/f point the platform supports.
        vcc_max: Highest V/f point the platform supports.
        vcc_init: V/f point of the first epoch.
        start: ``"cold"`` (uniform ambient) or ``"steady"`` (the steady
            field of the first epoch's power — a warm platform).
        calibration_s: Warm-up transient length for the time-constant
            measurement.
        calibration_dt_s: Warm-up transient step.  ``time_to_fraction``
            resolves tau to this granularity, so it must be finer than
            the stack's fast response (~1 s for the Logic+Logic stack);
            a coarse step inflates tau and destabilizes the predictive
            policy.  Must divide both epoch_s and calibration_s.
        seed: Seed for the interval-model workload slice.
        reuse_operator: Reuse cached thermal operators/LUs (default);
            False forces cold assembly every epoch (the reference side
            of the coupled-loop pair in ``benchmarks/perf``).
    """

    epoch_s: float = 2.0
    n_epochs: int = 40
    dt_s: float = 0.5
    nx: int = 20
    ceiling_c: Optional[float] = None
    vcc_min: float = 0.70
    vcc_max: float = 1.00
    vcc_init: float = 1.00
    start: str = "cold"
    calibration_s: float = 60.0
    calibration_dt_s: float = 0.5
    seed: int = 20061209
    reuse_operator: bool = True

    def __post_init__(self) -> None:
        if self.n_epochs < 1:
            raise ValueError("n_epochs must be positive")
        whole_steps(self.epoch_s, self.dt_s, "epoch_s", "dt_s")
        whole_steps(self.epoch_s, self.calibration_dt_s, "epoch_s",
                    "calibration_dt_s")
        whole_steps(self.calibration_s, self.calibration_dt_s,
                    "calibration_s", "calibration_dt_s")
        if not 0 < self.vcc_min <= self.vcc_init <= self.vcc_max:
            raise ValueError("need 0 < vcc_min <= vcc_init <= vcc_max")
        if self.start not in ("cold", "steady"):
            raise ValueError("start must be 'cold' or 'steady'")


@dataclass
class EpochTrace:
    """One control epoch as both sides of the loop saw it.

    Attributes:
        epoch: Epoch index, 0-based.
        t_s: Simulated time at the epoch's end, seconds.
        activity: Workload activity factor during the epoch.
        vcc: V/f point the epoch ran at (freq = vcc).
        power_w: Total power dissipated, watts.
        power_breakdown_w: Per-component watts (logic, clock grid,
            latches, repeaters, leakage) at this V/f and activity.
        perf_pct: Interval-model performance, percent of planar baseline.
        peak_c: Peak on-die temperature at the epoch's end, Celsius.
        throttled: True if the DTM decision lowered vcc for the next
            epoch.
    """

    epoch: int
    t_s: float
    activity: float
    vcc: float
    power_w: float
    power_breakdown_w: Dict[str, float]
    perf_pct: float
    peak_c: float
    throttled: bool


@dataclass
class CoupledResult:
    """A finished closed-loop run.

    Attributes:
        policy: Trace name of the DTM policy.
        ceiling_c: Thermal ceiling the policy steered against.
        tau_s: Measured first-order thermal time constant, seconds.
        nominal_power_w: Stack power at vcc = 1, activity = 1 (the
            Table 5 3D design point, ~125 W).
        epochs: Per-epoch traces.
    """

    policy: str
    ceiling_c: float
    tau_s: float
    nominal_power_w: float
    epochs: List[EpochTrace] = field(default_factory=list)

    @property
    def final_vcc(self) -> float:
        return self.epochs[-1].vcc

    @property
    def final_power_w(self) -> float:
        return self.epochs[-1].power_w

    @property
    def final_peak_c(self) -> float:
        return self.epochs[-1].peak_c

    @property
    def max_peak_c(self) -> float:
        return max(e.peak_c for e in self.epochs)

    @property
    def exceeded_epochs(self) -> int:
        """Epochs whose peak temperature broke the ceiling."""
        return sum(1 for e in self.epochs if e.peak_c > self.ceiling_c)

    @property
    def avg_perf_pct(self) -> float:
        return sum(e.perf_pct for e in self.epochs) / len(self.epochs)

    @property
    def energy_j(self) -> float:
        dt = self.epochs[1].t_s - self.epochs[0].t_s if len(
            self.epochs
        ) > 1 else self.epochs[0].t_s
        return sum(e.power_w * dt for e in self.epochs)

    def summary(self) -> Dict[str, Any]:
        """Scalar roll-up for reports and journals."""
        return {
            "policy": self.policy,
            "ceiling_c": self.ceiling_c,
            "tau_s": self.tau_s,
            "final_vcc": self.final_vcc,
            "final_power_w": self.final_power_w,
            "final_peak_c": self.final_peak_c,
            "max_peak_c": self.max_peak_c,
            "exceeded_epochs": self.exceeded_epochs,
            "avg_perf_pct": self.avg_perf_pct,
            "energy_j": self.energy_j,
        }

    def to_dict(self) -> Dict[str, Any]:
        out = self.summary()
        out["epochs"] = [asdict(e) for e in self.epochs]
        return out


class _IntervalPerfModel:
    """Planar-relative performance from the interval model as a function
    of frequency (the only epoch-to-epoch variable it depends on)."""

    def __init__(self, seed: int) -> None:
        self.columns = SuiteColumns.of(
            make_profile(category, index, seed)
            for category in CATEGORY_COUNTS
            for index in range(PROFILES_PER_CATEGORY)
        )
        self.planar_pipe = planar_pipeline()
        self.stacked_pipe = stacked_pipeline(self.planar_pipe)
        self.planar_ipc = geomean_ipc(self.columns, self.planar_pipe)

    def perf_pct(self, freq: float) -> float:
        """3D performance at relative frequency *freq*, % of planar.

        Memory latency is fixed in nanoseconds, so at relative frequency
        f it costs f times as many cycles; wall-clock performance is
        f * IPC(f), normalized to the planar machine at f = 1.
        """
        scaled = replace(
            self.columns, memory_latency=self.columns.memory_latency * freq
        )
        ipc = geomean_ipc(scaled, self.stacked_pipe)
        return 100.0 * freq * ipc / self.planar_ipc


def _power_at(
    vcc: float, activity: float, nominal: Dict[str, float]
) -> Tuple[float, Dict[str, float]]:
    """Per-component and total watts at a (vcc, activity) point.

    Dynamic components (logic, clock grid, latches, repeaters) scale as
    V^2 * f * activity with f = vcc (Table 5's conversion); leakage
    scales with the voltage but not the workload.  At activity = 1 the
    total therefore equals ``dvfs.power_3d_w(vcc, vcc)`` exactly, so the
    closed loop and the open-loop Table 5 math agree by construction.
    """
    v3 = vcc * vcc * vcc
    breakdown = {
        name: watts * v3 * (activity if name != "leakage" else 1.0)
        for name, watts in nominal.items()
    }
    return sum(breakdown.values()), breakdown


def build_coupled_stack() -> Tuple[ThermalStack, float]:
    """The Logic+Logic 3D stack and its floorplan's nominal watts."""
    bottom, top = pentium4_3d_floorplans()
    stack = build_stack([DieSpec(bottom), DieSpec(top)])
    return stack, bottom.total_power + top.total_power


def planar_baseline_peak_c(config: SolverConfig) -> float:
    """Peak temperature of the planar Pentium 4 baseline at this grid
    resolution — the default thermal ceiling (Table 5's Same Temp
    target)."""
    stack = build_stack([DieSpec(pentium4_planar_floorplan())])
    return solve_steady_state(stack, config).peak_temperature()


@dataclass(frozen=True)
class Calibration:
    """The policy-independent half of a closed-loop run.

    Every policy of a run steers the same stack under the same config,
    so one calibration serves them all; :func:`calibrate` computes it
    and :func:`run_coupled_loop` takes it.

    Attributes:
        inputs: The :class:`CoupledConfig` fields it was computed from
            (see :func:`_calibration_inputs`).
        stack: The Logic+Logic thermal stack.
        nominal_w: Stack power at vcc = 1, activity = 1.
        nominal_breakdown_w: Per-component watts at that point.
        steady_field: Full-power steady field, flat and read-only.
        rise_per_watt: Steady peak rise over ambient per watt.
        ceiling_c: Thermal ceiling the policies steer against.
        tau_s: First-order thermal time constant, seconds.
        epoch_response: Fraction of the steady rise one epoch of full
            power covers from a cold start.
        perf_model: Interval-model performance by frequency.
    """

    inputs: Tuple[Any, ...]
    stack: ThermalStack
    nominal_w: float
    nominal_breakdown_w: Dict[str, float]
    steady_field: np.ndarray
    rise_per_watt: float
    ceiling_c: float
    tau_s: float
    epoch_response: float
    perf_model: _IntervalPerfModel


def _calibration_inputs(cfg: CoupledConfig) -> Tuple[Any, ...]:
    """The config fields a :class:`Calibration` depends on."""
    return (cfg.nx, cfg.epoch_s, cfg.ceiling_c, cfg.calibration_s,
            cfg.calibration_dt_s, cfg.seed)


def calibrate(config: Optional[CoupledConfig] = None) -> Calibration:
    """Solve the steady field, the ceiling and the warm-up transient.

    One steady solve calibrates the linear power→peak map; the planar
    baseline's steady solve gives the default ceiling; one warm-up
    transient measures tau and the one-epoch step response.
    """
    cfg = config or CoupledConfig()
    solver = SolverConfig(nx=cfg.nx, ny=cfg.nx)
    ambient = solver.ambient_c
    stack, nominal_w = build_coupled_stack()

    # Calibration 1: the linear steady map.  The conduction operator is
    # linear, so the full-power steady field scales to any power level.
    steady = solve_steady_state(stack, solver)
    steady_field = steady.temperature.reshape(-1)
    steady_field.setflags(write=False)
    steady_peak = steady.peak_temperature()

    ceiling = cfg.ceiling_c
    if ceiling is None:
        ceiling = planar_baseline_peak_c(solver)

    # Calibration 2: thermal time constant from the warm-up transient
    # (the predictive policy's lookahead horizon scale) plus the
    # one-epoch step-response fraction — the response is
    # multi-exponential, so the measured fraction predicts an epoch of
    # heating far better than the single-tau fit does.
    warmup = solve_transient(
        stack,
        solver,
        duration_s=cfg.calibration_s,
        dt_s=cfg.calibration_dt_s,
        reuse_operator=cfg.reuse_operator,
    )
    total_rise = steady_peak - warmup.peak_c[0]
    idx = min(
        len(warmup.peak_c) - 1,
        whole_steps(cfg.epoch_s, cfg.calibration_dt_s),
    )
    return Calibration(
        inputs=_calibration_inputs(cfg),
        stack=stack,
        nominal_w=nominal_w,
        nominal_breakdown_w=_nominal_breakdown(nominal_w),
        steady_field=steady_field,
        rise_per_watt=(steady_peak - ambient) / nominal_w,
        ceiling_c=float(ceiling),
        tau_s=warmup.time_to_fraction(TAU_FRACTION),
        epoch_response=(warmup.peak_c[idx] - warmup.peak_c[0]) / total_rise,
        perf_model=_IntervalPerfModel(cfg.seed),
    )


def run_coupled_loop(
    policy: Optional[DtmPolicy] = None,
    load: Optional[LoadSchedule] = None,
    config: Optional[CoupledConfig] = None,
    calibration: Optional[Calibration] = None,
) -> CoupledResult:
    """Run one closed-loop thermal/DVFS co-simulation.

    Args:
        policy: DTM policy (default: :class:`NoDtm`, the control run).
        load: Workload driver (default: constant design-point activity).
        config: Engine knobs.
        calibration: ``calibrate(config)``, shared by the runs of one
            config; computed here when None.

    Returns:
        The per-epoch traces plus the calibration (ceiling, tau).

    Raises:
        ValueError: *calibration* was computed for another config.
    """
    return run_coupled_policies(
        [policy or NoDtm()], load, config, calibration
    )[0]


def run_coupled_policies(
    policies: Sequence[DtmPolicy],
    load: Optional[LoadSchedule] = None,
    config: Optional[CoupledConfig] = None,
    calibration: Optional[Calibration] = None,
) -> List[CoupledResult]:
    """Run several DTM policies through one closed loop, stepped together.

    Every policy sees the same load, stack and calibration; only its
    V/f trajectory and field differ.  Each epoch assembles the system
    once and advances the ``(P, n)`` block of the P policies' fields
    with one multi-column back-substitution per step, and each result
    equals that policy's :func:`run_coupled_loop` run exactly.

    Args:
        policies: DTM policies, one result each, in this order.
        load: Workload driver (default: constant design-point activity).
        config: Engine knobs.
        calibration: ``calibrate(config)``; computed here when None.

    Returns:
        One :class:`CoupledResult` per policy.

    Raises:
        ValueError: *calibration* was computed for another config, or
            the load produced a negative activity.
    """
    load = load or constant_load()
    cfg = config or CoupledConfig()
    if calibration is None:
        calibration = calibrate(cfg)
    elif calibration.inputs != _calibration_inputs(cfg):
        raise ValueError(
            f"calibration was computed for {calibration.inputs}, "
            f"this config needs {_calibration_inputs(cfg)}"
        )
    solver = SolverConfig(nx=cfg.nx, ny=cfg.nx)
    ambient = solver.ambient_c
    nominal_w = calibration.nominal_w
    nominal_breakdown = calibration.nominal_breakdown_w
    steady_field = calibration.steady_field
    steps = whole_steps(cfg.epoch_s, cfg.dt_s)

    # Initial field: cold power-on, or the steady field of the first
    # epoch's power level (linear scaling of the full-power solve).  One
    # row per policy: all start at vcc_init under the same load.
    vccs = [cfg.vcc_init] * len(policies)
    first_power, _ = _power_at(cfg.vcc_init, load(0, 0.0), nominal_breakdown)
    if cfg.start == "steady":
        factor = first_power / nominal_w
        initial = ambient + factor * (steady_field - ambient)
    else:
        initial = np.full(steady_field.shape, ambient)
    temperature = np.repeat(initial[np.newaxis, :], len(policies), axis=0)

    # The first vcc seen in a key's bucket sets the bucket's value, so
    # the cache is per policy: shared, one policy's trajectory would
    # move another's perf numbers.
    perf_by_key: List[Dict[float, float]] = [{} for _ in policies]
    results = []
    for policy in policies:
        policy.reset()
        results.append(
            CoupledResult(
                policy=policy.name,
                ceiling_c=calibration.ceiling_c,
                tau_s=calibration.tau_s,
                nominal_power_w=nominal_w,
            )
        )

    for epoch in range(cfg.n_epochs):
        t_start = epoch * cfg.epoch_s
        activity = load(epoch, t_start)
        if activity < 0:
            raise ValueError("load schedule produced a negative activity")
        powers = [_power_at(vcc, activity, nominal_breakdown) for vcc in vccs]
        factors = np.array([[power_w / nominal_w] for power_w, _ in powers])

        system = assemble_system(
            calibration.stack, solver, reuse_operator=cfg.reuse_operator
        )
        euler = BackwardEuler(system, cfg.dt_s)
        for step in range(1, steps + 1):
            temperature = euler.step(
                temperature, factors, step, t_start + step * cfg.dt_s
            )

        for row, policy in enumerate(policies):
            vcc = vccs[row]
            power_w, breakdown = powers[row]
            field_c = temperature[row]
            # Epochs start from a carried-over field, which may sit below
            # ambient: no lower bound, as for solve_transient(initial=...).
            check_transient_bounds(field_c, float("-inf"))
            key = round(vcc, _FREQ_KEY_DIGITS)
            if key not in perf_by_key[row]:
                perf_by_key[row][key] = calibration.perf_model.perf_pct(vcc)
            obs = DtmObservation(
                epoch=epoch,
                t_s=t_start + cfg.epoch_s,
                peak_c=float(system.solution_from(field_c).peak_temperature()),
                ceiling_c=calibration.ceiling_c,
                vcc=vcc,
                power_w=power_w,
                activity=activity,
                epoch_s=cfg.epoch_s,
                tau_s=calibration.tau_s,
                epoch_response=calibration.epoch_response,
                ambient_c=ambient,
                rise_per_watt=calibration.rise_per_watt,
                vcc_min=cfg.vcc_min,
                vcc_max=cfg.vcc_max,
            )
            next_vcc = obs.clamp(policy.decide(obs))
            results[row].epochs.append(
                EpochTrace(
                    epoch=epoch,
                    t_s=obs.t_s,
                    activity=activity,
                    vcc=vcc,
                    power_w=power_w,
                    power_breakdown_w=breakdown,
                    perf_pct=perf_by_key[row][key],
                    peak_c=obs.peak_c,
                    throttled=next_vcc < vcc - 1e-12,
                )
            )
            vccs[row] = next_vcc
    return results


def _nominal_breakdown(nominal_w: float) -> Dict[str, float]:
    """The 3D block-level power roll-up scaled to the floorplan's watts.

    The roll-up's component *shares* come from ``uarch.power`` (Section
    4's scaling rules applied to the planar skew); the total is pinned
    to the floorplan's dissipated power so the thermal side and the
    power model agree on what "factor 1.0" means.
    """
    rolled = stacked_power_breakdown(planar_power_breakdown())
    scale = nominal_w / rolled.total
    return {
        "logic": rolled.logic * scale,
        "clock_grid": rolled.clock_grid * scale,
        "latches": rolled.latches * scale,
        "repeaters": rolled.repeaters * scale,
        "leakage": rolled.leakage * scale,
    }

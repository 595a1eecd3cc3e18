"""Registry of the paper's tables and figures as runnable experiments.

Every evaluation artifact of the paper maps to one entry here; each
entry's ``run`` callable executes the experiment (possibly scaled down
via keyword arguments) and returns a result dictionary.
``repro.analysis`` renders them next to the published values, and
``repro.validation`` grades them against those values.
"""

from __future__ import annotations

import hashlib
import json
import traceback
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.oracles.report import oracle_report, reset_oracles
from repro.resilience.errors import ReproError


def task_fingerprint(
    experiment_id: str, kwargs: Optional[Dict[str, Any]] = None
) -> str:
    """Stable hash of one exact experiment invocation.

    Canonical-JSON over ``(experiment_id, kwargs)``: the campaign
    journal keys resume decisions on this, and an outcome carrying it
    can be re-run in isolation bit-for-bit from the journaled kwargs
    (a seed, where given, is one of them).
    """
    blob = json.dumps(
        {"experiment_id": experiment_id, "kwargs": kwargs or {}},
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class Experiment:
    """One reproducible table/figure.

    Attributes:
        id: Paper artifact id, e.g. ``"figure-5"``.
        title: What the paper reports.
        paper_values: The published numbers (for comparison output).
        run: Callable producing measured values.
    """

    id: str
    title: str
    paper_values: Dict[str, Any]
    run: Callable[..., Dict[str, Any]]


@dataclass
class ExperimentOutcome:
    """Result of a guarded experiment run (see :func:`run_experiment`).

    Attributes:
        experiment_id: Which experiment ran.
        ok: True if the run completed.
        result: The measured values (empty on failure).
        error: Stringified failure, or None.
        error_type: Exception class name, or None.
        partial: Intermediate results the failing engine surfaced via
            :class:`~repro.resilience.errors.ReproError.partial`.
        kwargs: Keyword arguments the experiment ran with.
        fingerprint: :func:`task_fingerprint` of (id, kwargs) — a
            journaled failure plus this pair reproduces the run
            bit-for-bit.
        oracles: Structured :class:`~repro.oracles.report.OracleReport`
            dict for this run — check counts, violations, and whether
            the result is ``degraded`` (oracle fired, run fell back to
            a trusted path).  Empty when oracles were off.
    """

    experiment_id: str
    ok: bool
    result: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None
    error_type: Optional[str] = None
    partial: Dict[str, Any] = field(default_factory=dict)
    kwargs: Dict[str, Any] = field(default_factory=dict)
    fingerprint: str = ""
    oracles: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable view (CLI ``--json``, worker results)."""
        return asdict(self)


class ExperimentRegistry:
    """Name-indexed registry of the paper's runnable artifacts."""

    def __init__(self) -> None:
        self._experiments: Dict[str, Experiment] = {}

    def register(self, experiment: Experiment) -> Experiment:
        if experiment.id in self._experiments:
            raise ValueError(f"experiment {experiment.id!r} already registered")
        self._experiments[experiment.id] = experiment
        return experiment

    def get(self, experiment_id: str) -> Experiment:
        """Look up an experiment; a miss names every valid id."""
        try:
            return self._experiments[experiment_id]
        except KeyError:
            raise KeyError(
                f"unknown experiment {experiment_id!r}; "
                f"known: {sorted(self._experiments)}"
            ) from None

    def list(self) -> List[str]:
        """All registered experiment ids, in registration order."""
        return list(self._experiments)

    def __iter__(self) -> Iterator[Experiment]:
        return iter(self._experiments.values())

    def __contains__(self, experiment_id: str) -> bool:
        return experiment_id in self._experiments

    def __len__(self) -> int:
        return len(self._experiments)


def _run_figure3(**kwargs: Any) -> Dict[str, Any]:
    """Figure 3: peak temperature vs. Cu-metal / bond-layer conductivity."""
    from repro.floorplan.pentium4 import pentium4_3d_floorplans
    from repro.thermal.solver import SolverConfig, solve_steady_state
    from repro.thermal.stack import DieSpec, build_stack

    nx = kwargs.get("nx", 48)
    sweep = kwargs.get("conductivities", [60.0, 30.0, 12.0, 6.0, 3.0])
    bottom, top = pentium4_3d_floorplans()
    base = build_stack([DieSpec(bottom), DieSpec(top)])
    config = SolverConfig(nx=nx, ny=nx)
    cu_curve: Dict[float, float] = {}
    bond_curve: Dict[float, float] = {}
    for k in sweep:
        s_cu = base.replace_layer(base.layer("metal-1").with_conductivity(k))
        s_cu = s_cu.replace_layer(s_cu.layer("metal-2").with_conductivity(k))
        cu_curve[k] = solve_steady_state(s_cu, config).peak_temperature()
        s_bond = base.replace_layer(base.layer("bond-1").with_conductivity(k))
        bond_curve[k] = solve_steady_state(s_bond, config).peak_temperature()
    return {"cu_metal": cu_curve, "bond": bond_curve}


def _run_figure5(**kwargs: Any) -> Dict[str, Any]:
    """Figure 5: CPMA and off-die bandwidth, 12 RMS workloads x 4 caches.

    ``cells_derived_64mb`` counts the workloads whose 64 MB cell is a
    copy of their 32 MB cell (see ``run_performance_study``).
    """
    from repro.core.memory_on_logic import run_performance_study

    result = run_performance_study(
        workloads=kwargs.get("workloads"),
        scale=kwargs.get("scale", 8),
        length_factor=kwargs.get("length_factor", 1.0),
        seed=kwargs.get("seed", 1234),
    )
    return {
        "cpma": result.cpma,
        "bandwidth": result.bandwidth,
        "avg_cpma_reduction_32mb": result.cpma_reduction("3D 32MB"),
        "max_cpma_reduction_32mb": result.max_cpma_reduction("3D 32MB"),
        "bus_power_reduction_32mb": result.bus_power_reduction("3D 32MB"),
        "cells_derived_64mb": len(result.derived_64mb),
    }


def _run_figure6(**kwargs: Any) -> Dict[str, Any]:
    """Figure 6: baseline Core 2 Duo thermal map (88.35 C peak / 59 C).

    ``peak_c_fine`` is the peak on the grid with twice the die cells
    (``2 * nx``): its distance from ``peak_c`` is the grid error.
    """
    from repro.floorplan.core2duo import core2duo_floorplan
    from repro.thermal.solver import SolverConfig, solve_steady_state
    from repro.thermal.stack import DieSpec, build_stack

    nx = kwargs.get("nx", 48)
    stack = build_stack([DieSpec(core2duo_floorplan())])
    solution = solve_steady_state(stack, SolverConfig(nx=nx, ny=nx))
    fine = solve_steady_state(stack, SolverConfig(nx=2 * nx, ny=2 * nx))
    return {
        "peak_c": solution.peak_temperature(),
        "coolest_c": solution.coolest_on_die(),
        "hottest_layer": solution.hottest_layer(),
        "peak_c_fine": fine.peak_temperature(),
    }


def _run_figure8(**kwargs: Any) -> Dict[str, Any]:
    """Figure 8: peak temperature of the four Memory+Logic stack configs."""
    from repro.core.memory_on_logic import run_thermal_study
    from repro.thermal.solver import SolverConfig

    nx = kwargs.get("nx", 48)
    return run_thermal_study(SolverConfig(nx=nx, ny=nx))


def _run_figure11(**kwargs: Any) -> Dict[str, Any]:
    """Figure 11: Logic+Logic thermals (2D baseline / 3D / 3D worst case)."""
    from repro.core.logic_on_logic import run_thermal_study
    from repro.thermal.solver import SolverConfig

    nx = kwargs.get("nx", 48)
    return run_thermal_study(SolverConfig(nx=nx, ny=nx))


def _run_table4(**kwargs: Any) -> Dict[str, Any]:
    """Table 4: pipe stages eliminated and per-area performance gains."""
    from repro.core.logic_on_logic import run_performance_study

    result = run_performance_study()
    return {
        "per_row_gains_pct": result.per_row_gains,
        "total_gain_pct": result.total_gain_pct,
        "stages_eliminated_pct": result.stages_eliminated_pct,
    }


def _run_table5(**kwargs: Any) -> Dict[str, Any]:
    """Table 5: voltage/frequency scaling points of the 3D floorplan."""
    from repro.core.logic_on_logic import run_logic_study
    from repro.thermal.solver import SolverConfig

    nx = kwargs.get("nx", 48)
    result = run_logic_study(
        solver=SolverConfig(nx=nx, ny=nx),
        solve_temp_point=kwargs.get("solve_temp_point", False),
    )
    return {
        "rows": [
            {
                "name": p.name,
                "vcc": p.vcc,
                "freq": p.freq,
                "power_w": p.power_w,
                "power_pct": p.power_pct,
                "perf_pct": p.perf_pct,
                "temp_c": p.temp_c,
            }
            for p in result.table5
        ]
    }


def _run_table5_dynamic(**kwargs: Any) -> Dict[str, Any]:
    """table5_dynamic: closed-loop DVFS convergence to the Same Temp point.

    Where ``table-5`` *solves* for the Same Temp voltage analytically,
    this experiment *finds* it dynamically: the predictive DTM policy
    steers the coupled thermal/performance loop from a cold start at
    full V/f until the stack parks where its steady peak matches the
    planar ceiling.  The converged operating point is the mean of the
    trailing epochs.
    """
    from repro.coupled import (
        CoupledConfig,
        PredictiveDtm,
        constant_load,
        run_coupled_loop,
    )
    from repro.uarch.dvfs import PLANAR_POWER_W

    config = CoupledConfig(
        nx=kwargs.get("nx", 20),
        n_epochs=kwargs.get("n_epochs", 40),
        epoch_s=kwargs.get("epoch_s", 2.0),
        dt_s=kwargs.get("dt_s", 0.5),
    )
    result = run_coupled_loop(PredictiveDtm(), constant_load(1.0), config)
    tail = result.epochs[-min(5, len(result.epochs)):]
    vcc = sum(e.vcc for e in tail) / len(tail)
    power_w = sum(e.power_w for e in tail) / len(tail)
    perf_pct = sum(e.perf_pct for e in tail) / len(tail)
    out = result.to_dict()
    out["converged"] = {
        "vcc": vcc,
        "freq": vcc,
        "power_w": power_w,
        "power_pct": 100.0 * power_w / PLANAR_POWER_W,
        "perf_pct": perf_pct,
    }
    return out


def _run_dtm_load_spike(**kwargs: Any) -> Dict[str, Any]:
    """dtm_load_spike: every DTM policy vs. a bursty load-spike schedule.

    The no-DTM control run must bust the thermal ceiling during the
    sustained spikes; each throttling policy must ride them out below
    it.  A steady-state study cannot express this scenario at all —
    it is the closed loop's reason to exist.
    """
    from repro.coupled import (
        CoupledConfig,
        NoDtm,
        PidDtm,
        PredictiveDtm,
        ThresholdDtm,
        bursty_load_spikes,
        run_coupled_policies,
    )

    config = CoupledConfig(
        nx=kwargs.get("nx", 20),
        n_epochs=kwargs.get("n_epochs", 64),
        epoch_s=kwargs.get("epoch_s", 1.0),
        dt_s=kwargs.get("dt_s", 0.5),
        start="steady",
    )
    load = bursty_load_spikes(seed=kwargs.get("seed", 0))
    # Per-policy knobs: the threshold actuator slews 3%/epoch to keep
    # pace with the ramp; the PID needs the widest guard because it is
    # purely reactive (no lookahead, no immediate full-range actuation).
    policies = [
        NoDtm(),
        ThresholdDtm(vcc_step=0.03),
        PidDtm(guard_c=6.0),
        PredictiveDtm(),
    ]
    runs = {
        r.policy: r for r in run_coupled_policies(policies, load, config)
    }
    return {
        "ceiling_c": runs["none"].ceiling_c,
        "policies": {name: r.summary() for name, r in runs.items()},
        "control_exceeded_epochs": runs["none"].exceeded_epochs,
        "dtm_exceeded_epochs": {
            name: r.exceeded_epochs
            for name, r in runs.items()
            if name != "none"
        },
    }


def _run_dtm_policy_compare(**kwargs: Any) -> Dict[str, Any]:
    """dtm_policy_compare: performance/temperature Pareto of the policies.

    All four policies run the design-point workload from a warm
    (full-power steady) start — hotter than the ceiling, so every
    controller must pull the stack down and then hold it.  The
    summaries feed the Pareto comparison in ``repro.analysis``.
    """
    from repro.coupled import (
        CoupledConfig,
        NoDtm,
        PidDtm,
        PredictiveDtm,
        ThresholdDtm,
        constant_load,
        run_coupled_policies,
    )

    config = CoupledConfig(
        nx=kwargs.get("nx", 20),
        n_epochs=kwargs.get("n_epochs", 30),
        epoch_s=kwargs.get("epoch_s", 2.0),
        dt_s=kwargs.get("dt_s", 0.5),
        start="steady",
    )
    runs = run_coupled_policies(
        [NoDtm(), ThresholdDtm(), PidDtm(), PredictiveDtm()],
        constant_load(1.0),
        config,
    )
    summaries = [r.summary() for r in runs]
    return {"policies": summaries}


def _run_headlines(**kwargs: Any) -> Dict[str, Any]:
    """Section 3/4 headline numbers (perf gain, power saving, stages)."""
    from repro.core.logic_on_logic import run_performance_study

    logic = run_performance_study()
    return {
        "logic_perf_gain_pct": logic.total_gain_pct,
        "logic_power_reduction_pct": logic.power_reduction_pct,
        "stages_eliminated_pct": logic.stages_eliminated_pct,
    }


REGISTRY = ExperimentRegistry()
for _experiment in [
        Experiment(
            id="figure-3",
            title="Peak temperature vs Cu-metal and bond-layer conductivity",
            paper_values={
                "shape": "both curves fall with k; Cu metal is steeper",
                "cu_range_c": (82.5, 89.0),
                "bond_range_c": (82.5, 86.5),
            },
            run=_run_figure3,
        ),
        Experiment(
            id="figure-5",
            title="CPMA and off-die BW for 12 RMS workloads x 4 capacities",
            paper_values={
                "avg_cpma_reduction_32mb": 0.13,
                "max_cpma_reduction_32mb": 0.55,
                "bus_power_reduction_32mb": 0.66,
                "bw_reduction_32mb": "3x",
                "winners": ["gauss", "pcg", "smvm", "strans", "sus", "svm"],
            },
            run=_run_figure5,
        ),
        Experiment(
            id="figure-6",
            title="Baseline Core 2 Duo thermal map",
            paper_values={"peak_c": 88.35, "coolest_c": 59.0},
            run=_run_figure6,
        ),
        Experiment(
            id="figure-8",
            title="Peak temperature of the four Memory+Logic configurations",
            paper_values={
                "2D 4MB": 88.35,
                "3D 12MB": 92.85,
                "3D 32MB": 88.43,
                "3D 64MB": 90.27,
            },
            run=_run_figure8,
        ),
        Experiment(
            id="figure-11",
            title="Logic+Logic thermals: baseline / 3D / worst case",
            paper_values={
                "2D Baseline": 98.6,
                "3D": 112.5,
                "3D Worstcase": 124.75,
            },
            run=_run_figure11,
        ),
        Experiment(
            id="table-4",
            title="Pipe stages eliminated and per-area performance gains",
            paper_values={
                "front_end": 0.2,
                "trace_cache": 0.33,
                "rename_alloc": 0.66,
                "fp_wire": 4.0,
                "int_rf_read": 0.5,
                "data_cache_read": 1.5,
                "instruction_loop": 1.0,
                "retire_dealloc": 1.0,
                "fp_load": 2.0,
                "store_lifetime": 3.0,
                "total": 15.0,
                "stages_eliminated": 25.0,
            },
            run=_run_table4,
        ),
        Experiment(
            id="table-5",
            title="Voltage/frequency scaling of the 3D floorplan",
            paper_values={
                "Baseline": dict(power_w=147, perf_pct=100, temp_c=99, vcc=1.0, freq=1.0),
                "Same Pwr": dict(power_w=147, perf_pct=129, temp_c=127, vcc=1.0, freq=1.18),
                "Same Freq.": dict(power_w=125, perf_pct=115, temp_c=113, vcc=1.0, freq=1.0),
                "Same Temp": dict(power_w=97.28, perf_pct=108, temp_c=99, vcc=0.92, freq=0.92),
                "Same Perf.": dict(power_w=68.2, perf_pct=100, temp_c=77, vcc=0.82, freq=0.82),
            },
            run=_run_table5,
        ),
        Experiment(
            id="table5_dynamic",
            title="Closed-loop DVFS convergence to the Same Temp point",
            paper_values={
                "vcc": 0.92,
                "freq": 0.92,
                "power_w": 97.28,
                "power_pct": 66.0,
                "perf_pct": 108.0,
            },
            run=_run_table5_dynamic,
        ),
        Experiment(
            id="dtm_load_spike",
            title="DTM policies riding out bursty load spikes",
            paper_values={
                "control_exceeds_ceiling": True,
                "dtm_exceeds_ceiling": False,
            },
            run=_run_dtm_load_spike,
        ),
        Experiment(
            id="dtm_policy_compare",
            title="Performance/temperature Pareto of the DTM policies",
            paper_values={
                "policies": ["none", "threshold", "pid", "predictive"],
            },
            run=_run_dtm_policy_compare,
        ),
        Experiment(
            id="headlines",
            title="Section 3/4 headline results",
            paper_values={
                "logic_perf_gain_pct": 15.0,
                "logic_power_reduction_pct": 15.0,
            },
            run=_run_headlines,
        ),
]:
    REGISTRY.register(_experiment)


def get_experiment(experiment_id: str) -> Experiment:
    """Look up an experiment by its paper artifact id."""
    return REGISTRY.get(experiment_id)


def list_experiments() -> List[str]:
    """All registered experiment ids."""
    return REGISTRY.list()


def run_experiment(
    experiment_id: str,
    strict: bool = False,
    registry: Optional[ExperimentRegistry] = None,
    **kwargs: Any,
) -> ExperimentOutcome:
    """Run one experiment inside a run guard.

    On success the outcome carries the measured values; on failure it
    carries the structured error (class name + message) and whatever
    partial results the failing engine attached to its
    :class:`~repro.resilience.errors.ReproError`, so a long study that
    dies three figures in still reports the first two.

    Args:
        experiment_id: Registered artifact id (see :func:`list_experiments`).
        strict: If True, re-raise the failure instead of capturing it
            (lookup errors for unknown ids always raise).
        registry: Registry to resolve the id against (the module-level
            :data:`REGISTRY` by default).
        **kwargs: Forwarded to the experiment's ``run`` callable and
            hashed into the fingerprint.  ``seed`` is one of them: the
            experiments that draw random inputs (``figure-5``,
            ``dtm_load_spike``) read it, the rest ignore it.
    """
    experiment = (registry or REGISTRY).get(experiment_id)
    fingerprint = task_fingerprint(experiment_id, kwargs)
    # Oracle scoreboard is per-run: reset here so the outcome's report
    # covers exactly this experiment, success or failure.
    reset_oracles()
    try:
        result = experiment.run(**kwargs)
    except Exception as exc:
        if strict:
            raise
        return ExperimentOutcome(
            experiment_id=experiment_id,
            ok=False,
            error=f"{exc}" or traceback.format_exc(limit=1).strip(),
            error_type=type(exc).__name__,
            partial=dict(exc.partial) if isinstance(exc, ReproError) else {},
            kwargs=dict(kwargs),
            fingerprint=fingerprint,
            oracles=_collect_oracles(),
        )
    return ExperimentOutcome(
        experiment_id=experiment_id,
        ok=True,
        result=result,
        kwargs=dict(kwargs),
        fingerprint=fingerprint,
        oracles=_collect_oracles(),
    )


def _collect_oracles() -> Dict[str, Any]:
    """Snapshot the oracle scoreboard; empty when oracles are off."""
    report = oracle_report()
    if report.mode == "off" and report.total_checks == 0:
        return {}
    return report.to_dict()

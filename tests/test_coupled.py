"""Tests for the closed-loop thermal/DVFS co-simulation.

Covers the workload drivers, the three DTM policies against hand-built
observations, the engine's epoch loop on a small grid, the calibration
shared by the policies of one run, the registered experiments
(``table5_dynamic``, ``dtm_load_spike``, ``dtm_policy_compare``) against
their Table 5 acceptance criteria, the analysis reports, the bench
pair, and the ``dtm`` CLI subcommand.
"""

import json
from dataclasses import replace

import pytest

import repro.coupled.engine as engine
import repro.thermal.model as thermal_model
from repro.analysis.coupled import (
    format_epoch_trace,
    format_policy_comparison,
    format_spike_report,
    pareto_front,
)
from repro.bench.suite import bench_coupled_loop
from repro.cli import main
from repro.core.experiments import REGISTRY, run_experiment
from repro.coupled import (
    CoupledConfig,
    DtmObservation,
    NoDtm,
    PidDtm,
    PredictiveDtm,
    ThresholdDtm,
    bursty_load_spikes,
    calibrate,
    constant_load,
    make_policy,
    run_coupled_loop,
    step_load,
)
from repro.coupled.drivers import SPIKE_JITTER
from repro.uarch.dvfs import power_3d_w

#: Small-grid engine config shared by the integration tests: big enough
#: for a physical field, small enough that the whole class runs in
#: seconds.
TINY = CoupledConfig(
    nx=10,
    n_epochs=4,
    epoch_s=1.0,
    dt_s=0.5,
    calibration_s=5.0,
    calibration_dt_s=0.5,
)


def mkobs(**overrides):
    """A plausible mid-run observation; override what the test varies."""
    base = dict(
        epoch=3,
        t_s=8.0,
        peak_c=90.0,
        ceiling_c=97.0,
        vcc=0.90,
        power_w=100.0,
        activity=1.0,
        epoch_s=2.0,
        tau_s=1.0,
        epoch_response=1.0,
        ambient_c=45.0,
        rise_per_watt=0.5,
        vcc_min=0.70,
        vcc_max=1.00,
    )
    base.update(overrides)
    return DtmObservation(**base)


@pytest.fixture(scope="module")
def tiny_run():
    return run_coupled_loop(ThresholdDtm(), constant_load(1.0), TINY)


class TestDrivers:
    def test_constant_load(self):
        load = constant_load(0.8)
        assert load(0, 0.0) == 0.8
        assert load(17, 99.0) == 0.8

    def test_constant_load_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            constant_load(-0.1)

    def test_step_load(self):
        load = step_load(0.5, 1.2, t_step_s=10.0)
        assert load(0, 0.0) == 0.5
        assert load(5, 10.0) == 1.2
        assert load(9, 99.0) == 1.2

    def test_bursty_deterministic(self):
        a = bursty_load_spikes(seed=7)
        b = bursty_load_spikes(seed=7)
        assert [a(e, 0.0) for e in range(64)] == [
            b(e, 0.0) for e in range(64)
        ]
        c = bursty_load_spikes(seed=8)
        assert [a(e, 0.0) for e in range(64)] != [
            c(e, 0.0) for e in range(64)
        ]

    def test_bursty_shape(self):
        load = bursty_load_spikes(
            seed=0, base=0.6, spike=1.2, period=32, burst=16, ramp=8
        )
        # Quiet phase leads each period; the burst fills its tail.
        for epoch in range(16):
            assert load(epoch, 0.0) <= 0.6 * (1 + SPIKE_JITTER)
        # The ramp climbs toward the spike, then holds there.
        levels = [load(e, 0.0) for e in range(16, 32)]
        assert levels[0] < levels[4] < levels[7]
        for level in levels[7:]:
            assert level >= 1.2 * (1 - SPIKE_JITTER)
        # The next period starts quiet again.
        assert load(32, 0.0) <= 0.6 * (1 + SPIKE_JITTER)

    def test_bursty_validation(self):
        with pytest.raises(ValueError, match="shorter than the period"):
            bursty_load_spikes(period=16, burst=16)
        with pytest.raises(ValueError, match="ramp"):
            bursty_load_spikes(burst=16, ramp=17)
        with pytest.raises(ValueError, match="ramp"):
            bursty_load_spikes(ramp=0)


class TestThresholdDtm:
    def test_steps_down_above_setpoint(self):
        policy = ThresholdDtm(vcc_step=0.02, guard_c=3.0, band_c=2.0)
        obs = mkobs(peak_c=95.0, vcc=0.90)  # setpoint 94
        assert policy.decide(obs) == pytest.approx(0.88)

    def test_steps_up_below_band(self):
        policy = ThresholdDtm(vcc_step=0.02, guard_c=3.0, band_c=2.0)
        obs = mkobs(peak_c=91.0, vcc=0.90)  # below 94 - 2
        assert policy.decide(obs) == pytest.approx(0.92)

    def test_holds_inside_band(self):
        policy = ThresholdDtm(vcc_step=0.02, guard_c=3.0, band_c=2.0)
        obs = mkobs(peak_c=93.0, vcc=0.90)
        assert policy.decide(obs) == pytest.approx(0.90)

    def test_clamps_at_floor(self):
        policy = ThresholdDtm()
        obs = mkobs(peak_c=99.0, vcc=0.70)
        assert policy.decide(obs) == pytest.approx(0.70)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError, match="positive"):
            ThresholdDtm(vcc_step=0.0)
        with pytest.raises(ValueError, match="positive"):
            ThresholdDtm(band_c=-1.0)


class TestPidDtm:
    def test_throttles_when_hot(self):
        policy = PidDtm()
        obs = mkobs(peak_c=98.0, vcc=0.90)  # error = 94 - 98 < 0
        assert policy.decide(obs) < 0.90

    def test_speeds_up_when_cool(self):
        policy = PidDtm()
        obs = mkobs(peak_c=80.0, vcc=0.90)
        assert policy.decide(obs) > 0.90

    def test_reset_clears_history(self):
        policy = PidDtm()
        first = policy.decide(mkobs(peak_c=98.0, vcc=0.90))
        policy.reset()
        again = policy.decide(mkobs(peak_c=98.0, vcc=0.90))
        # The velocity form primes on the first post-reset call, so an
        # identical observation must yield the identical decision.
        assert again == pytest.approx(first)


class TestPredictiveDtm:
    def test_parks_at_setpoint(self):
        # epoch_response = 1 makes the one-epoch projection the steady
        # map itself, so the bisection should land exactly where
        # ambient + rise_per_watt * P(v) equals the setpoint.
        policy = PredictiveDtm(guard_c=3.0)
        obs = mkobs(epoch_response=1.0)
        vcc = policy.decide(obs)
        setpoint = obs.ceiling_c - 3.0

        def t_ss(v):
            return obs.ambient_c + obs.rise_per_watt * power_3d_w(v, v)

        assert obs.vcc_min < vcc < obs.vcc_max
        assert t_ss(vcc) <= setpoint
        assert t_ss(vcc + 5e-4) > setpoint

    def test_full_speed_when_cool_enough(self):
        # A generous ceiling: even vcc_max projects under the setpoint.
        policy = PredictiveDtm(guard_c=3.0)
        obs = mkobs(epoch_response=1.0, ceiling_c=200.0)
        assert policy.decide(obs) == obs.vcc_max

    def test_floor_when_hopeless(self):
        policy = PredictiveDtm(guard_c=3.0)
        obs = mkobs(epoch_response=1.0, ceiling_c=50.0)
        assert policy.decide(obs) == obs.vcc_min

    def test_activity_trend_extrapolation(self):
        # A ramping load: the second decision extrapolates the trend
        # (activity 0.5 -> 1.0 projects 1.5) and throttles harder than
        # a fresh policy that only sees the persistence level 1.0.
        ramped = PredictiveDtm(guard_c=3.0)
        ramped.decide(mkobs(epoch_response=1.0, activity=0.5))
        trending = ramped.decide(mkobs(epoch_response=1.0, activity=1.0))
        fresh = PredictiveDtm(guard_c=3.0)
        persistence = fresh.decide(mkobs(epoch_response=1.0, activity=1.0))
        assert trending < persistence

    def test_tau_fallback_without_epoch_response(self):
        # With no measured response the projection falls back to the
        # single-tau exponential; a long epoch relative to tau still
        # converges near the steady parking point.
        policy = PredictiveDtm(guard_c=3.0)
        obs = mkobs(epoch_response=0.0, tau_s=0.1, epoch_s=10.0)
        vcc = policy.decide(obs)
        assert obs.vcc_min < vcc < obs.vcc_max


class TestPolicyFactory:
    def test_known_names(self):
        assert isinstance(make_policy("none"), NoDtm)
        assert isinstance(make_policy("threshold"), ThresholdDtm)
        assert isinstance(make_policy("pid"), PidDtm)
        assert isinstance(make_policy("predictive"), PredictiveDtm)

    def test_kwargs_forwarded(self):
        policy = make_policy("threshold", vcc_step=0.05)
        assert policy.vcc_step == 0.05

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown DTM policy"):
            make_policy("bangbang")

    def test_no_dtm_holds(self):
        assert NoDtm().decide(mkobs(peak_c=120.0, vcc=0.95)) == 0.95


class TestCoupledConfig:
    def test_rejects_nonpositive_epoch(self):
        with pytest.raises(ValueError, match="positive"):
            CoupledConfig(epoch_s=0.0)

    def test_rejects_bad_vcc_ordering(self):
        with pytest.raises(ValueError, match="vcc_min"):
            CoupledConfig(vcc_min=0.9, vcc_init=0.8)

    def test_rejects_unknown_start(self):
        with pytest.raises(ValueError, match="start"):
            CoupledConfig(start="lukewarm")


class TestEngine:
    def test_trace_shape(self, tiny_run):
        assert len(tiny_run.epochs) == TINY.n_epochs
        assert tiny_run.policy == "threshold"
        assert tiny_run.ceiling_c > 0
        assert tiny_run.tau_s > 0
        for trace in tiny_run.epochs:
            assert trace.peak_c > 0
            assert TINY.vcc_min <= trace.vcc <= TINY.vcc_max
            assert trace.power_w == pytest.approx(
                sum(trace.power_breakdown_w.values())
            )

    def test_cold_start_heats_monotonically(self):
        # Constant full load from ambient with no throttling: each
        # epoch ends hotter (the throttled tiny_run dips once the
        # threshold policy engages).
        run = run_coupled_loop(NoDtm(), constant_load(1.0), TINY)
        peaks = [e.peak_c for e in run.epochs]
        assert peaks == sorted(peaks)
        assert peaks[0] < peaks[-1]

    def test_deterministic(self, tiny_run):
        again = run_coupled_loop(ThresholdDtm(), constant_load(1.0), TINY)
        assert [e.peak_c for e in again.epochs] == [
            e.peak_c for e in tiny_run.epochs
        ]
        assert [e.vcc for e in again.epochs] == [
            e.vcc for e in tiny_run.epochs
        ]

    def test_steady_start_is_warm(self):
        run = run_coupled_loop(
            NoDtm(),
            constant_load(1.0),
            CoupledConfig(
                nx=10,
                n_epochs=2,
                epoch_s=1.0,
                dt_s=0.5,
                start="steady",
                calibration_s=5.0,
                calibration_dt_s=0.5,
            ),
        )
        # A warm platform under unchanged load barely moves.
        assert abs(run.epochs[-1].peak_c - run.epochs[0].peak_c) < 1.0

    def test_power_scales_with_vcc_cubed(self, tiny_run):
        nominal = tiny_run.nominal_power_w
        full = tiny_run.epochs[0]
        assert full.vcc == 1.0
        assert full.power_w == pytest.approx(nominal, rel=1e-9)

    def test_negative_activity_rejected(self):
        with pytest.raises(ValueError, match="negative activity"):
            run_coupled_loop(NoDtm(), lambda epoch, t_s: -0.5, TINY)

    def test_dict_roundtrip(self, tiny_run):
        out = tiny_run.to_dict()
        assert out["policy"] == "threshold"
        assert len(out["epochs"]) == TINY.n_epochs
        summary = tiny_run.summary()
        for key in (
            "final_vcc", "max_peak_c", "exceeded_epochs",
            "avg_perf_pct", "energy_j",
        ):
            assert key in summary
        assert tiny_run.energy_j == pytest.approx(
            sum(e.power_w * TINY.epoch_s for e in tiny_run.epochs)
        )


@pytest.fixture(scope="module")
def tiny_calibration():
    return calibrate(TINY)


class TestCalibration:
    @pytest.mark.parametrize(
        "policy", [NoDtm, ThresholdDtm, PidDtm, PredictiveDtm]
    )
    def test_shared_calibration_is_bit_identical(
        self, policy, tiny_calibration
    ):
        # One calibration object serves all four policies in turn, as in
        # the multi-policy experiments.
        load = bursty_load_spikes(seed=3, period=4, burst=2, ramp=1)
        shared = run_coupled_loop(policy(), load, TINY, tiny_calibration)
        alone = run_coupled_loop(policy(), load, TINY)
        assert shared.to_dict() == alone.to_dict()

    def test_steady_field_is_read_only(self, tiny_calibration):
        with pytest.raises(ValueError):
            tiny_calibration.steady_field[0] = 0.0

    def test_calibration_of_another_config_rejected(self, tiny_calibration):
        other = CoupledConfig(
            nx=12, n_epochs=4, epoch_s=1.0, dt_s=0.5,
            calibration_s=5.0, calibration_dt_s=0.5,
        )
        with pytest.raises(ValueError, match="calibration was computed"):
            run_coupled_loop(NoDtm(), None, other, tiny_calibration)

    def test_policy_only_fields_share_a_calibration(self, tiny_calibration):
        # n_epochs, dt_s, start and the vcc range do not enter it.
        other = replace(TINY, n_epochs=2, start="steady", vcc_init=0.9)
        run = run_coupled_loop(NoDtm(), None, other, tiny_calibration)
        assert len(run.epochs) == 2

    @pytest.fixture
    def counts(self, monkeypatch):
        """Count the calibration's steady solves and warm-up transients."""
        counts = {"steady": 0, "warmup": 0}

        def counted_steady(original):
            def wrapper(*args, **kwargs):
                counts["steady"] += 1
                return original(*args, **kwargs)
            return wrapper

        def counted_transient(*args, **kwargs):
            if kwargs.get("initial") is None:
                counts["warmup"] += 1
            return transient(*args, **kwargs)

        transient = engine.solve_transient
        monkeypatch.setattr(engine, "solve_transient", counted_transient)
        for module in (engine, thermal_model):
            monkeypatch.setattr(
                module, "solve_steady_state",
                counted_steady(module.solve_steady_state),
            )
        return counts

    @pytest.mark.parametrize(
        "experiment", ["dtm_load_spike", "dtm_policy_compare"]
    )
    def test_experiments_calibrate_once(self, counts, experiment):
        outcome = run_experiment(experiment, nx=10, n_epochs=2)
        assert outcome.ok, outcome.error
        assert counts == {"steady": 2, "warmup": 1}

    def test_cli_all_policies_calibrates_once(self, counts, capsys):
        code = main(
            ["dtm", "--policy", "all", "--load", "spike", "--nx", "10",
             "--epochs", "2", "--epoch-s", "1.0", "--dt", "0.5"]
        )
        assert code == 0
        assert "DTM policy comparison" in capsys.readouterr().out
        assert counts == {"steady": 2, "warmup": 1}


class TestRegisteredExperiments:
    def test_registered(self):
        for experiment_id in (
            "table5_dynamic", "dtm_load_spike", "dtm_policy_compare"
        ):
            assert experiment_id in REGISTRY
            assert REGISTRY.get(experiment_id).paper_values

    def test_table5_dynamic_converges_to_same_temp(self):
        outcome = run_experiment("table5_dynamic", seed=0)
        assert outcome.ok, outcome.error
        result = outcome.result
        converged = result["converged"]
        # Table 5's Same Temp point: Vcc ~0.92, ~66% of planar power,
        # ~108% of planar performance — reached closed-loop from a cold
        # start, never busting the planar-peak ceiling on the way.
        assert converged["vcc"] == pytest.approx(0.92, abs=0.04)
        assert 60.0 <= converged["power_pct"] <= 80.0
        assert converged["perf_pct"] > 100.0
        assert result["exceeded_epochs"] == 0

    def test_dtm_load_spike_control_vs_policies(self):
        outcome = run_experiment("dtm_load_spike", seed=0)
        assert outcome.ok, outcome.error
        result = outcome.result
        assert result["control_exceeded_epochs"] > 0
        assert result["dtm_exceeded_epochs"]
        for policy, exceeded in result["dtm_exceeded_epochs"].items():
            assert exceeded == 0, f"{policy} broke the ceiling"

    def test_dtm_policy_compare_shape(self):
        outcome = run_experiment("dtm_policy_compare", seed=0, nx=12)
        assert outcome.ok, outcome.error
        summaries = outcome.result["policies"]
        assert [s["policy"] for s in summaries] == [
            "none", "threshold", "pid", "predictive"
        ]
        # The unthrottled control runs hottest.
        none = next(s for s in summaries if s["policy"] == "none")
        assert none["max_peak_c"] == max(s["max_peak_c"] for s in summaries)


class TestAnalysisReports:
    def _summaries(self):
        def summary(policy, perf, peak):
            return {
                "policy": policy,
                "ceiling_c": 97.0,
                "tau_s": 1.0,
                "final_vcc": 0.9,
                "final_power_w": 100.0,
                "final_peak_c": peak,
                "max_peak_c": peak,
                "exceeded_epochs": 0,
                "avg_perf_pct": perf,
                "energy_j": 1000.0,
            }

        return [
            summary("a", 100.0, 90.0),
            summary("b", 90.0, 95.0),   # dominated by a
            summary("c", 100.0, 95.0),  # dominated by a
            summary("d", 110.0, 96.0),  # faster but hotter: on the front
        ]

    def test_pareto_front(self):
        assert pareto_front(self._summaries()) == [
            True, False, False, True
        ]

    def test_pareto_front_single(self):
        assert pareto_front(self._summaries()[:1]) == [True]

    def test_format_policy_comparison(self):
        text = format_policy_comparison(self._summaries())
        assert "DTM policy comparison" in text
        assert "pareto" in text
        assert "dominated" in text

    def test_format_epoch_trace(self, tiny_run):
        text = format_epoch_trace(tiny_run.to_dict())
        assert "policy=threshold" in text
        assert "peak_c" in text
        assert text.count("\n") >= TINY.n_epochs

    def test_format_epoch_trace_truncates(self, tiny_run):
        short = format_epoch_trace(tiny_run.to_dict(), max_rows=2)
        assert len(short) < len(format_epoch_trace(tiny_run.to_dict()))

    def test_format_spike_report(self):
        summaries = self._summaries()
        result = {
            "ceiling_c": 97.0,
            "policies": {s["policy"]: s for s in summaries},
            "control_exceeded_epochs": 20,
            "dtm_exceeded_epochs": {"threshold": 0, "pid": 0},
        }
        text = format_spike_report(result)
        assert "control exceeded 20 epochs" in text
        assert "PASS" in text
        result["dtm_exceeded_epochs"]["pid"] = 3
        assert "FAIL" in format_spike_report(result)


class TestBenchPair:
    def test_cold_and_warm_agree(self):
        res = bench_coupled_loop(nx=10, n_epochs=3, pairs=1)
        assert res.name == "coupled-loop"
        assert res.equivalent
        assert res.reference_s > 0
        assert res.optimized_s > 0


class TestDtmCli:
    ARGS = [
        "--nx", "10", "--epochs", "3", "--epoch-s", "1.0", "--dt", "0.5",
    ]

    def test_single_policy_trace(self, capsys):
        code = main(
            ["dtm", "--policy", "predictive", "--load", "constant"]
            + self.ARGS
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "policy=predictive" in out

    def test_all_policies_comparison(self, capsys):
        code = main(["dtm", "--load", "constant"] + self.ARGS)
        assert code == 0
        out = capsys.readouterr().out
        assert "DTM policy comparison" in out
        assert "pareto" in out

    def test_json_output(self, capsys):
        code = main(
            ["dtm", "--policy", "threshold", "--load", "constant",
             "--json"] + self.ARGS
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "threshold" in payload
        assert len(payload["threshold"]["epochs"]) == 3

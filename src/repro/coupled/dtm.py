"""Dynamic thermal management policies for the closed-loop engine.

One :class:`DtmPolicy` interface, three throttling strategies:

* :class:`ThresholdDtm` — a hysteresis band around a trigger setpoint:
  step V/f down above it, back up only once safely below the band.
* :class:`PidDtm` — a velocity-form PID on the setpoint error (the
  incremental form needs no integrator clamp to avoid windup).
* :class:`PredictiveDtm` — one-epoch lookahead: project next epoch's
  peak with the stack's first-order thermal time constant (measured via
  ``TransientResult.time_to_fraction``) and pick the fastest V/f whose
  projection stays at or below the setpoint.

All policies steer toward ``ceiling - guard``: the guard band absorbs
the one-epoch observation delay (a reactive controller only sees an
excursion after it happened) plus the multi-exponential dynamics a
single time constant cannot capture.

Frequency tracks voltage 1:1 over the range of interest (Table 5's
"1% for 1% in Vcc" conversion), so a policy decision is a single vcc.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.uarch.dvfs import power_3d_w

#: Default setpoint margin below the ceiling, Celsius.
DEFAULT_GUARD_C = 3.0

#: Threshold policy: V/f step per epoch and hysteresis band width.
DEFAULT_VCC_STEP = 0.02
DEFAULT_BAND_C = 2.0

#: PID gains (vcc per Celsius of error), tuned against the measured
#: loop gain of the Logic+Logic stack: ~2 C of steady peak rise per
#: 0.01 of vcc near the operating point, most of it realized within
#: one control epoch, so per-epoch loop gain is ~100 C per unit vcc —
#: larger gains period-2 oscillate.  Derivative action defaults off:
#: on a jittery workload it differentiates measurement noise straight
#: into the actuator.
DEFAULT_KP = 0.004
DEFAULT_KI = 0.0040
DEFAULT_KD = 0.0

#: Predictive policy: bisection resolution on vcc.
_PREDICT_TOL = 1e-4


@dataclass(frozen=True)
class DtmObservation:
    """What the controller sees at the end of a control epoch.

    Attributes:
        epoch: Control epoch index (0-based) just simulated.
        t_s: Simulated time at the epoch's end, seconds.
        peak_c: Observed peak on-die temperature, Celsius.
        ceiling_c: The thermal ceiling the policy must respect.
        vcc: V/f point the epoch ran at (freq = vcc).
        power_w: Total power dissipated during the epoch, watts.
        activity: Workload activity factor during the epoch.
        epoch_s: Control epoch length, seconds.
        tau_s: First-order thermal time constant of the stack, seconds.
        epoch_response: Fraction of a power step's eventual peak rise
            realized within one control epoch, measured from the
            warm-up transient (0 < fraction <= 1).  More faithful than
            ``1 - exp(-epoch_s / tau_s)`` because the stack's response
            is multi-exponential.
        ambient_c: Ambient temperature, Celsius.
        rise_per_watt: Steady-state peak rise per watt (linear in power).
        vcc_min: Lowest V/f the platform supports.
        vcc_max: Highest V/f the platform supports.
    """

    epoch: int
    t_s: float
    peak_c: float
    ceiling_c: float
    vcc: float
    power_w: float
    activity: float
    epoch_s: float
    tau_s: float
    epoch_response: float
    ambient_c: float
    rise_per_watt: float
    vcc_min: float
    vcc_max: float

    def clamp(self, vcc: float) -> float:
        """Clamp a candidate V/f into the platform's range."""
        return min(self.vcc_max, max(self.vcc_min, vcc))


class DtmPolicy(ABC):
    """Chooses the next control epoch's V/f from the observed state."""

    #: Short policy name for traces and reports.
    name: str = "dtm"

    @abstractmethod
    def decide(self, obs: DtmObservation) -> float:
        """The vcc (= freq) the next epoch should run at."""

    def reset(self) -> None:
        """Drop accumulated controller state before a fresh run."""


class NoDtm(DtmPolicy):
    """The control run: no throttling, V/f pinned wherever it started."""

    name = "none"

    def decide(self, obs: DtmObservation) -> float:
        return obs.vcc


class ThresholdDtm(DtmPolicy):
    """Hysteresis throttling around ``ceiling - guard``.

    Above the setpoint: step vcc down.  Below the setpoint by more than
    the band: step back up.  Inside the band: hold — the band keeps the
    controller from chattering between the two actions every epoch.
    """

    name = "threshold"

    def __init__(
        self,
        vcc_step: float = DEFAULT_VCC_STEP,
        guard_c: float = DEFAULT_GUARD_C,
        band_c: float = DEFAULT_BAND_C,
    ) -> None:
        if vcc_step <= 0 or band_c <= 0:
            raise ValueError("vcc_step and band_c must be positive")
        self.vcc_step = vcc_step
        self.guard_c = guard_c
        self.band_c = band_c

    def decide(self, obs: DtmObservation) -> float:
        setpoint = obs.ceiling_c - self.guard_c
        if obs.peak_c > setpoint:
            return obs.clamp(obs.vcc - self.vcc_step)
        if obs.peak_c < setpoint - self.band_c:
            return obs.clamp(obs.vcc + self.vcc_step)
        return obs.vcc


class PidDtm(DtmPolicy):
    """Velocity-form PID on the setpoint error.

    ``dv = kp*(e - e_prev) + ki*e*dt + kd*(e - 2*e_prev + e_prev2)/dt``
    with ``e = (ceiling - guard) - peak``; the increment is applied to
    the current vcc and clamped.  Because only increments are
    integrated, saturation at the V/f limits cannot wind up an internal
    accumulator.
    """

    name = "pid"

    def __init__(
        self,
        kp: float = DEFAULT_KP,
        ki: float = DEFAULT_KI,
        kd: float = DEFAULT_KD,
        guard_c: float = DEFAULT_GUARD_C,
    ) -> None:
        self.kp = kp
        self.ki = ki
        self.kd = kd
        self.guard_c = guard_c
        self._e_prev = 0.0
        self._e_prev2 = 0.0
        self._primed = False

    def reset(self) -> None:
        self._e_prev = 0.0
        self._e_prev2 = 0.0
        self._primed = False

    def decide(self, obs: DtmObservation) -> float:
        error = (obs.ceiling_c - self.guard_c) - obs.peak_c
        if not self._primed:
            self._e_prev = error
            self._e_prev2 = error
            self._primed = True
        dt = obs.epoch_s
        dv = (
            self.kp * (error - self._e_prev)
            + self.ki * error * dt
            + self.kd * (error - 2.0 * self._e_prev + self._e_prev2) / dt
        )
        self._e_prev2 = self._e_prev
        self._e_prev = error
        return obs.clamp(obs.vcc + dv)


class PredictiveDtm(DtmPolicy):
    """One-epoch lookahead with the calibrated thermal step response.

    For a candidate vcc the next epoch's peak is projected as

        T_next = T_ss(v) + (T_now - T_ss(v)) * (1 - r)

    with ``T_ss(v) = ambient + rise_per_watt * P(v, activity)`` from the
    engine's linear steady map and ``r`` the measured one-epoch step
    response (falling back to ``1 - exp(-epoch / tau)`` with tau from
    ``time_to_fraction(0.632)`` when no measured response is available —
    the stack's response is multi-exponential, so the measured fraction
    tracks it much more closely than the single-tau fit).  The policy
    bisects for the *fastest* vcc whose projection stays at or below
    the setpoint — asymptotically it parks exactly where the steady
    temperature equals the setpoint, which is the closed-loop Same Temp
    operating point.

    The coming epoch's activity is unknown, so it is extrapolated
    linearly from the last two observed epochs (a plain persistence
    assumption lags sustained load ramps by one full epoch, which is
    exactly when breaches happen; the guard band covers the residual
    trend error).
    """

    name = "predictive"

    def __init__(self, guard_c: float = DEFAULT_GUARD_C) -> None:
        self.guard_c = guard_c
        self._prev_activity: float | None = None

    def reset(self) -> None:
        self._prev_activity = None

    def _predict(self, obs: DtmObservation, vcc: float) -> float:
        prev = (
            self._prev_activity
            if self._prev_activity is not None
            else obs.activity
        )
        activity = max(0.0, 2.0 * obs.activity - prev)
        power = power_3d_w(vcc, vcc) * activity
        t_ss = obs.ambient_c + obs.rise_per_watt * power
        if 0.0 < obs.epoch_response <= 1.0:
            decay = 1.0 - obs.epoch_response
        elif obs.tau_s > 0:
            decay = math.exp(-obs.epoch_s / obs.tau_s)
        else:
            decay = 0.0
        return t_ss + (obs.peak_c - t_ss) * decay

    def decide(self, obs: DtmObservation) -> float:
        setpoint = obs.ceiling_c - self.guard_c
        try:
            if self._predict(obs, obs.vcc_max) <= setpoint:
                return obs.vcc_max
            if self._predict(obs, obs.vcc_min) > setpoint:
                return obs.vcc_min
            lo, hi = obs.vcc_min, obs.vcc_max  # lo safe, hi too hot
            while hi - lo > _PREDICT_TOL:
                mid = (lo + hi) / 2.0
                if self._predict(obs, mid) <= setpoint:
                    lo = mid
                else:
                    hi = mid
            return lo
        finally:
            self._prev_activity = obs.activity

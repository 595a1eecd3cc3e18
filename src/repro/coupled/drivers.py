"""Workload drivers for the closed-loop engine.

A driver maps a control epoch to an *activity factor*: the fraction of
the design's nominal switching power the workload dissipates during
that epoch (1.0 = the Table 5 design point, < 1 = idle-ish phases,
> 1 = power-virus bursts).  Drivers are plain deterministic callables —
the bursty schedule derives every draw from a string-seeded
``random.Random`` per epoch (the ``uarch.workloads`` idiom), so a
schedule is reproducible regardless of evaluation order.
"""

from __future__ import annotations

import random
from typing import Callable

#: ``(epoch_index, epoch_start_time_s) -> activity factor``.
LoadSchedule = Callable[[int, float], float]

#: Bursty-schedule defaults: a sustained spike window every *period*
#: epochs, long enough that a no-DTM run saturates past the ceiling,
#: ramping up over a few epochs (program phases shift over ~seconds;
#: an instantaneous full-amplitude step would outrun any controller
#: that only observes temperature once per epoch).
SPIKE_PERIOD_EPOCHS = 32
SPIKE_BURST_EPOCHS = 16
SPIKE_RAMP_EPOCHS = 8
SPIKE_JITTER = 0.03


def constant_load(activity: float = 1.0) -> LoadSchedule:
    """The design-point workload: the same activity every epoch."""
    if activity < 0:
        raise ValueError("activity must be non-negative")
    return lambda epoch, t_s: activity




def bursty_load_spikes(
    seed: int = 0,
    base: float = 0.60,
    spike: float = 1.20,
    period: int = SPIKE_PERIOD_EPOCHS,
    burst: int = SPIKE_BURST_EPOCHS,
    ramp: int = SPIKE_RAMP_EPOCHS,
) -> LoadSchedule:
    """Sustained load spikes a steady-state study cannot express.

    Every *period* epochs the load climbs from *base* toward *spike*
    over *ramp* epochs and holds there for the rest of a *burst*-epoch
    window — long enough for the stack to integrate toward the spike's
    (ceiling-busting) steady state — with a small seeded per-epoch
    amplitude jitter so no two epochs are identical.  Each period leads
    with its quiet phase, so a controller always sees calm epochs
    before the first burst; the ramp mirrors real phase transitions and
    keeps the per-epoch power step within what an epoch-granular
    controller can react to.
    """
    if burst >= period:
        raise ValueError("burst must be shorter than the period")
    if not 1 <= ramp <= burst:
        raise ValueError("ramp must be in [1, burst]")

    def schedule(epoch: int, t_s: float) -> float:
        into_burst = (epoch % period) - (period - burst)
        if into_burst < 0:
            level = base
        else:
            level = base + (spike - base) * min(1.0, (into_burst + 1) / ramp)
        rng = random.Random(f"{seed}-spike-{epoch}")
        return level * (1.0 + SPIKE_JITTER * (2.0 * rng.random() - 1.0))

    return schedule

"""Deterministic, seeded fault injection for the three engines.

The injector produces the failure modes the resilience subsystem claims
to survive, so tests can prove every degradation path actually engages:

* **Bit flips** — flip individual bits in files or numpy arrays to
  model storage/memory corruption of checkpoints, journal lines, and
  cached operators; the integrity layer must detect every one.
* **Worker faults** — chaos directives for the campaign runner
  (:mod:`repro.runner`): crash a worker process, hang it past its
  wall-clock budget, stall its heartbeat, or corrupt its result file,
  deterministically per ``(seed, task, attempt)``.
* **Duplicate delivery** — the lease-based scheduler submits one
  assignment twice, so duplicate-completion idempotence is provable
  on a real backend.  Whole-executor faults (crash, partition, lease
  stall) are not injected here: :class:`repro.dst.fabric.SimFabric`
  simulates them from a fault schedule.
* **Service faults** — chaos for the HTTP job service
  (:mod:`repro.service`): slow clients, request floods, corrupted
  cached results, and backend partitions, so admission control, the
  circuit breaker, and the verify-before-serve path are provable end
  to end.

Every draw is **site-addressed**: the RNG for one decision is
``random.Random(f"{seed}:{site}:{occurrence}")`` — seeded from the
injector seed, the decision site's name, and how many times that site
has been consulted — never a shared stream.  Two sites cannot perturb
each other's draws, so injecting (or removing) one fault leaves every
other decision identical.  That stability is what makes deterministic-
simulation schedules (:mod:`repro.dst`) shrinkable: dropping an event
from a fault schedule does not reshuffle the faults that remain.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

import numpy as np

#: Worker misbehaviors :meth:`FaultInjector.worker_fault` can direct
#: (interpreted by ``repro.runner.worker``).  ``flip-operator`` arms a
#: one-shot bit flip in a cached thermal-operator array, modelling
#: silent in-memory corruption the oracle layer must catch.
WORKER_FAULT_MODES = ("crash", "hang", "stall", "corrupt-result", "flip-operator")

#: Service-level misbehaviors :meth:`FaultInjector.service_fault` can
#: direct, interpreted by :mod:`repro.service`: ``slow-client`` treats a
#: connection as a header-dribbler (408 and close); ``request-flood``
#: amplifies a request's rate-limit token cost so the limiter sheds
#: deterministically under test; ``corrupt-cached-result`` flips bits in
#: a just-stored result-cache artifact so the verify-before-serve path
#: must quarantine and re-run it; ``backend-partition`` makes the
#: dispatcher record a synthetic executor loss instead of submitting,
#: driving the circuit breaker open.
SERVICE_FAULT_MODES = (
    "slow-client",
    "request-flood",
    "corrupt-cached-result",
    "backend-partition",
)


class FaultInjector:
    """Seeded source of deterministic simulator faults.

    Args:
        seed: RNG seed; identical seeds inject identical faults.
        forced_failures: Map of stage name to how many times that stage
            must fail; -1 means fail every time.  Worker faults use
            stage names ``"worker-<mode>"`` (any task) or
            ``"worker-<mode>:<task_id>"`` (one task), with mode from
            :data:`WORKER_FAULT_MODES`.
        worker_fault_rates: Map of mode -> probability that a worker
            attempt suffers that fault (modes from
            :data:`WORKER_FAULT_MODES`); the draw is deterministic per
            ``(seed, task_id, attempt)``.
    """

    def __init__(
        self,
        seed: int = 0,
        forced_failures: Optional[Dict[str, int]] = None,
        worker_fault_rates: Optional[Dict[str, float]] = None,
    ) -> None:
        for mode, rate in (worker_fault_rates or {}).items():
            if mode not in WORKER_FAULT_MODES:
                raise ValueError(
                    f"unknown worker fault mode {mode!r}; "
                    f"known: {WORKER_FAULT_MODES}"
                )
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"worker fault rate for {mode!r} must be in [0, 1], "
                    f"got {rate}"
                )
        self.seed = seed
        #: Per-site occurrence counters backing :meth:`_site_rng`.
        self._site_counts: Dict[str, int] = {}
        self.forced_failures = dict(forced_failures or {})
        self.worker_fault_rates = dict(worker_fault_rates or {})
        self.injected: Dict[str, int] = {}

    # -- bookkeeping ---------------------------------------------------------

    def _note(self, what: str) -> None:
        self.injected[what] = self.injected.get(what, 0) + 1

    def _site_rng(self, site: str) -> random.Random:
        """Fresh RNG for one decision at *site*.

        Derived from ``(seed, site, occurrence)`` — string seeds hash
        through SHA-512, so the stream is stable across processes and
        ``PYTHONHASHSEED`` values.  Because each site counts its own
        occurrences, draws at one site can never shift the draws at
        another: fault schedules stay stable under insertion/removal,
        which is what lets the DST shrinker converge.
        """
        occurrence = self._site_counts.get(site, 0)
        self._site_counts[site] = occurrence + 1
        return random.Random(f"{self.seed}:{site}:{occurrence}")

    # -- forced solver failures ----------------------------------------------

    def should_fail(self, stage: str) -> bool:
        """Consume one forced failure for *stage*, if any remain."""
        remaining = self.forced_failures.get(stage, 0)
        if remaining == 0:
            return False
        if remaining > 0:
            self.forced_failures[stage] = remaining - 1
        self._note(f"forced:{stage}")
        return True

    # -- worker faults -------------------------------------------------------

    def worker_fault(self, task_id: str, attempt: int) -> Optional[str]:
        """Chaos directive for one worker attempt, or None.

        Forced failures win (``"worker-crash:figure-6"`` beats
        ``"worker-crash"`` beats the rates); otherwise each mode's rate
        is rolled with an RNG keyed on ``(seed, task_id, attempt)``, so
        the same campaign configuration injects the same faults on every
        run — and a *retry* of the same task rolls fresh, the way a real
        transient fault clears.
        """
        for mode in WORKER_FAULT_MODES:
            if self.should_fail(f"worker-{mode}:{task_id}"):
                return mode
            if self.should_fail(f"worker-{mode}"):
                return mode
        rng = random.Random(f"{self.seed}:{task_id}:{attempt}")
        roll = rng.random()
        cumulative = 0.0
        for mode in WORKER_FAULT_MODES:
            cumulative += self.worker_fault_rates.get(mode, 0.0)
            if roll < cumulative:
                self._note(f"worker:{mode}")
                return mode
        return None

    # -- service (HTTP job API) faults ----------------------------------------

    def service_fault(self, mode: str, key: str = "") -> bool:
        """Consume one forced service fault of *mode*, if any remain.

        Budgets come from ``forced_failures`` with stage names
        ``"<mode>"`` (any request/fingerprint) or ``"<mode>:<key>"``
        (one client id or task fingerprint), mode from
        :data:`SERVICE_FAULT_MODES` — so ``{"backend-partition": 3}``
        partitions exactly the next three dispatches, after which the
        service heals and the breaker's half-open probe finds it.
        """
        if mode not in SERVICE_FAULT_MODES:
            raise ValueError(
                f"unknown service fault mode {mode!r}; "
                f"known: {SERVICE_FAULT_MODES}"
            )
        if key and self.should_fail(f"{mode}:{key}"):
            return True
        return self.should_fail(mode)

    def duplicate_delivery(self, task_id: str) -> bool:
        """Should this task's assignment be delivered twice?

        Scheduler-side fault: the scheduler submits the same attempt a
        second time, modelling a retransmit on a flaky control plane.
        Budgeted via ``forced_failures`` stage names
        ``"duplicate-delivery"`` / ``"duplicate-delivery:<task_id>"``.
        """
        return (
            self.should_fail(f"duplicate-delivery:{task_id}")
            or self.should_fail("duplicate-delivery")
        )

    # -- bit flips (storage / memory corruption) -----------------------------

    def flip_file_bits(
        self,
        path: "str",
        n_flips: int = 1,
        offset_min: int = 0,
    ) -> int:
        """Flip *n_flips* bits in-place in the file at *path*.

        *offset_min* protects a header prefix (e.g. the checkpoint
        magic + envelope) so the flip lands in the payload.  Returns the
        number of bits flipped.
        """
        with open(path, "r+b") as handle:
            handle.seek(0, 2)
            size = handle.tell()
            if size <= offset_min:
                return 0
            flipped = 0
            for _ in range(max(1, n_flips)):
                rng = self._site_rng("flip-file-bits")
                pos = rng.randrange(offset_min, size)
                handle.seek(pos)
                byte = handle.read(1)[0]
                bit = rng.randrange(8)
                handle.seek(pos)
                handle.write(bytes([byte ^ (1 << bit)]))
                flipped += 1
                self._note("bitflip:file")
            handle.flush()
        return flipped

    def flip_array_bits(self, array: np.ndarray, n_flips: int = 1) -> int:
        """Flip *n_flips* bits in-place in a numpy array's buffer."""
        view = array.view(np.uint8).ravel()
        if view.size == 0:
            return 0
        flipped = 0
        for _ in range(max(1, n_flips)):
            rng = self._site_rng("flip-array-bits")
            pos = rng.randrange(view.size)
            bit = rng.randrange(8)
            view[pos] ^= np.uint8(1 << bit)
            flipped += 1
            self._note("bitflip:array")
        return flipped

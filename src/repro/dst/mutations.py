"""Deliberate protocol bugs, for validating that DST actually catches.

A simulation harness that never fails is indistinguishable from one
that checks nothing.  Each mutation here re-introduces a specific
bug into the *real* scheduler or service for the duration of a
``with`` block; the DST test suite asserts that fault exploration
finds a violating history for each, and that the shrinker reduces it
to a handful of events.  ``repro dst --mutate NAME`` exposes the same
thing for manual runs.

Mutations:

* ``drop-fencing`` — lease fencing disabled entirely: every completion
  passes the fence check.  A zombie executor's late ``ok`` can then
  shadow (or double up on) the re-granted attempt's result.
* ``fence-off-by-one`` — the fence comparison uses ``<`` instead of
  ``<=``: a zombie writing at *exactly* the reclaimed epoch is
  accepted.  The classic boundary bug fencing tokens exist to close.
* ``drop-queue-token`` — ``ReproService.enqueue`` reports success
  without queueing: an admitted job never runs, which the service
  segment's liveness check must notice.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.runner.scheduler import Scheduler
from repro.service.server import ReproService


def _no_fence(self, fingerprint, epoch):  # noqa: ANN001
    del self, fingerprint, epoch
    return False


def _off_by_one_fence(self, fingerprint, epoch):  # noqa: ANN001
    if epoch is None:
        return False
    return int(epoch) < self._fence_by_fp.get(fingerprint, 0)


#: name -> (owner, attribute, replacement).
MUTATIONS = {
    "drop-fencing": (Scheduler, "_is_fenced", _no_fence),
    "fence-off-by-one": (Scheduler, "_is_fenced", _off_by_one_fence),
    "drop-queue-token": (ReproService, "enqueue", lambda self, job: True),
}


@contextmanager
def apply_mutation(name: Optional[str]) -> Iterator[None]:
    """Patch the named bug in for the block's duration."""
    if name is None:
        yield
        return
    if name not in MUTATIONS:
        raise ValueError(
            f"unknown mutation {name!r}; known: {', '.join(sorted(MUTATIONS))}"
        )
    owner, attribute, replacement = MUTATIONS[name]
    original = getattr(owner, attribute)
    setattr(owner, attribute, replacement)
    try:
        yield
    finally:
        setattr(owner, attribute, original)


__all__ = ["MUTATIONS", "apply_mutation"]

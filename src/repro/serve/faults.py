"""Seeded fault injection for the serve dispatcher (chaos harness).

A :class:`ServeFaultPlan` declares rates, a :class:`ServeFaultInjector`
draws every decision from one seeded stream, and the same
``(seed, plan)`` always produces the same fault timeline (see "Seeded
fault plans" in ``docs/robustness.md``).

Fault classes and where they strike:

* ``worker_crash`` — the batch attempt raises
  :class:`~repro.core.errors.WorkerCrashFault`; affected jobs are
  retried on a later batch (bounded by ``max_attempts``) and the crash
  feeds the circuit breaker.
* ``worker_hang`` — the worker stalls for ``hang_s`` before touching
  the batch, long enough (by test construction) that deadlines expire
  and the batch is shed.
* ``slow_response`` — a ``slow_s`` stall that completes anyway, driving
  the latency EWMA and thereby the shed ladder.
* ``mid_commit_kill`` — raised *after* the ledger spend is durable but
  *before* jobs complete: the worst crash window.  Jobs fail without a
  refund; the kill-and-restart tests prove the ledger never
  double-spends across it.

Queue floods are not injected here — they are a workload shape, produced
by the load generator's ``flood`` profile against a small queue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.clock import Clock
from repro.core.errors import MidCommitKillFault, WorkerCrashFault
from repro.core.faults import FaultTally, SeededFaultPlan

__all__ = ["ServeFaultCounts", "ServeFaultInjector", "ServeFaultPlan"]

_BATCH_RATES = ("worker_crash_rate", "worker_hang_rate", "slow_response_rate")
_COMMIT_RATES = ("mid_commit_kill_rate",)


@dataclass(frozen=True, slots=True)
class ServeFaultPlan(SeededFaultPlan):
    """Declarative description of the dispatcher faults to inject.

    The three batch-start rates (crash / hang / slow) are mutually
    exclusive per draw, so their sum must be at most 1.
    ``mid_commit_kill_rate`` is drawn independently per batch that
    reaches the commit point.
    """

    RATES = _BATCH_RATES + _COMMIT_RATES
    EXCLUSIVE = (_BATCH_RATES,)
    NON_NEGATIVE = ("hang_s", "slow_s")

    worker_crash_rate: float = 0.0
    worker_hang_rate: float = 0.0
    slow_response_rate: float = 0.0
    mid_commit_kill_rate: float = 0.0
    hang_s: float = 0.2
    slow_s: float = 0.02


@dataclass
class ServeFaultCounts(FaultTally):
    """Tally of every fault the injector actually fired."""

    crashes: int = 0
    hangs: int = 0
    slow_responses: int = 0
    mid_commit_kills: int = 0


class ServeFaultInjector:
    """Draws fault decisions from one seeded stream.

    The dispatcher calls :meth:`before_batch` once per batch attempt and
    :meth:`mid_commit` once per batch that reached the commit point;
    both are cheap no-ops under a fault-free plan.  Decisions are drawn
    from the single generator handed in, so a ``(seed, plan)`` pair
    fully determines the fault timeline for a given request order.
    """

    def __init__(
        self, plan: ServeFaultPlan, rng: np.random.Generator, clock: Clock
    ) -> None:
        self._plan = plan
        self._rng = rng
        self._clock = clock
        self.counts = ServeFaultCounts()

    def before_batch(self) -> None:
        """Maybe crash, hang, or slow down the imminent batch attempt."""
        plan = self._plan
        if not plan.rated(_BATCH_RATES):
            return
        fate = plan.pick(float(self._rng.random()), _BATCH_RATES)
        if fate == "worker_crash":
            self.counts.crashes += 1
            raise WorkerCrashFault("injected worker crash before batch compute")
        if fate == "worker_hang":
            self.counts.hangs += 1
            self._clock.sleep(plan.hang_s)
        elif fate == "slow_response":
            self.counts.slow_responses += 1
            self._clock.sleep(plan.slow_s)

    def mid_commit(self) -> None:
        """Maybe kill the worker after the ledger commit, before completion."""
        plan = self._plan
        if not plan.rated(_COMMIT_RATES):
            return
        if plan.pick(float(self._rng.random()), _COMMIT_RATES) is not None:
            self.counts.mid_commit_kills += 1
            raise MidCommitKillFault(
                "injected kill between ledger commit and job completion"
            )

"""Degraded-mode policy for fault-aware hardware multitasking.

:func:`repro.multitask.scheduler.simulate_pr` runs one FCFS dispatch
loop and streams every reconfiguration through
:func:`repro.faults.reliable.verified_write`; given a seeded
:class:`~repro.faults.injector.FaultInjector` it reacts to persistent
failures the way a resilient PR runtime would.  This module holds the
knobs and bookkeeping of that reaction:

* :class:`DegradedModePolicy` — **retry with backoff** (a corrupted or
  timed-out transfer re-streams the partial bitstream per the
  :class:`RetryPolicy`, consuming schedule time on the PRR and on the
  shared ICAP when exclusive); **quarantine** after
  ``quarantine_threshold`` consecutive failed jobs, restored by the next
  periodic scrub pass (one blind-scrub repair reconfiguration) when
  ``scrub_period_s`` is set and offline for the rest of the run
  otherwise; **spill** of a job every fitting PRR failed or is offline
  to the full-reconfiguration baseline context, or drop when spilling
  is disabled;
* :class:`QuarantineEscalation` — quarantine streaks that escalate to
  permanent retirement, shared with :class:`repro.fabric.FabricRuntime`;
* :func:`_record_fault_observations` — the fault run's telemetry.

Background SEUs (Poisson upsets that silently invalidate the PRM loaded
in a random PRR, the frame-level semantics of
:func:`repro.relocation.scrubber.inject_upsets`) come from the injector
and force a reconfiguration on that PRR's next use.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor

from ..errors import InvalidInput
from ..icap.controllers import record_transfer
from ..multitask.scheduler import ScheduleResult, record_schedule_observations
from ..obs import trace as _obs
from ..obs.metrics import SECONDS_BUCKETS
from .reliable import RetryPolicy

__all__ = ["DegradedModePolicy", "QuarantineEscalation"]


@dataclass(frozen=True)
class DegradedModePolicy:
    """How the scheduler degrades when reconfigurations fail."""

    retry: RetryPolicy = RetryPolicy()
    quarantine_threshold: int = 3  #: consecutive failed jobs before offlining
    scrub_period_s: float | None = None  #: periodic scrub restores quarantined PRRs
    verify_overhead_factor: float = 0.0  #: verify time as a fraction of write time
    spill_to_full: bool = True  #: failed-everywhere jobs use the full-reconfig path
    #: Quarantine-streak escalation: after this many quarantines of the
    #: *same* PRR the damage is treated as permanent — the region is
    #: retired for the rest of the run (no scrub restores it) and counted
    #: in ``ScheduleResult.permanent_retirements``.  ``None`` disables
    #: escalation (every quarantine stays transient, the old behavior).
    permanent_streak: int | None = None

    def __post_init__(self) -> None:
        if self.quarantine_threshold < 1:
            raise InvalidInput(
                f"quarantine_threshold must be >= 1, got {self.quarantine_threshold}"
            )
        if self.scrub_period_s is not None and self.scrub_period_s <= 0:
            raise InvalidInput("scrub_period_s must be positive when set")
        if self.verify_overhead_factor < 0:
            raise InvalidInput("verify_overhead_factor must be non-negative")
        if self.permanent_streak is not None and self.permanent_streak < 1:
            raise InvalidInput(
                f"permanent_streak must be >= 1 when set, got {self.permanent_streak}"
            )

    @classmethod
    def no_retry(cls, **kwargs) -> "DegradedModePolicy":
        """First failure loses the attempt (the ablation's baseline arm)."""
        return cls(retry=RetryPolicy.no_retry(), **kwargs)


def _next_scrub_after(time_s: float, period_s: float) -> float:
    """First periodic scrub tick strictly after *time_s*."""
    return (floor(time_s / period_s) + 1) * period_s


class QuarantineEscalation:
    """Counts quarantine streaks per target and escalates to permanent.

    A target (a PRR index, a fabric column) that keeps earning
    quarantines is not suffering transient upsets — the silicon is
    damaged.  ``record(key)`` returns ``True`` exactly once per key, the
    moment its quarantine count reaches ``streak``; the caller then
    retires the target into its blacklist.  Used by both
    :func:`~repro.multitask.scheduler.simulate_pr` (PRR retirement) and
    :class:`repro.fabric.FabricRuntime` (column retirement).
    """

    __slots__ = ("streak", "_counts", "_escalated")

    def __init__(self, streak: int) -> None:
        if streak < 1:
            raise InvalidInput(f"streak must be >= 1, got {streak}")
        self.streak = streak
        self._counts: dict[object, int] = {}
        self._escalated: set[object] = set()

    def record(self, key: object) -> bool:
        """Register one quarantine of *key*; True when it goes permanent."""
        if key in self._escalated:
            return False
        count = self._counts.get(key, 0) + 1
        self._counts[key] = count
        if count >= self.streak:
            self._escalated.add(key)
            return True
        return False

    def count(self, key: object) -> int:
        return self._counts.get(key, 0)

    def is_permanent(self, key: object) -> bool:
        return key in self._escalated

    @property
    def permanent_targets(self) -> frozenset:
        return frozenset(self._escalated)


def _record_fault_observations(
    result: ScheduleResult,
    *,
    retry_events: list[float],
    quarantine_events: list[float],
    offline_since: dict[int, float],
    streamed_bytes: float,
    streamed_port_seconds: float,
    spill_bytes: float,
    spill_seconds: float,
) -> None:
    """Publish one degraded run's telemetry (no-op when obs is off)."""
    registry = _obs.metrics()
    if registry is None:
        return
    # PRRs left permanently offline are down to the end of the run.
    for start in offline_since.values():
        down = result.makespan_seconds - start
        if down > 0:
            quarantine_events.append(down)
    # Per-job histograms + run counters; states=None because the ICAP
    # traffic here includes re-streams and is recorded below instead.
    record_schedule_observations(result)
    record_transfer(streamed_bytes, streamed_port_seconds)
    if spill_bytes > 0:
        record_transfer(spill_bytes, spill_seconds, port="full")
    registry.counter("faults.events").inc(result.fault_events)
    registry.counter("sched.failed_reconfigs").inc(result.failed_reconfigs)
    registry.counter("sched.deadline_misses").inc(result.deadline_misses)
    registry.counter("sched.scrub_repairs").inc(result.scrub_repairs)
    registry.counter("sched.seu_hits").inc(result.seu_hits)
    registry.counter("sched.permanent_retirements").inc(
        result.permanent_retirements
    )
    registry.counter("sched.retry_seconds_total").inc(sum(retry_events))
    registry.counter("sched.quarantine_seconds_total").inc(
        sum(quarantine_events)
    )
    retry_hist = registry.histogram("sched.retry_seconds", SECONDS_BUCKETS)
    for value in retry_events:
        retry_hist.observe(value)
    quarantine_hist = registry.histogram(
        "sched.quarantine_seconds", SECONDS_BUCKETS
    )
    for value in quarantine_events:
        quarantine_hist.observe(value)

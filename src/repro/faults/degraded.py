"""Fault-aware hardware-multitasking: retry, quarantine, scrub, spill.

The degraded-mode companion of
:func:`repro.multitask.scheduler.simulate_pr`: the same deterministic
FCFS dispatch loop, but every reconfiguration runs through the verified
write-retry protocol of :mod:`repro.faults.reliable` against a seeded
:class:`~repro.faults.injector.FaultInjector`, and the scheduler reacts
to persistent failures the way a resilient PR runtime would:

* **retry with backoff** — a corrupted or timed-out transfer re-streams
  the partial bitstream per the :class:`RetryPolicy`, consuming real
  schedule time on the PRR (and the shared ICAP when exclusive);
* **quarantine** — a PRR whose reconfigurations keep failing
  (``quarantine_threshold`` consecutive failed jobs) is taken offline;
  with a scrub period configured, the next periodic scrub pass rewrites
  the region (blind scrub, one repair reconfiguration) and returns it to
  service, otherwise it stays offline for the rest of the run;
* **reroute / spill** — the victim job is rerouted to the next fitting
  PRR; when every fitting PRR has failed it or is offline, the job
  spills to the full-reconfiguration baseline context (one exclusive
  whole-device configuration, as in the non-PR system) or, with
  spilling disabled, is dropped and counted;
* **background SEUs** — Poisson upset arrivals silently invalidate the
  PRM loaded in a random PRR (the frame-level semantics of
  :func:`repro.relocation.scrubber.inject_upsets`), forcing a
  reconfiguration on that PRR's next use.

With a zero-rate injector every attempt succeeds first try with zero
overhead, so the result reproduces the base scheduler exactly — the
invariant ``tests/faults/test_degraded.py`` pins down.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor

from ..core.bitstream_model import full_device_bitstream_bytes
from ..core.prr_model import PRRGeometry
from ..devices.fabric import Device
from ..icap.controllers import record_transfer
from ..multitask.scheduler import (
    CompletedJob,
    PRRState,
    ScheduleResult,
    fitting_index,
    record_schedule_observations,
)
from ..multitask.tasks import Job
from ..obs import trace as _obs
from ..obs.metrics import SECONDS_BUCKETS
from .injector import FaultInjector
from .reliable import RetryPolicy
from ..errors import InvalidInput

__all__ = [
    "DegradedModePolicy",
    "QuarantineEscalation",
    "simulate_pr_with_faults",
]


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
    retires the target into its blacklist.  Used by both the degraded
    scheduler (PRR retirement) and :class:`repro.fabric.FabricRuntime`
    (column retirement).
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


def simulate_pr_with_faults(
    jobs: list[Job],
    prrs: list[PRRGeometry],
    *,
    injector: FaultInjector,
    policy: DegradedModePolicy | None = None,
    port_bytes_per_s: float = 400e6,
    icap_exclusive: bool = False,
    device: Device | None = None,
) -> ScheduleResult:
    """Fault-aware PR simulation (see module docstring for the model).

    *device* enables the spill path (it sizes the full bitstream); with
    ``policy.spill_to_full`` false or no device, unplaceable jobs are
    dropped.  Counters land in the result's fault fields and the
    injector's event log keeps the per-fault record.
    """
    with _obs.trace_span(
        "simulate_pr",
        jobs=len(jobs),
        prrs=len(prrs),
        icap_exclusive=icap_exclusive,
        faulty=True,
    ):
        result = _run_degraded(
            jobs,
            prrs,
            injector=injector,
            policy=policy,
            port_bytes_per_s=port_bytes_per_s,
            icap_exclusive=icap_exclusive,
            device=device,
        )
    if _obs.enabled:
        result.trace = _obs.snapshot()
    return result


def _run_degraded(
    jobs: list[Job],
    prrs: list[PRRGeometry],
    *,
    injector: FaultInjector,
    policy: DegradedModePolicy | None,
    port_bytes_per_s: float,
    icap_exclusive: bool,
    device: Device | None,
) -> ScheduleResult:
    """Dispatch loop behind :func:`simulate_pr_with_faults`."""
    if not prrs:
        raise InvalidInput("need at least one PRR")
    policy = policy if policy is not None else DegradedModePolicy()
    retry = policy.retry
    escalation = (
        QuarantineEscalation(policy.permanent_streak)
        if policy.permanent_streak is not None
        else None
    )
    states = [PRRState(index=i, geometry=g) for i, g in enumerate(prrs)]
    failed_streak = [0] * len(states)
    offline: set[int] = set()
    result = ScheduleResult(system="pr")
    icap_free_at = 0.0
    # Spill context: one exclusive whole-device configuration at a time.
    full_reconfig = (
        full_device_bitstream_bytes(device) / port_bytes_per_s
        if device is not None
        else None
    )
    full_free_at = 0.0
    full_loaded: str | None = None
    last_seu_check = 0.0
    # Obs accounting (all model-domain; touched only when tracing is on).
    track = _obs.enabled
    retry_events: list[float] = []
    quarantine_events: list[float] = []
    streamed_bytes = 0.0  # partial-bitstream bytes pushed, incl. re-streams
    streamed_port_seconds = 0.0
    spill_bytes = 0.0
    spill_seconds = 0.0
    offline_since: dict[int, float] = {}
    fitting_states = fitting_index(states)

    for job in sorted(jobs, key=lambda j: (j.arrival_seconds, j.job_id)):
        now = job.arrival_seconds
        # Background SEUs since the last dispatch: each strikes a random
        # PRR and silently corrupts whatever it holds.
        if injector.seu is not None:
            for _ in range(injector.seu_arrivals(last_seu_check, now)):
                victim = states[injector.choose(len(states))]
                injector.record_seu(now, f"prr{victim.index}")
                result.seu_hits += 1
                victim.loaded_prm = None
            last_seu_check = now

        fitting_all = fitting_states(job)

        tried: set[int] = set()
        placed: CompletedJob | None = None
        while placed is None:
            fitting = [
                s
                for s in fitting_all
                if s.index not in offline and s.index not in tried
            ]
            if not fitting:
                break
            loaded = [s for s in fitting if s.loaded_prm == job.task.name]
            candidates = loaded or fitting
            state = min(candidates, key=lambda s: (s.busy_until, s.index))

            start_ready = max(state.busy_until, now)
            spent = 0.0  # port + stall + verify + backoff across attempts
            port_time = 0.0  # spent minus the backoff gaps
            success = True
            if state.loaded_prm != job.task.name:
                base_t = state.partial_bitstream_bytes / port_bytes_per_s
                verify = base_t * policy.verify_overhead_factor
                if icap_exclusive:
                    start_ready = max(start_ready, icap_free_at)
                success = False
                attempts_streamed = 0
                retry_spent = 0.0  # time beyond the first attempt
                for attempt in range(1, retry.max_attempts + 1):
                    outcome = injector.transfer_outcome(
                        start_ready + spent, f"prr{state.index}", attempt=attempt
                    )
                    attempt_time = base_t + outcome.stall_seconds + verify
                    spent += attempt_time
                    port_time += attempt_time
                    attempts_streamed += 1
                    if attempt > 1:
                        retry_spent += attempt_time
                    if outcome.ok:
                        success = True
                        break
                    if retry.deadline_s is not None and spent > retry.deadline_s:
                        result.deadline_misses += 1
                        break
                    result.retries += 1 if attempt < retry.max_attempts else 0
                    if attempt < retry.max_attempts:
                        backoff = retry.backoff_seconds(attempt)
                        spent += backoff
                        retry_spent += backoff
                state.reconfig_seconds += port_time
                if track:
                    streamed_bytes += (
                        attempts_streamed * state.partial_bitstream_bytes
                    )
                    streamed_port_seconds += port_time
                    if retry_spent > 0:
                        retry_events.append(retry_spent)
                if icap_exclusive:
                    icap_free_at = start_ready + spent
                if success:
                    state.loaded_prm = job.task.name
                    state.reconfig_count += 1
                else:
                    # The aborted write destroyed whatever was loaded.
                    state.loaded_prm = None

            if success:
                failed_streak[state.index] = 0
                start = start_ready + spent
                finish = start + job.task.exec_seconds
                state.busy_until = finish
                state.busy_seconds += job.task.exec_seconds
                placed = CompletedJob(
                    job_id=job.job_id,
                    task_name=job.task.name,
                    prr_index=state.index,
                    arrival=now,
                    start=start,
                    reconfig_seconds=spent,
                    finish=finish,
                )
                continue

            # Reconfiguration failed for good on this PRR.
            result.failed_reconfigs += 1
            failed_streak[state.index] += 1
            state.busy_until = start_ready + spent
            tried.add(state.index)
            if failed_streak[state.index] >= policy.quarantine_threshold:
                result.quarantines += 1
                failed_streak[state.index] = 0
                if escalation is not None and escalation.record(state.index):
                    # Streak escalation: the damage is permanent — retire
                    # the PRR for good, scrub or not.
                    result.permanent_retirements += 1
                    injector.record_permanent(
                        state.busy_until,
                        f"prr{state.index}",
                        detail="quarantine-streak escalation",
                    )
                    offline.add(state.index)
                    offline_since[state.index] = state.busy_until
                elif policy.scrub_period_s is not None:
                    # Offline until the next periodic scrub pass rewrites
                    # the region (one blind-scrub repair reconfiguration).
                    quarantined_at = state.busy_until
                    restore_at = _next_scrub_after(
                        state.busy_until, policy.scrub_period_s
                    )
                    repair = state.partial_bitstream_bytes / port_bytes_per_s
                    state.busy_until = restore_at + repair
                    state.reconfig_seconds += repair
                    result.scrub_repairs += 1
                    if track:
                        quarantine_events.append(state.busy_until - quarantined_at)
                        streamed_bytes += state.partial_bitstream_bytes
                        streamed_port_seconds += repair
                else:
                    offline.add(state.index)
                    offline_since[state.index] = state.busy_until

        if placed is None:
            # Every fitting PRR failed this job or is offline.
            if policy.spill_to_full and full_reconfig is not None:
                start_ready = max(full_free_at, now)
                reconfig = 0.0
                if full_loaded != job.task.name:
                    reconfig = full_reconfig
                    full_loaded = job.task.name
                    result.reconfig_count += 1
                    result.total_reconfig_seconds += reconfig
                    result.halted_seconds += reconfig
                start = start_ready + reconfig
                finish = start + job.task.exec_seconds
                full_free_at = finish
                result.spilled_jobs += 1
                if track and reconfig > 0:
                    spill_bytes += reconfig * port_bytes_per_s
                    spill_seconds += reconfig
                placed = CompletedJob(
                    job_id=job.job_id,
                    task_name=job.task.name,
                    prr_index=-1,
                    arrival=now,
                    start=start,
                    reconfig_seconds=reconfig,
                    finish=finish,
                )
            else:
                result.dropped_jobs += 1
                continue
        result.completed.append(placed)

    result.makespan_seconds = max((j.finish for j in result.completed), default=0.0)
    result.total_reconfig_seconds += sum(s.reconfig_seconds for s in states)
    result.reconfig_count += sum(s.reconfig_count for s in states)
    result.icap_busy_seconds = sum(s.reconfig_seconds for s in states)
    result.fault_events = len(injector.events)
    if track:
        _record_fault_observations(
            result,
            retry_events=retry_events,
            quarantine_events=quarantine_events,
            offline_since=offline_since,
            streamed_bytes=streamed_bytes,
            streamed_port_seconds=streamed_port_seconds,
            spill_bytes=spill_bytes,
            spill_seconds=spill_seconds,
        )
    return result


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

"""Event-driven hardware-multitasking simulator.

Simulates PRMs time-multiplexing PRRs (the paper's Section I motivation):
jobs arrive, the scheduler dispatches each to a PRR whose geometry fits
its PRM, pays the reconfiguration time (partial bitstream size / port
throughput) whenever the PRR currently holds a different PRM, then runs
the job.  Two system models are compared:

* **PR system** — one or more PRRs reconfigure independently while the
  rest of the device keeps running; reconfiguration cost is per-PRR,
  proportional to the *partial* bitstream.
* **non-PR baseline** — "full reconfiguration ... halts the entire FPGA's
  execution": any module switch reconfigures the whole device (full
  bitstream) and nothing executes meanwhile, i.e. one exclusive context.

The scheduler is deterministic FCFS with an idle-PRR affinity heuristic
(prefer a PRR already holding the PRM — zero reconfiguration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..core.bitstream_model import (
    bitstream_size_bytes,
    full_device_bitstream_bytes,
)
from ..core.params import PRMRequirements
from ..core.prr_model import PRRGeometry
from ..devices.fabric import Device
from ..errors import InvalidInput
from ..icap.controllers import record_transfer
from ..obs import trace as _obs
from .tasks import Job

__all__ = ["PRRState", "CompletedJob", "ScheduleResult", "simulate_pr", "simulate_full_reconfig"]


@dataclass
class PRRState:
    """Mutable state of one PRR during simulation."""

    index: int
    geometry: PRRGeometry
    loaded_prm: str | None = None
    busy_until: float = 0.0
    reconfig_count: int = 0
    reconfig_seconds: float = 0.0
    busy_seconds: float = 0.0

    @property
    def partial_bitstream_bytes(self) -> int:
        return bitstream_size_bytes(self.geometry)


@dataclass(frozen=True, slots=True)
class CompletedJob:
    """Timing record of one finished job."""

    job_id: int
    task_name: str
    prr_index: int
    arrival: float
    start: float
    reconfig_seconds: float
    finish: float

    @property
    def response_seconds(self) -> float:
        return self.finish - self.arrival

    @property
    def waiting_seconds(self) -> float:
        return self.start - self.arrival


@dataclass
class ScheduleResult:
    """Outcome of one simulation run."""

    system: str
    completed: list[CompletedJob] = field(default_factory=list)
    makespan_seconds: float = 0.0
    total_reconfig_seconds: float = 0.0
    reconfig_count: int = 0
    halted_seconds: float = 0.0  #: time the whole device was halted
    icap_busy_seconds: float = 0.0  #: time the configuration port was busy
    # Fault counters (all stay zero outside fault-aware mode).
    fault_events: int = 0  #: faults the injector recorded during the run
    retries: int = 0  #: re-streamed transfers after a failed verify
    failed_reconfigs: int = 0  #: (job, PRR) reconfigurations that gave up
    deadline_misses: int = 0  #: retry loops aborted by the per-job budget
    quarantines: int = 0  #: PRRs taken offline for repeated failures
    scrub_repairs: int = 0  #: quarantined PRRs restored by periodic scrub
    permanent_retirements: int = 0  #: PRRs/columns retired for good (hard faults)
    seu_hits: int = 0  #: background upsets that struck a PRR
    spilled_jobs: int = 0  #: jobs rerouted to the full-reconfig context
    dropped_jobs: int = 0  #: jobs that could not be placed anywhere
    #: Observability export: the active obs session's span/metric document
    #: (see :mod:`repro.obs`) captured at the end of the run; ``None``
    #: whenever tracing is disabled, which is the default.
    trace: dict | None = None

    @property
    def mean_response_seconds(self) -> float:
        if not self.completed:
            return 0.0
        return sum(j.response_seconds for j in self.completed) / len(self.completed)

    @property
    def reconfig_overhead_fraction(self) -> float:
        if self.makespan_seconds <= 0:
            return 0.0
        return self.total_reconfig_seconds / self.makespan_seconds

    @property
    def icap_busy_factor(self) -> float:
        """Fraction of the run the configuration port spent busy — the
        realized Claus busy factor."""
        if self.makespan_seconds <= 0:
            return 0.0
        return min(1.0, self.icap_busy_seconds / self.makespan_seconds)

    @property
    def offered_jobs(self) -> int:
        """Jobs the run was asked to place (completed plus dropped)."""
        return len(self.completed) + self.dropped_jobs

    @property
    def completion_rate(self) -> float:
        """Fraction of offered jobs that completed (1.0 when none offered)."""
        if self.offered_jobs == 0:
            return 1.0
        return len(self.completed) / self.offered_jobs

    def summary(self) -> str:
        return (
            f"{self.system}: {len(self.completed)} jobs, makespan "
            f"{self.makespan_seconds:.3f}s, mean response "
            f"{self.mean_response_seconds * 1e3:.2f}ms, reconfig "
            f"{self.reconfig_count}x / {self.total_reconfig_seconds * 1e3:.2f}ms"
        )

    def fault_summary(self) -> str:
        """One deterministic line of the run's fault counters."""
        return (
            f"faults={self.fault_events} retries={self.retries} "
            f"failed={self.failed_reconfigs} deadline_misses={self.deadline_misses} "
            f"quarantines={self.quarantines} scrub_repairs={self.scrub_repairs} "
            f"permanent={self.permanent_retirements} "
            f"seu_hits={self.seu_hits} spilled={self.spilled_jobs} "
            f"dropped={self.dropped_jobs} "
            f"completion={self.completion_rate:.4f}"
        )


def record_schedule_observations(
    result: ScheduleResult, states: "list[PRRState] | None" = None
) -> None:
    """Publish one run's scheduling telemetry (no-op when obs disabled).

    Per-job queue-wait and reconfiguration times go to fixed-bucket
    histograms; run totals go to counters; per-PRR port traffic feeds the
    ICAP throughput metrics.  All values are simulated (model) time, so
    the export is deterministic for a fixed seed.
    """
    registry = _obs.metrics()
    if registry is None:
        return
    wait = registry.histogram("sched.wait_seconds")
    reconfig = registry.histogram("sched.reconfig_seconds")
    for job in result.completed:
        wait.observe(job.waiting_seconds)
        reconfig.observe(job.reconfig_seconds)
    registry.counter("sched.jobs_completed").inc(len(result.completed))
    registry.counter("sched.jobs_dropped").inc(result.dropped_jobs)
    registry.counter("sched.jobs_spilled").inc(result.spilled_jobs)
    registry.counter("sched.reconfigs").inc(result.reconfig_count)
    registry.counter("sched.retries").inc(result.retries)
    registry.counter("sched.quarantines").inc(result.quarantines)
    registry.gauge("sched.makespan_seconds").set(result.makespan_seconds)
    registry.gauge("sched.completion_rate").set(result.completion_rate)
    if states is not None:
        for state in states:
            record_transfer(
                state.partial_bitstream_bytes * state.reconfig_count,
                state.reconfig_seconds,
            )


def simulate_pr(
    jobs: list[Job],
    prrs: list[PRRGeometry],
    *,
    port_bytes_per_s: float = 400e6,
    icap_exclusive: bool = False,
    faults=None,
    fault_policy=None,
    device: Device | None = None,
) -> ScheduleResult:
    """Simulate the PR system: FCFS over independently reconfiguring PRRs.

    Each job, in (arrival, id) order, goes to the earliest-free fitting
    PRR, preferring one that already holds its PRM; a PRR holding a
    different PRM first pays ``partial bitstream bytes / port_bytes_per_s``.
    ``icap_exclusive=True`` models the single shared ICAP: only one PRR
    can reconfigure at a time, so concurrent reconfigurations serialize —
    the contention the Claus busy-factor model (ref. [1]) abstracts.  The
    result's ``icap_busy_seconds`` lets callers derive the realized busy
    factor.

    Every reconfiguration is one
    :func:`repro.faults.reliable.verified_write`, retried per
    ``fault_policy`` (a :class:`~repro.faults.degraded.DegradedModePolicy`).
    ``faults`` (a :class:`repro.faults.FaultInjector`) decides each
    attempt's outcome: failing PRRs are quarantined and scrub-restored,
    background SEUs invalidate loaded PRMs, and jobs no PRR can take
    spill to the full-reconfiguration context when *device* is given
    (sizing the full bitstream) or are dropped otherwise.  Without an
    injector the port is clean and the default policy charges no verify
    time, so each write is one attempt of ``bytes / port_bytes_per_s``;
    a zero-rate injector yields the same schedule.

    ``prrs`` may also be a :class:`repro.fabric.FabricRuntime` — the run
    then schedules on the live fabric (dynamic admission, defrag on
    fragmentation, permanent-fault column retirement) instead of a fixed
    PRR set; see :func:`repro.fabric.simulate_on_fabric`.  That path
    takes its retry behaviour from the runtime's config, so it rejects
    ``fault_policy``.
    """
    from ..fabric.runtime import FabricRuntime
    from ..faults.degraded import (
        DegradedModePolicy,
        QuarantineEscalation,
        _next_scrub_after,
        _record_fault_observations,
    )
    from ..faults.reliable import verified_write

    if isinstance(prrs, FabricRuntime):
        if fault_policy is not None:
            raise InvalidInput(
                "fault_policy does not apply to a FabricRuntime; "
                "set its FabricConfig instead"
            )
        from ..fabric.schedule import simulate_on_fabric

        return simulate_on_fabric(
            jobs, prrs, port_bytes_per_s=port_bytes_per_s, faults=faults
        )
    if not prrs:
        raise InvalidInput("need at least one PRR")
    if faults is None and fault_policy is not None:
        raise InvalidInput("fault_policy requires a faults= injector")
    policy = fault_policy if fault_policy is not None else DegradedModePolicy()
    retry = policy.retry
    escalation = (
        QuarantineEscalation(policy.permanent_streak)
        if policy.permanent_streak is not None
        else None
    )
    states = [PRRState(index=i, geometry=g) for i, g in enumerate(prrs)]
    failed_streak = [0] * len(states)
    offline: set[int] = set()
    tried: set[int] = set()  # PRRs that failed the current job
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
    seu = faults is not None and faults.seu is not None
    last_seu_check = 0.0
    # Fault telemetry (all model-domain; touched only when tracing is on).
    track = _obs.enabled
    retry_events: list[float] = []
    quarantine_events: list[float] = []
    streamed_bytes = 0.0  # partial-bitstream bytes pushed, incl. re-streams
    streamed_port_seconds = 0.0
    spill_bytes = 0.0
    spill_seconds = 0.0
    offline_since: dict[int, float] = {}
    fitting_states = fitting_index(states)
    span_attrs = {"faulty": True} if faults is not None else {}

    with _obs.trace_span(
        "simulate_pr",
        jobs=len(jobs),
        prrs=len(prrs),
        icap_exclusive=icap_exclusive,
        **span_attrs,
    ):
        for job in sorted(jobs, key=lambda j: (j.arrival_seconds, j.job_id)):
            now = job.arrival_seconds
            # Background SEUs since the last dispatch: each strikes a
            # random PRR and silently corrupts whatever it holds.
            if seu:
                for _ in range(faults.seu_arrivals(last_seu_check, now)):
                    victim = states[faults.choose(len(states))]
                    faults.record_seu(now, f"prr{victim.index}")
                    result.seu_hits += 1
                    victim.loaded_prm = None
                last_seu_check = now

            fitting_all = fitting_states(job)
            while True:
                fitting = fitting_all
                if offline or tried:
                    fitting = [
                        s
                        for s in fitting_all
                        if s.index not in offline and s.index not in tried
                    ]
                    if not fitting:
                        # Every fitting PRR failed this job or is offline.
                        if not (policy.spill_to_full and full_reconfig is not None):
                            result.dropped_jobs += 1
                            break
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
                        result.completed.append(
                            CompletedJob(
                                job_id=job.job_id,
                                task_name=job.task.name,
                                prr_index=-1,
                                arrival=now,
                                start=start,
                                reconfig_seconds=reconfig,
                                finish=finish,
                            )
                        )
                        break
                # Affinity first: an already-loaded, earliest-free PRR;
                # otherwise the earliest-free fitting PRR.
                loaded = [s for s in fitting if s.loaded_prm == job.task.name]
                candidates = loaded or fitting
                state = min(candidates, key=lambda s: (s.busy_until, s.index))

                start_ready = max(state.busy_until, now)
                spent = 0.0  # port + stall + verify + backoff across attempts
                success = True
                if state.loaded_prm != job.task.name:
                    base_t = state.partial_bitstream_bytes / port_bytes_per_s
                    if icap_exclusive:
                        start_ready = max(start_ready, icap_free_at)
                    write = verified_write(
                        base_t,
                        base_t * policy.verify_overhead_factor,
                        retry,
                        _port_outcomes(faults, f"prr{state.index}"),
                        start_ready,
                    )
                    spent, success = write.spent_s, write.success
                    result.retries += write.retries
                    result.deadline_misses += write.deadline_missed
                    if track:
                        streamed_bytes += (
                            write.attempts * state.partial_bitstream_bytes
                        )
                        streamed_port_seconds += write.port_s
                        if write.retry_s > 0:
                            retry_events.append(write.retry_s)
                    state.reconfig_seconds += write.port_s
                    if icap_exclusive:
                        icap_free_at = start_ready + spent
                    if success:
                        # A failed write empties the PRR, so only a
                        # successful write can end its failure streak.
                        failed_streak[state.index] = 0
                        state.loaded_prm = job.task.name
                        state.reconfig_count += 1
                    else:
                        # The aborted write destroyed whatever was loaded.
                        state.loaded_prm = None

                if success:
                    start = start_ready + spent
                    finish = start + job.task.exec_seconds
                    state.busy_until = finish
                    state.busy_seconds += job.task.exec_seconds
                    result.completed.append(
                        CompletedJob(
                            job_id=job.job_id,
                            task_name=job.task.name,
                            prr_index=state.index,
                            arrival=now,
                            start=start,
                            reconfig_seconds=spent,
                            finish=finish,
                        )
                    )
                    break

                # Reconfiguration failed for good on this PRR.
                result.failed_reconfigs += 1
                failed_streak[state.index] += 1
                state.busy_until = start_ready + spent
                tried.add(state.index)
                if failed_streak[state.index] >= policy.quarantine_threshold:
                    result.quarantines += 1
                    failed_streak[state.index] = 0
                    if escalation is not None and escalation.record(state.index):
                        # Streak escalation: the damage is permanent —
                        # retire the PRR for good, scrub or not.
                        result.permanent_retirements += 1
                        faults.record_permanent(
                            state.busy_until,
                            f"prr{state.index}",
                            detail="quarantine-streak escalation",
                        )
                        offline.add(state.index)
                        offline_since[state.index] = state.busy_until
                    elif policy.scrub_period_s is not None:
                        # Offline until the next periodic scrub pass
                        # rewrites the region (one blind-scrub repair).
                        quarantined_at = state.busy_until
                        restore_at = _next_scrub_after(
                            state.busy_until, policy.scrub_period_s
                        )
                        repair = state.partial_bitstream_bytes / port_bytes_per_s
                        state.busy_until = restore_at + repair
                        state.reconfig_seconds += repair
                        result.scrub_repairs += 1
                        if track:
                            quarantine_events.append(
                                state.busy_until - quarantined_at
                            )
                            streamed_bytes += state.partial_bitstream_bytes
                            streamed_port_seconds += repair
                    else:
                        offline.add(state.index)
                        offline_since[state.index] = state.busy_until

            if tried:
                tried.clear()

        result.makespan_seconds = max(
            (j.finish for j in result.completed), default=0.0
        )
        prr_reconfig_seconds = sum(s.reconfig_seconds for s in states)
        result.total_reconfig_seconds += prr_reconfig_seconds
        result.reconfig_count += sum(s.reconfig_count for s in states)
        result.icap_busy_seconds = prr_reconfig_seconds
        if faults is not None:
            result.fault_events = len(faults.events)
        if track:
            if faults is None:
                record_schedule_observations(result, states)
            else:
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
    if _obs.enabled:
        result.trace = _obs.snapshot()
    return result


def simulate_full_reconfig(
    jobs: list[Job],
    device: Device,
    *,
    port_bytes_per_s: float = 400e6,
) -> ScheduleResult:
    """Simulate the non-PR baseline: the whole device is one context.

    Every module switch loads the full bitstream and halts everything;
    jobs run one at a time (the device hosts one hardware task per
    configuration, as in a module-per-bitstream non-PR design).
    """
    full_bytes = full_device_bitstream_bytes(device)
    full_reconfig = full_bytes / port_bytes_per_s
    result = ScheduleResult(system="full_reconfig")
    now = 0.0
    loaded: str | None = None
    with _obs.trace_span(
        "simulate_full_reconfig", jobs=len(jobs), device=device.name
    ):
        for job in sorted(jobs, key=lambda j: (j.arrival_seconds, j.job_id)):
            start_ready = max(now, job.arrival_seconds)
            reconfig = 0.0
            if loaded != job.task.name:
                reconfig = full_reconfig
                loaded = job.task.name
                result.reconfig_count += 1
                result.total_reconfig_seconds += reconfig
                result.halted_seconds += reconfig
            start = start_ready + reconfig
            finish = start + job.task.exec_seconds
            now = finish
            result.completed.append(
                CompletedJob(
                    job_id=job.job_id,
                    task_name=job.task.name,
                    prr_index=0,
                    arrival=job.arrival_seconds,
                    start=start,
                    reconfig_seconds=reconfig,
                    finish=finish,
                )
            )
        result.makespan_seconds = max(
            (j.finish for j in result.completed), default=0.0
        )
        if _obs.enabled:
            record_schedule_observations(result)
            record_transfer(
                full_bytes * result.reconfig_count,
                result.total_reconfig_seconds,
            )
    if _obs.enabled:
        result.trace = _obs.snapshot()
    return result


def _clean_port(time_s: float, attempt: int) -> None:
    """Attempt outcome without an injector: every write verifies."""
    return None


def _port_outcomes(faults, target: str):
    """Each write attempt's fate on *target*: the injector's draw, or a
    clean port when there is no injector."""
    if faults is None:
        return _clean_port
    return lambda time_s, attempt: faults.transfer_outcome(
        time_s, target, attempt=attempt
    )


def fitting_index(states: list[PRRState]) -> Callable[[Job], list[PRRState]]:
    """Per-run lookup of the PRRs whose geometry fits a job's PRM.

    Each distinct PRM's list is computed on first use and reused for
    every later job of the run.  Raises :class:`InvalidInput` for a job
    no PRR fits.
    """
    cache: dict[PRMRequirements, list[PRRState]] = {}

    def fitting(job: Job) -> list[PRRState]:
        prm = job.task.prm
        found = cache.get(prm)
        if found is None:
            found = cache[prm] = [s for s in states if s.geometry.fits(prm)]
        if not found:
            raise InvalidInput(
                f"no PRR fits task {job.task.name!r} "
                f"(needs {prm.lut_ff_pairs} pairs)"
            )
        return found

    return fitting

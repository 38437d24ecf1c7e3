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

import heapq
import itertools
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

    ``icap_exclusive=True`` models the single shared ICAP: only one PRR
    can reconfigure at a time, so concurrent reconfigurations serialize —
    the contention the Claus busy-factor model (ref. [1]) abstracts.  The
    result's ``icap_busy_seconds`` lets callers derive the realized busy
    factor.

    Passing ``faults`` (a :class:`repro.faults.FaultInjector`) switches to
    the fault-aware mode of :mod:`repro.faults.degraded`: verified writes
    retried per ``fault_policy`` (a
    :class:`~repro.faults.degraded.DegradedModePolicy`), failing PRRs
    quarantined and scrub-restored, and unplaceable jobs spilled to the
    full-reconfiguration path when *device* is given.  With a zero-rate
    injector the result is identical to the fault-free mode.

    ``prrs`` may also be a :class:`repro.fabric.FabricRuntime` — the run
    then schedules on the live fabric (dynamic admission, defrag on
    fragmentation, permanent-fault column retirement) instead of a fixed
    PRR set; see :func:`repro.fabric.simulate_on_fabric`.
    """
    from ..fabric.runtime import FabricRuntime

    if isinstance(prrs, FabricRuntime):
        from ..fabric.schedule import simulate_on_fabric

        return simulate_on_fabric(
            jobs,
            prrs,
            port_bytes_per_s=port_bytes_per_s,
            faults=faults,
            fault_policy=fault_policy,
        )
    if not prrs:
        raise ValueError("need at least one PRR")
    if faults is not None:
        from ..faults.degraded import simulate_pr_with_faults

        return simulate_pr_with_faults(
            jobs,
            prrs,
            injector=faults,
            policy=fault_policy,
            port_bytes_per_s=port_bytes_per_s,
            icap_exclusive=icap_exclusive,
            device=device,
        )
    if fault_policy is not None:
        raise ValueError("fault_policy requires a faults= injector")
    states = [PRRState(index=i, geometry=g) for i, g in enumerate(prrs)]
    result = ScheduleResult(system="pr")
    counter = itertools.count()
    # (ready_time, tiebreak, state) heap of PRR availability.
    ready: list[tuple[float, int, PRRState]] = [
        (0.0, next(counter), s) for s in states
    ]
    heapq.heapify(ready)
    icap_free_at = 0.0

    with _obs.trace_span(
        "simulate_pr",
        jobs=len(jobs),
        prrs=len(prrs),
        icap_exclusive=icap_exclusive,
    ):
        fitting_states = fitting_index(states)
        for job in sorted(jobs, key=lambda j: (j.arrival_seconds, j.job_id)):
            fitting = fitting_states(job)
            # Affinity first: an already-loaded, earliest-free PRR;
            # otherwise the earliest-free fitting PRR.
            loaded = [s for s in fitting if s.loaded_prm == job.task.name]
            candidates = loaded or fitting
            state = min(candidates, key=lambda s: (s.busy_until, s.index))

            start_ready = max(state.busy_until, job.arrival_seconds)
            reconfig = 0.0
            if state.loaded_prm != job.task.name:
                reconfig = state.partial_bitstream_bytes / port_bytes_per_s
                if icap_exclusive:
                    start_ready = max(start_ready, icap_free_at)
                    icap_free_at = start_ready + reconfig
                state.loaded_prm = job.task.name
                state.reconfig_count += 1
                state.reconfig_seconds += reconfig
            start = start_ready + reconfig
            finish = start + job.task.exec_seconds
            state.busy_until = finish
            state.busy_seconds += job.task.exec_seconds
            result.completed.append(
                CompletedJob(
                    job_id=job.job_id,
                    task_name=job.task.name,
                    prr_index=state.index,
                    arrival=job.arrival_seconds,
                    start=start,
                    reconfig_seconds=reconfig,
                    finish=finish,
                )
            )

        result.makespan_seconds = max(
            (j.finish for j in result.completed), default=0.0
        )
        result.total_reconfig_seconds = sum(s.reconfig_seconds for s in states)
        result.reconfig_count = sum(s.reconfig_count for s in states)
        result.icap_busy_seconds = result.total_reconfig_seconds
        if _obs.enabled:
            record_schedule_observations(result, states)
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

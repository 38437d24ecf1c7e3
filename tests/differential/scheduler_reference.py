"""Test-only reference for the static FCFS scheduler.

This is the fault-free dispatch loop ``simulate_pr`` ran before the
fault-aware loop became its only body, kept as the oracle for the
differential suite (``test_zero_fault_vs_stock.py``).  Nothing under
``src/`` imports this module.

:func:`simulate_pr_reference` dispatches each job, in (arrival, id)
order, to the earliest-free fitting PRR — preferring one that already
holds the job's PRM — and charges ``partial bitstream bytes / port
rate`` whenever the PRR holds a different PRM.  ``icap_exclusive``
serializes those reconfigurations on one configuration port.
"""

from __future__ import annotations

from repro.core.prr_model import PRRGeometry
from repro.errors import InvalidInput
from repro.multitask.scheduler import (
    CompletedJob,
    PRRState,
    ScheduleResult,
    fitting_index,
    record_schedule_observations,
)
from repro.multitask.tasks import Job
from repro.obs import trace as _obs


def simulate_pr_reference(
    jobs: list[Job],
    prrs: list[PRRGeometry],
    *,
    port_bytes_per_s: float = 400e6,
    icap_exclusive: bool = False,
) -> ScheduleResult:
    """Fault-free FCFS over independently reconfiguring PRRs."""
    if not prrs:
        raise InvalidInput("need at least one PRR")
    states = [PRRState(index=i, geometry=g) for i, g in enumerate(prrs)]
    result = ScheduleResult(system="pr")
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

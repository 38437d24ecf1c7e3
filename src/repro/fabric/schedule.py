"""FCFS scheduling on a live :class:`~repro.fabric.runtime.FabricRuntime`.

The static schedulers in :mod:`repro.multitask.scheduler` assume the
PRR layout is fixed for the whole run.  :func:`simulate_on_fabric`
drives the same job stream through a *self-healing* floorplan instead:
modules are admitted on demand, idle modules retire after
``idle_retire_s`` (the churn that fragments the fabric), permanent
column faults arrive from the injector's
:class:`~repro.faults.models.PermanentColumnFault` process and retire
columns mid-run, and the runtime defragments/migrates around the damage.

``simulate_pr(jobs, runtime)`` dispatches here, so existing experiment
code switches to the live fabric by passing a runtime where it passed a
PRR list.
"""

from __future__ import annotations

import dataclasses

from ..faults.injector import FaultInjector
from ..multitask.scheduler import (
    CompletedJob,
    Job,
    ScheduleResult,
    record_schedule_observations,
)
from ..obs import trace as _obs
from .runtime import AdmissionError, FabricRuntime

__all__ = ["simulate_on_fabric"]


def simulate_on_fabric(
    jobs: list[Job],
    runtime: FabricRuntime,
    *,
    port_bytes_per_s: float = 400e6,
    faults: FaultInjector | None = None,
    idle_retire_s: float | None = None,
) -> ScheduleResult:
    """Run *jobs* FCFS on *runtime*, one module per distinct task.

    * A job whose task has no live module admits one (charging the
      reconfiguration time at the runtime's port rate); admission
      failure drops the job.
    * ``idle_retire_s`` retires a module once it has sat idle that long
      — the churn mechanism that fragments the fabric and exercises
      defragmentation.  ``None`` disables churn.
    * ``faults`` (or ``runtime.injector``) supplies transfer faults for
      migration verify *and* the Poisson permanent-column-fault process;
      struck columns are retired and their modules migrated or evicted.
    * Retry/rollback behaviour comes from the runtime's
      :class:`~repro.fabric.runtime.FabricConfig`.

    Returns a :class:`~repro.multitask.scheduler.ScheduleResult` with
    ``system="fabric"``; ``permanent_retirements`` counts retired
    columns and ``reconfig_count`` counts admissions plus migrations.
    """
    injector = faults if faults is not None else runtime.injector
    if injector is not None:
        runtime.injector = injector
    # Time accounting uses the runtime's port; keep the rates coherent.
    if runtime.config.port_bytes_per_s != port_bytes_per_s:
        runtime.config = dataclasses.replace(
            runtime.config, port_bytes_per_s=port_bytes_per_s
        )

    start_admissions = runtime.admissions
    start_migrations = runtime.migrations
    start_columns = runtime.columns_retired
    start_port_seconds = runtime.port_seconds_total

    result = ScheduleResult(system="fabric")
    busy_until: dict[str, float] = {}
    module_index: dict[str, int] = {}
    fault_clock = 0.0

    # One predicate for the run: it reads the current job's ``now`` and
    # ``task_name``, which the loop below rebinds.
    now = 0.0
    task_name = ""

    def idle(name: str) -> bool:
        return name != task_name and busy_until.get(name, 0.0) <= now

    with _obs.trace_span("fabric.simulate", jobs=len(jobs)):
        for job in sorted(jobs, key=lambda j: (j.arrival_seconds, j.job_id)):
            now = job.arrival_seconds
            task_name = job.task.name

            # Permanent faults that arrived since the last job.
            if injector is not None and now > fault_clock:
                strikes = injector.permanent_arrivals(fault_clock, now)
                fault_clock = now
                for _ in range(strikes):
                    eligible = sorted(
                        col
                        for col in range(1, runtime.device.num_columns + 1)
                        if runtime.device.columns[col - 1].reconfigurable
                        and col not in runtime.retired_columns
                    )
                    if not eligible:
                        break
                    col = eligible[injector.choose(len(eligible))]
                    injector.record_permanent(now, f"col{col}")
                    runtime.retire_column(
                        col, now=now, movable=idle, can_evict=idle
                    )

            # Idle-retirement churn.
            if idle_retire_s is not None:
                due = [
                    name
                    for name in runtime.modules
                    if name != task_name
                    and busy_until.get(name, 0.0) + idle_retire_s <= now
                ]
                for name in sorted(due):
                    runtime.retire(name, now=now)
                    busy_until.pop(name, None)

            module = runtime.get(task_name)
            reconfig_seconds = 0.0
            if module is None:
                try:
                    module = runtime.admit(
                        task_name,
                        job.task.prm,
                        now=now,
                        movable=idle,
                        can_evict=idle,
                    )
                except AdmissionError:
                    result.dropped_jobs += 1
                    continue
                reconfig_seconds = (
                    module.bitstream_bytes / runtime.config.port_bytes_per_s
                )
            if task_name not in module_index:
                module_index[task_name] = len(module_index)

            start = max(busy_until.get(task_name, 0.0), now) + reconfig_seconds
            finish = start + job.task.exec_seconds
            busy_until[task_name] = finish
            result.completed.append(
                CompletedJob(
                    job_id=job.job_id,
                    task_name=task_name,
                    prr_index=module_index[task_name],
                    arrival=now,
                    start=start,
                    reconfig_seconds=reconfig_seconds,
                    finish=finish,
                )
            )

        result.makespan_seconds = max(
            (j.finish for j in result.completed), default=0.0
        )
        port_seconds = runtime.port_seconds_total - start_port_seconds
        result.total_reconfig_seconds = port_seconds
        result.icap_busy_seconds = port_seconds
        result.reconfig_count = (
            runtime.admissions
            - start_admissions
            + runtime.migrations
            - start_migrations
        )
        result.permanent_retirements = runtime.columns_retired - start_columns
        if injector is not None:
            result.fault_events = len(injector.events)
        if _obs.enabled:
            record_schedule_observations(result)
    if _obs.enabled:
        result.trace = _obs.snapshot()
    return result

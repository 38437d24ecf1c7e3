"""Preemptive hardware multitasking with context save/restore costs.

The authors' FCCM'13 work [5] exists precisely so PR systems can *preempt*
hardware tasks: save the running task's context (frame readback), load
another PRM, and resume the first one later (restore bitstream).  This
simulator prices that mechanism:

* **preempt** = context save (readback of every PRR frame at the
  configuration port's read throughput) + reconfiguration to the new PRM;
* **resume** = restore-bitstream write (same size as the PRR's partial
  bitstream) before the remaining execution continues.

Policy: fixed-priority preemptive (lower number = more urgent).  An
arriving job takes an idle fitting PRR if one exists; otherwise it may
preempt the lowest-priority running job (if strictly less urgent) on a
fitting PRR; otherwise it queues.  Completion events dispatch the most
urgent queued job.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

from ..core.bitstream_model import bitstream_size_bytes
from ..core.params import PRMRequirements
from ..core.prr_model import PRRGeometry
from ..devices.frames import BLOCK_TYPE_BRAM_CONTENT  # noqa: F401 (doc ref)
from ..errors import InvalidInput
from .tasks import HwTask

__all__ = [
    "PriorityJob",
    "PreemptiveResult",
    "context_bytes",
    "simulate_preemptive",
]


def context_bytes(geometry: PRRGeometry) -> int:
    """Readback snapshot size of a PRR: every config + BRAM content frame.

    (No packet overhead — readback streams raw frames via FDRO.)
    """
    family = geometry.family
    config_frames = (
        geometry.columns.clb * family.cf_clb
        + geometry.columns.dsp * family.cf_dsp
        + geometry.columns.bram * family.cf_bram
    )
    bram_frames = geometry.columns.bram * family.df_bram
    return geometry.rows * (config_frames + bram_frames) * family.frame_bytes


@dataclass(frozen=True, slots=True)
class PriorityJob:
    """A job with a fixed priority (lower = more urgent)."""

    task: HwTask
    arrival_seconds: float
    priority: int
    job_id: int


@dataclass
class _Running:
    job: PriorityJob
    remaining: float
    resume_pending: bool  # needs a restore write before running


@dataclass
class PreemptiveResult:
    """Outcome of a preemptive simulation."""

    completed: list[tuple[PriorityJob, float, float]] = field(
        default_factory=list
    )  #: (job, first_start, finish)
    preemption_count: int = 0
    context_save_seconds: float = 0.0
    context_restore_seconds: float = 0.0
    makespan_seconds: float = 0.0

    def response_seconds(self, priority: int | None = None) -> list[float]:
        return [
            finish - job.arrival_seconds
            for job, _, finish in self.completed
            if priority is None or job.priority == priority
        ]

    @property
    def context_overhead_seconds(self) -> float:
        return self.context_save_seconds + self.context_restore_seconds


def simulate_preemptive(
    jobs: list[PriorityJob],
    prrs: list[PRRGeometry],
    *,
    port_bytes_per_s: float = 400e6,
    readback_bytes_per_s: float = 400e6,
    allow_preemption: bool = True,
) -> PreemptiveResult:
    """Run the fixed-priority preemptive simulation.

    ``allow_preemption=False`` gives the non-preemptive baseline with the
    same dispatch policy, isolating the preemption benefit/overhead.
    Raises :class:`InvalidInput` for a job no PRR fits.
    """
    if not prrs:
        raise InvalidInput("need at least one PRR")
    placeable: set[PRMRequirements] = set()
    for job in jobs:
        prm = job.task.prm
        if prm in placeable:
            continue
        if not any(g.fits(prm) for g in prrs):
            raise InvalidInput(
                f"no PRR fits task {job.task.name!r} "
                f"(needs {prm.lut_ff_pairs} pairs)"
            )
        placeable.add(prm)

    result = PreemptiveResult()
    counter = itertools.count()

    # Per-PRR state.
    running: list[_Running | None] = [None] * len(prrs)
    loaded: list[str | None] = [None] * len(prrs)
    free_at = [0.0] * len(prrs)

    # Jobs not yet dispatched: (priority, arrival, tiebreak, job-state).
    pending: list[tuple[int, float, int, _Running]] = []

    # Event queue: (time, order, kind, payload).
    events: list[tuple[float, int, str, object]] = []
    for job in jobs:
        heapq.heappush(
            events, (job.arrival_seconds, next(counter), "arrival", job)
        )
    first_start: dict[int, float] = {}

    def reconfig_time(prr_index: int) -> float:
        return bitstream_size_bytes(prrs[prr_index]) / port_bytes_per_s

    def save_time(prr_index: int) -> float:
        return context_bytes(prrs[prr_index]) / readback_bytes_per_s

    def dispatch(prr_index: int, state: _Running, now: float) -> None:
        """Start (or resume) a job on a PRR at *now*."""
        overhead = 0.0
        if loaded[prr_index] != state.job.task.name:
            overhead += reconfig_time(prr_index)
            loaded[prr_index] = state.job.task.name
        elif state.resume_pending:
            overhead += reconfig_time(prr_index)
        if state.resume_pending:
            result.context_restore_seconds += overhead
            state.resume_pending = False
        start = now + overhead
        first_start.setdefault(state.job.job_id, start)
        finish = start + state.remaining
        running[prr_index] = state
        free_at[prr_index] = finish
        heapq.heappush(
            events, (finish, next(counter), "completion", prr_index)
        )

    def fits(state: _Running, prr_index: int) -> bool:
        return prrs[prr_index].fits(state.job.task.prm)

    now = 0.0
    while events:
        now, _, kind, payload = heapq.heappop(events)

        if kind == "completion":
            prr_index = payload
            state = running[prr_index]
            if state is None or free_at[prr_index] > now + 1e-15:
                continue  # stale event (job was preempted)
            running[prr_index] = None
            result.completed.append(
                (state.job, first_start[state.job.job_id], now)
            )
            # Dispatch the most urgent fitting pending job.
            for entry in sorted(pending):
                _, _, _, queued = entry
                if fits(queued, prr_index):
                    pending.remove(entry)
                    dispatch(prr_index, queued, now)
                    break
            continue

        # Arrival.
        job: PriorityJob = payload
        state = _Running(job=job, remaining=job.task.exec_seconds,
                         resume_pending=False)
        idle = [
            i
            for i in range(len(prrs))
            if running[i] is None and fits(state, i)
        ]
        if idle:
            preferred = [i for i in idle if loaded[i] == job.task.name]
            dispatch((preferred or idle)[0], state, now)
            continue

        if allow_preemption:
            victims = [
                (running[i].job.priority, i)
                for i in range(len(prrs))
                if running[i] is not None
                and fits(state, i)
                and running[i].job.priority > job.priority
            ]
            if victims:
                _, prr_index = max(victims)  # least urgent victim
                victim = running[prr_index]
                assert victim is not None
                save = save_time(prr_index)
                result.context_save_seconds += save
                result.preemption_count += 1
                victim.remaining = max(0.0, free_at[prr_index] - now)
                victim.resume_pending = True
                pending.append(
                    (
                        victim.job.priority,
                        victim.job.arrival_seconds,
                        next(counter),
                        victim,
                    )
                )
                running[prr_index] = None
                # The save occupies the PRR before the new job's reconfig.
                dispatch(prr_index, state, now + save)
                continue

        pending.append(
            (job.priority, job.arrival_seconds, next(counter), state)
        )

    result.makespan_seconds = max(
        (finish for _, _, finish in result.completed), default=0.0
    )
    return result

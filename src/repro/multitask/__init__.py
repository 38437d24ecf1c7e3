"""Hardware-multitasking simulator (the paper's Section I motivation).

Jobs of PRM-backed hardware tasks time-multiplex PRRs with
bitstream-size-driven reconfiguration costs; a full-reconfiguration
baseline quantifies the PR benefit.
"""

from .metrics import Comparison, compare
from .preemptive import (
    PreemptiveResult,
    PriorityJob,
    context_bytes,
    simulate_preemptive,
)
from .scheduler import (
    CompletedJob,
    PRRState,
    ScheduleResult,
    simulate_full_reconfig,
    simulate_pr,
)
from .tasks import HwTask, Job, make_task_set, poisson_arrivals

__all__ = [
    "PriorityJob",
    "PreemptiveResult",
    "context_bytes",
    "simulate_preemptive",
    "HwTask",
    "Job",
    "make_task_set",
    "poisson_arrivals",
    "PRRState",
    "CompletedJob",
    "ScheduleResult",
    "simulate_pr",
    "simulate_full_reconfig",
    "Comparison",
    "compare",
]

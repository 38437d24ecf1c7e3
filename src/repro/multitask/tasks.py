"""Hardware task model for the multitasking simulator.

A :class:`HwTask` is a PRM plus execution semantics: each *job* of the
task occupies a PRR for ``exec_seconds`` once its PRM is configured.  Task
sets with deterministic pseudo-random arrivals are built by
:func:`make_task_set` (seeded — no global RNG state).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.params import PRMRequirements
from ..errors import InvalidInput

__all__ = ["HwTask", "Job", "make_task_set", "poisson_arrivals"]


@dataclass(frozen=True, slots=True)
class HwTask:
    """A hardware task: its PRM requirements and per-job execution time."""

    prm: PRMRequirements
    exec_seconds: float

    def __post_init__(self) -> None:
        if self.exec_seconds <= 0:
            raise InvalidInput("exec_seconds must be positive")

    @property
    def name(self) -> str:
        return self.prm.name


@dataclass(frozen=True, slots=True)
class Job:
    """One arrival of a task."""

    task: HwTask
    arrival_seconds: float
    job_id: int

    def __post_init__(self) -> None:
        if self.arrival_seconds < 0:
            raise InvalidInput("arrival time must be non-negative")


def poisson_arrivals(
    rate_per_s: float, horizon_s: float, *, seed: int
) -> list[float]:
    """Deterministic Poisson arrival times over ``[0, horizon_s)``."""
    if rate_per_s <= 0 or horizon_s <= 0:
        raise InvalidInput("rate and horizon must be positive")
    rng = np.random.default_rng(seed)
    times: list[float] = []
    t = 0.0
    while True:
        t += rng.exponential(1.0 / rate_per_s)
        if t >= horizon_s:
            return times
        times.append(t)


def make_task_set(
    tasks: list[HwTask],
    *,
    rate_per_s: float,
    horizon_s: float,
    seed: int = 2015,
) -> list[Job]:
    """A job stream: Poisson arrivals, tasks drawn round-robin-with-jitter.

    Round-robin keeps every PRM exercised (a uniform draw can starve one),
    with a seeded shuffle so inter-arrival orderings vary between seeds.
    """
    if not tasks:
        raise InvalidInput("need at least one task")
    arrivals = poisson_arrivals(rate_per_s, horizon_s, seed=seed)
    rng = np.random.default_rng(seed + 1)
    order: list[HwTask] = []
    while len(order) < len(arrivals):
        batch = list(tasks)
        rng.shuffle(batch)
        order.extend(batch)
    return [
        Job(task=order[i], arrival_seconds=t, job_id=i)
        for i, t in enumerate(arrivals)
    ]

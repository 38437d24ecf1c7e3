"""Comparison metrics for multitasking simulation runs."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import InvalidInput
from .scheduler import ScheduleResult

__all__ = ["Comparison", "compare"]


@dataclass(frozen=True, slots=True)
class Comparison:
    """PR-vs-baseline comparison of two runs over the same job stream."""

    pr: ScheduleResult
    baseline: ScheduleResult

    @property
    def makespan_speedup(self) -> float:
        """Baseline makespan / PR makespan (> 1 means PR wins)."""
        if self.pr.makespan_seconds <= 0:
            return float("inf")
        return self.baseline.makespan_seconds / self.pr.makespan_seconds

    @property
    def response_speedup(self) -> float:
        if self.pr.mean_response_seconds <= 0:
            return float("inf")
        return self.baseline.mean_response_seconds / self.pr.mean_response_seconds

    @property
    def reconfig_byte_ratio(self) -> float:
        """Baseline reconfig seconds / PR reconfig seconds."""
        if self.pr.total_reconfig_seconds <= 0:
            return float("inf")
        return (
            self.baseline.total_reconfig_seconds / self.pr.total_reconfig_seconds
        )

    @property
    def completion_rate_delta(self) -> float:
        """PR completion rate minus baseline's (fault runs drop jobs)."""
        return self.pr.completion_rate - self.baseline.completion_rate

    def summary(self) -> str:
        line = (
            f"PR vs {self.baseline.system}: makespan speedup "
            f"{self.makespan_speedup:.2f}x, response speedup "
            f"{self.response_speedup:.2f}x, reconfig-time ratio "
            f"{self.reconfig_byte_ratio:.1f}x"
        )
        if self.pr.dropped_jobs or self.baseline.dropped_jobs:
            line += (
                f", completion {self.pr.completion_rate:.4f}"
                f" vs {self.baseline.completion_rate:.4f}"
            )
        return line


def compare(
    pr: ScheduleResult, baseline: ScheduleResult, *, strict: bool = True
) -> Comparison:
    """Pair two runs of the same job stream for comparison.

    ``strict=False`` permits differing completed-job counts — fault-aware
    runs may drop jobs, which is exactly what the reliability ablation
    compares via :attr:`Comparison.completion_rate_delta`.
    """
    if strict and len(pr.completed) != len(baseline.completed):
        raise InvalidInput("runs completed different job counts")
    return Comparison(pr=pr, baseline=baseline)

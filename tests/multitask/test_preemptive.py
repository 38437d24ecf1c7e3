"""Tests for preemptive scheduling with context save/restore costs."""

import pytest

from repro.core.params import PRMRequirements
from repro.core.prr_model import PRRGeometry
from repro.devices.family import VIRTEX5
from repro.devices.resources import ResourceVector
from repro.errors import InvalidInput
from repro.multitask.preemptive import (
    PriorityJob,
    context_bytes,
    simulate_preemptive,
)
from repro.multitask.tasks import HwTask

PRR = PRRGeometry(VIRTEX5, rows=1, columns=ResourceVector(clb=3))
PRM = PRMRequirements("small", 100, 80, 60)


def job(job_id, arrival, priority, exec_seconds=0.01):
    return PriorityJob(
        task=HwTask(PRM, exec_seconds=exec_seconds),
        arrival_seconds=arrival,
        priority=priority,
        job_id=job_id,
    )


class TestContextBytes:
    def test_clb_only_prr(self):
        assert context_bytes(PRR) == 3 * 36 * 41 * 4

    def test_bram_prr_includes_content_frames(self):
        prr = PRRGeometry(VIRTEX5, rows=1, columns=ResourceVector(clb=1, bram=1))
        assert context_bytes(prr) == (36 + 30 + 128) * 41 * 4

    def test_scales_with_rows(self):
        two = PRRGeometry(VIRTEX5, rows=2, columns=ResourceVector(clb=3))
        assert context_bytes(two) == 2 * context_bytes(PRR)


class TestBasicScheduling:
    def test_all_jobs_complete(self):
        jobs = [job(i, i * 0.001, priority=5) for i in range(5)]
        result = simulate_preemptive(jobs, [PRR])
        assert len(result.completed) == 5

    def test_no_preemption_among_equal_priorities(self):
        jobs = [job(i, 0.0, priority=5) for i in range(4)]
        result = simulate_preemptive(jobs, [PRR])
        assert result.preemption_count == 0

    def test_needs_a_prr(self):
        with pytest.raises(InvalidInput):
            simulate_preemptive([job(0, 0.0, 1)], [])

    def test_unplaceable_job_rejected_at_entry(self):
        big = PriorityJob(
            task=HwTask(PRMRequirements("big", 10_000, 8_000, 6_000), 0.01),
            arrival_seconds=0.5,
            priority=1,
            job_id=99,
        )
        jobs = [job(i, i * 0.001, priority=5) for i in range(50)] + [big]
        with pytest.raises(InvalidInput, match="no PRR fits task 'big'"):
            simulate_preemptive(jobs, [PRR])

    def test_makespan_covers_all_work(self):
        jobs = [job(i, 0.0, priority=5, exec_seconds=0.01) for i in range(4)]
        result = simulate_preemptive(jobs, [PRR])
        assert result.makespan_seconds >= 4 * 0.01


class TestPreemption:
    def test_urgent_job_preempts(self):
        background = job(0, 0.0, priority=9, exec_seconds=0.1)
        urgent = job(1, 0.01, priority=1, exec_seconds=0.005)
        result = simulate_preemptive([background, urgent], [PRR])
        assert result.preemption_count == 1
        finishes = {j.job_id: finish for j, _, finish in result.completed}
        assert finishes[1] < finishes[0]

    def test_preemption_improves_urgent_response(self):
        background = job(0, 0.0, priority=9, exec_seconds=0.1)
        urgent = job(1, 0.01, priority=1, exec_seconds=0.005)
        with_p = simulate_preemptive([background, urgent], [PRR])
        without_p = simulate_preemptive(
            [background, urgent], [PRR], allow_preemption=False
        )
        assert (
            with_p.response_seconds(priority=1)[0]
            < without_p.response_seconds(priority=1)[0]
        )

    def test_preempted_work_is_conserved(self):
        background = job(0, 0.0, priority=9, exec_seconds=0.1)
        urgent = job(1, 0.01, priority=1, exec_seconds=0.005)
        result = simulate_preemptive([background, urgent], [PRR])
        # The background job's total on-PRR exec time (finish - first start
        # minus all overheads and the urgent job's slice) preserves its
        # 0.1 s of work: it must finish no earlier than 0.1 s of exec plus
        # the urgent job's service.
        finishes = {j.job_id: finish for j, _, finish in result.completed}
        assert finishes[0] >= 0.1 + 0.005

    def test_context_overheads_accounted(self):
        background = job(0, 0.0, priority=9, exec_seconds=0.1)
        urgent = job(1, 0.01, priority=1, exec_seconds=0.005)
        result = simulate_preemptive([background, urgent], [PRR])
        assert result.context_save_seconds > 0
        assert result.context_restore_seconds > 0
        # Save streams the PRR's frames at 400 MB/s.
        expected_save = context_bytes(PRR) / 400e6
        assert result.context_save_seconds == pytest.approx(expected_save)

    def test_preemption_costs_background_response(self):
        """Preemption helps the urgent class but the preempted job pays
        the save + restore overhead."""
        background = job(0, 0.0, priority=9, exec_seconds=0.1)
        urgent = job(1, 0.01, priority=1, exec_seconds=0.005)
        with_p = simulate_preemptive([background, urgent], [PRR])
        without_p = simulate_preemptive(
            [background, urgent], [PRR], allow_preemption=False
        )
        assert (
            with_p.response_seconds(priority=9)[0]
            > without_p.response_seconds(priority=9)[0]
        )

    def test_urgent_never_preempted_by_less_urgent(self):
        urgent = job(0, 0.0, priority=1, exec_seconds=0.05)
        late = job(1, 0.01, priority=5, exec_seconds=0.01)
        result = simulate_preemptive([urgent, late], [PRR])
        assert result.preemption_count == 0

    def test_two_prrs_avoid_preemption(self):
        background = job(0, 0.0, priority=9, exec_seconds=0.1)
        urgent = job(1, 0.01, priority=1, exec_seconds=0.005)
        result = simulate_preemptive([background, urgent], [PRR, PRR])
        assert result.preemption_count == 0

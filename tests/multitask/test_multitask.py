"""Tests for the hardware-multitasking simulator."""

import pytest

from repro.core.placement_search import find_prr
from repro.devices.catalog import XC5VLX110T
from repro.errors import InvalidInput
from repro.multitask.metrics import compare
from repro.multitask.scheduler import (
    simulate_full_reconfig,
    simulate_pr,
)
from repro.multitask.tasks import HwTask, Job, make_task_set, poisson_arrivals

from tests.conftest import paper_requirements


@pytest.fixture(scope="module")
def tasks():
    return [
        HwTask(paper_requirements("fir", "virtex5"), exec_seconds=0.002),
        HwTask(paper_requirements("sdram", "virtex5"), exec_seconds=0.001),
    ]


@pytest.fixture(scope="module")
def prrs(tasks):
    shared = find_prr(XC5VLX110T, [t.prm for t in tasks])
    return [shared.geometry, shared.geometry]


@pytest.fixture(scope="module")
def jobs(tasks):
    return make_task_set(tasks, rate_per_s=200.0, horizon_s=0.25, seed=7)


class TestTasks:
    def test_task_validation(self, tasks):
        with pytest.raises(ValueError):
            HwTask(tasks[0].prm, exec_seconds=0)

    def test_job_validation(self, tasks):
        with pytest.raises(ValueError):
            Job(tasks[0], arrival_seconds=-1, job_id=0)

    def test_poisson_deterministic(self):
        a = poisson_arrivals(100, 1.0, seed=42)
        b = poisson_arrivals(100, 1.0, seed=42)
        assert a == b

    def test_poisson_rate_roughly_right(self):
        arrivals = poisson_arrivals(1000, 10.0, seed=1)
        assert 9000 < len(arrivals) < 11000

    def test_make_task_set_round_robin_covers_all(self, tasks):
        jobs = make_task_set(tasks, rate_per_s=100, horizon_s=0.5, seed=3)
        names = {job.task.name for job in jobs}
        assert names == {"fir", "sdram"}

    def test_arrivals_sorted(self, jobs):
        times = [j.arrival_seconds for j in jobs]
        assert times == sorted(times)


class TestPrSimulation:
    def test_all_jobs_complete(self, jobs, prrs):
        result = simulate_pr(jobs, prrs)
        assert len(result.completed) == len(jobs)

    def test_causality(self, jobs, prrs):
        result = simulate_pr(jobs, prrs)
        for job in result.completed:
            assert job.start >= job.arrival
            assert job.finish > job.start

    def test_no_prr_double_booking(self, jobs, prrs):
        result = simulate_pr(jobs, prrs)
        by_prr = {}
        for job in result.completed:
            by_prr.setdefault(job.prr_index, []).append(job)
        for prr_jobs in by_prr.values():
            prr_jobs.sort(key=lambda j: j.start)
            for a, b in zip(prr_jobs, prr_jobs[1:]):
                # Next job's reconfig+exec may not start before `a` ends.
                assert b.start - b.reconfig_seconds >= a.finish - 1e-12

    def test_affinity_avoids_reconfig(self, tasks, prrs):
        # Same task back-to-back on an idle system: second run needs no
        # reconfiguration.
        jobs = [
            Job(tasks[0], arrival_seconds=0.0, job_id=0),
            Job(tasks[0], arrival_seconds=0.1, job_id=1),
        ]
        result = simulate_pr(jobs, prrs)
        assert result.completed[0].reconfig_seconds > 0
        assert result.completed[1].reconfig_seconds == 0

    def test_unfittable_task_raises(self, prrs):
        from repro.core.params import PRMRequirements

        monster = HwTask(
            PRMRequirements("monster", 10**6, 10**6, 0), exec_seconds=1.0
        )
        with pytest.raises(ValueError, match="no PRR fits"):
            simulate_pr([Job(monster, 0.0, 0)], prrs)

    def test_needs_a_prr(self, jobs):
        with pytest.raises(InvalidInput, match="at least one PRR"):
            simulate_pr(jobs, [])


class TestFullReconfigBaseline:
    def test_serializes_everything(self, jobs):
        result = simulate_full_reconfig(jobs, XC5VLX110T)
        finished = sorted(result.completed, key=lambda j: j.start)
        for a, b in zip(finished, finished[1:]):
            assert b.start - b.reconfig_seconds >= a.finish - 1e-12

    def test_reconfig_uses_full_bitstream(self, jobs):
        result = simulate_full_reconfig(jobs, XC5VLX110T)
        reconfigs = [
            j.reconfig_seconds for j in result.completed if j.reconfig_seconds
        ]
        # ~3.77 MB at 400 MB/s ≈ 9.4 ms per switch.
        assert min(reconfigs) > 0.005

    def test_halted_time_tracked(self, jobs):
        result = simulate_full_reconfig(jobs, XC5VLX110T)
        assert result.halted_seconds == pytest.approx(
            result.total_reconfig_seconds
        )


class TestComparison:
    def test_pr_beats_full_reconfig(self, jobs, prrs):
        """The Section I claim: PR affords faster reconfiguration and
        better multitasking performance than full reconfiguration."""
        pr = simulate_pr(jobs, prrs)
        full = simulate_full_reconfig(jobs, XC5VLX110T)
        cmp = compare(pr, full)
        assert cmp.makespan_speedup > 1.0
        assert cmp.response_speedup > 1.0
        assert pr.total_reconfig_seconds < full.total_reconfig_seconds

    def test_compare_validates_job_counts(self, jobs, prrs):
        pr = simulate_pr(jobs, prrs)
        full = simulate_full_reconfig(jobs[:-1], XC5VLX110T)
        with pytest.raises(ValueError):
            compare(pr, full)

    def test_summaries_render(self, jobs, prrs):
        pr = simulate_pr(jobs, prrs)
        full = simulate_full_reconfig(jobs, XC5VLX110T)
        assert "makespan" in compare(pr, full).summary()
        assert "jobs" in pr.summary()

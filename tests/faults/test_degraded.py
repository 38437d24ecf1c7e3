"""Tests for fault-aware (degraded-mode) multitasking simulation."""

import dataclasses

import pytest

from repro.core.placement_search import find_prr
from repro.devices.catalog import XC5VLX110T
from repro.errors import InvalidInput
from repro.faults import (
    DegradedModePolicy,
    FaultInjector,
    RetryPolicy,
    TransferBitFlipFault,
)
from repro.multitask import HwTask, compare, make_task_set, simulate_pr

from tests.conftest import paper_requirements


@pytest.fixture(scope="module")
def tasks():
    return [
        HwTask(paper_requirements("fir", "virtex5"), exec_seconds=0.002),
        HwTask(paper_requirements("sdram", "virtex5"), exec_seconds=0.001),
    ]


@pytest.fixture(scope="module")
def prr_pair(tasks):
    shared = find_prr(XC5VLX110T, [t.prm for t in tasks])
    return [shared.geometry, shared.geometry]


@pytest.fixture(scope="module")
def single_prr(prr_pair):
    return prr_pair[:1]


@pytest.fixture(scope="module")
def jobs(tasks):
    return make_task_set(tasks, rate_per_s=200.0, horizon_s=0.25, seed=7)


def zero_injector():
    return FaultInjector.from_rates(seed=1)


class TestZeroFaultEquivalence:
    """Fault rate 0 must reproduce the base scheduler *exactly*."""

    @pytest.mark.parametrize("icap_exclusive", [False, True])
    def test_identical_schedule(self, jobs, prr_pair, icap_exclusive):
        base = simulate_pr(jobs, prr_pair, icap_exclusive=icap_exclusive)
        faulty = simulate_pr(
            jobs,
            prr_pair,
            icap_exclusive=icap_exclusive,
            faults=zero_injector(),
        )
        assert faulty.completed == base.completed  # same completion times
        assert faulty.reconfig_count == base.reconfig_count
        assert faulty.total_reconfig_seconds == base.total_reconfig_seconds
        assert faulty.makespan_seconds == base.makespan_seconds
        assert faulty.icap_busy_seconds == base.icap_busy_seconds

    def test_zero_rate_leaves_counters_zero(self, jobs, prr_pair):
        result = simulate_pr(jobs, prr_pair, faults=zero_injector())
        assert dataclasses.asdict(result) | {"completed": None} == (
            dataclasses.asdict(simulate_pr(jobs, prr_pair)) | {"completed": None}
        )
        assert result.fault_events == 0 and result.retries == 0
        assert result.completion_rate == 1.0

    def test_policy_without_injector_rejected(self, jobs, prr_pair):
        with pytest.raises(InvalidInput, match="fault_policy requires"):
            simulate_pr(jobs, prr_pair, fault_policy=DegradedModePolicy())

    def test_unfittable_task_still_raises(self, tasks, prr_pair):
        big = HwTask(paper_requirements("mips", "virtex5"), exec_seconds=0.004)
        jobs = make_task_set([big], rate_per_s=10, horizon_s=0.5, seed=1)
        with pytest.raises(ValueError, match="no PRR fits"):
            simulate_pr(jobs, prr_pair, faults=zero_injector())


class TestPolicyValidation:
    def test_quarantine_threshold_positive(self):
        with pytest.raises(ValueError, match="quarantine_threshold"):
            DegradedModePolicy(quarantine_threshold=0)

    def test_scrub_period_positive(self):
        with pytest.raises(ValueError, match="scrub_period_s"):
            DegradedModePolicy(scrub_period_s=0.0)

    def test_verify_overhead_non_negative(self):
        with pytest.raises(ValueError, match="verify_overhead_factor"):
            DegradedModePolicy(verify_overhead_factor=-0.1)

    def test_no_retry_constructor(self):
        assert DegradedModePolicy.no_retry().retry.max_attempts == 1


class TestDeterminism:
    def test_same_seed_same_everything(self, jobs, single_prr):
        def run():
            return simulate_pr(
                jobs,
                single_prr,
                faults=FaultInjector.from_rates(
                    seed=42, fault_rate=0.4, stall_rate=0.1, seu_rate_per_s=30.0
                ),
                fault_policy=DegradedModePolicy(
                    scrub_period_s=0.02, quarantine_threshold=2
                ),
                device=XC5VLX110T,
            )

        first, second = run(), run()
        assert first.fault_summary() == second.fault_summary()
        assert first.completed == second.completed
        assert first.makespan_seconds == second.makespan_seconds

    def test_different_seed_different_faults(self, jobs, single_prr):
        def run(seed):
            return simulate_pr(
                jobs,
                single_prr,
                faults=FaultInjector.from_rates(seed=seed, fault_rate=0.4),
                fault_policy=DegradedModePolicy(spill_to_full=False),
            )

        assert run(1).fault_summary() != run(2).fault_summary()


class TestDegradedBehaviour:
    def test_retries_consume_schedule_time(self, jobs, single_prr):
        clean = simulate_pr(jobs, single_prr)
        faulty = simulate_pr(
            jobs,
            single_prr,
            faults=FaultInjector.from_rates(seed=42, fault_rate=0.4),
            fault_policy=DegradedModePolicy(retry=RetryPolicy(max_attempts=6)),
            device=XC5VLX110T,
        )
        assert faulty.retries > 0
        assert faulty.total_reconfig_seconds > clean.total_reconfig_seconds

    def test_retry_dominates_no_retry_on_completion(self, jobs, single_prr):
        def run(policy):
            return simulate_pr(
                jobs,
                single_prr,
                faults=FaultInjector.from_rates(seed=42, fault_rate=0.4),
                fault_policy=policy,
            )

        no_retry = run(DegradedModePolicy.no_retry(spill_to_full=False))
        retry = run(DegradedModePolicy(spill_to_full=False))
        assert no_retry.dropped_jobs > 0
        assert retry.completion_rate > no_retry.completion_rate

    def test_quarantine_without_scrub_goes_offline(self, jobs, single_prr):
        # Every transfer corrupted, no retry, no spill: the PRR fails its
        # first jobs, hits the threshold, and the rest of the stream drops.
        result = simulate_pr(
            jobs,
            single_prr,
            faults=FaultInjector(seed=1, transfer=TransferBitFlipFault(1.0)),
            fault_policy=DegradedModePolicy.no_retry(
                quarantine_threshold=2, spill_to_full=False
            ),
        )
        assert result.quarantines == 1
        assert result.scrub_repairs == 0
        assert len(result.completed) == 0
        assert result.dropped_jobs == len(jobs)

    def test_scrub_restores_quarantined_prr(self, jobs, single_prr):
        result = simulate_pr(
            jobs,
            single_prr,
            faults=FaultInjector.from_rates(seed=42, fault_rate=0.6),
            fault_policy=DegradedModePolicy.no_retry(
                quarantine_threshold=2,
                scrub_period_s=0.01,
                spill_to_full=False,
            ),
        )
        assert result.quarantines > 0
        assert result.scrub_repairs == result.quarantines
        # Restored PRRs keep serving jobs after their quarantines.
        assert len(result.completed) > 0

    def test_spill_path_completes_everything(self, jobs, single_prr):
        result = simulate_pr(
            jobs,
            single_prr,
            faults=FaultInjector.from_rates(seed=42, fault_rate=0.6),
            fault_policy=DegradedModePolicy.no_retry(quarantine_threshold=2),
            device=XC5VLX110T,
        )
        assert result.spilled_jobs > 0
        assert result.dropped_jobs == 0
        assert result.completion_rate == 1.0
        spilled = [j for j in result.completed if j.prr_index == -1]
        assert len(spilled) == result.spilled_jobs
        # Spilled jobs paid the whole-device reconfiguration at least once.
        assert result.halted_seconds > 0

    def test_seu_forces_extra_reconfig(self, tasks, prr_pair):
        # One task only: without SEUs the PRM stays loaded and exactly one
        # reconfiguration per PRR ever happens; SEUs invalidate it.
        jobs = make_task_set(tasks[:1], rate_per_s=300.0, horizon_s=0.3, seed=3)
        clean = simulate_pr(jobs, prr_pair, faults=zero_injector())
        seu = simulate_pr(
            jobs,
            prr_pair,
            faults=FaultInjector.from_rates(seed=8, seu_rate_per_s=200.0),
        )
        assert seu.seu_hits > 0
        assert seu.reconfig_count > clean.reconfig_count

    def test_deadline_budget_counted(self, jobs, single_prr):
        result = simulate_pr(
            jobs,
            single_prr,
            faults=FaultInjector.from_rates(seed=42, fault_rate=0.9),
            fault_policy=DegradedModePolicy(
                retry=RetryPolicy(max_attempts=50, deadline_s=1e-4),
                spill_to_full=False,
            ),
        )
        assert result.deadline_misses > 0

    def test_fault_summary_shape(self, jobs, single_prr):
        result = simulate_pr(
            jobs,
            single_prr,
            faults=FaultInjector.from_rates(seed=42, fault_rate=0.3),
            fault_policy=DegradedModePolicy(spill_to_full=False),
        )
        text = result.fault_summary()
        for key in (
            "faults=",
            "retries=",
            "quarantines=",
            "scrub_repairs=",
            "dropped=",
            "completion=",
        ):
            assert key in text


class TestComparisonWithDrops:
    def test_strict_compare_rejects_different_counts(self, jobs, single_prr):
        full = simulate_pr(jobs, single_prr)
        lossy = simulate_pr(
            jobs,
            single_prr,
            faults=FaultInjector.from_rates(seed=42, fault_rate=0.5),
            fault_policy=DegradedModePolicy.no_retry(spill_to_full=False),
        )
        assert lossy.dropped_jobs > 0
        with pytest.raises(ValueError, match="different job counts"):
            compare(lossy, full)
        comparison = compare(lossy, full, strict=False)
        assert comparison.completion_rate_delta < 0
        assert "completion" in comparison.summary()

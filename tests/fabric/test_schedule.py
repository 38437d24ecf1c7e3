"""Scheduling on the live fabric: dispatch, churn, faults, determinism."""

import dataclasses

import pytest

from repro.core import PRMRequirements
from repro.devices import XC5VLX110T
from repro.errors import InvalidInput
from repro.fabric import FabricConfig, FabricRuntime, simulate_on_fabric
from repro.faults import DegradedModePolicy, FaultInjector
from repro.multitask import HwTask, make_task_set, simulate_pr


def task_mix() -> list[HwTask]:
    return [
        HwTask(
            PRMRequirements(f"t{i}", 400 + 100 * i, 300 + 80 * i, 300 + 80 * i),
            exec_seconds=2e-3,
        )
        for i in range(4)
    ]


def job_stream(seed: int = 7):
    return make_task_set(
        task_mix(), rate_per_s=200.0, horizon_s=0.4, seed=seed
    )


class TestDispatch:
    def test_simulate_pr_accepts_a_runtime(self):
        runtime = FabricRuntime(XC5VLX110T)
        result = simulate_pr(job_stream(), runtime)
        assert result.system == "fabric"
        assert result.completed
        assert result.dropped_jobs == 0
        runtime.check_invariants()

    def test_fault_policy_is_rejected_on_a_runtime(self):
        # Retry behaviour on the fabric comes from FabricConfig; a policy
        # passed here would otherwise be silently ignored.
        runtime = FabricRuntime(XC5VLX110T)
        with pytest.raises(InvalidInput, match="fault_policy"):
            simulate_pr(
                job_stream(),
                runtime,
                faults=FaultInjector.from_rates(seed=1),
                fault_policy=DegradedModePolicy(),
            )
        assert runtime.admissions == 0

    def test_reconfig_accounting_comes_from_the_runtime(self):
        runtime = FabricRuntime(XC5VLX110T)
        result = simulate_on_fabric(job_stream(), runtime)
        assert result.reconfig_count == runtime.admissions + runtime.migrations
        assert result.total_reconfig_seconds > 0


class TestChurn:
    def test_idle_retirement_recycles_modules(self):
        runtime = FabricRuntime(XC5VLX110T)
        result = simulate_on_fabric(
            job_stream(), runtime, idle_retire_s=0.02
        )
        assert runtime.retirements > 0
        assert result.completion_rate == 1.0
        runtime.check_invariants()

    def test_churn_free_run_readmits_nothing(self):
        runtime = FabricRuntime(XC5VLX110T)
        simulate_on_fabric(job_stream(), runtime)
        # One admission per distinct task, no retirements, no migrations
        # forced by faults.
        assert runtime.admissions == len(task_mix())
        assert runtime.retirements == 0


class TestPermanentFaultSoak:
    def test_struck_columns_are_retired_and_modules_survive(self):
        injector = FaultInjector.from_rates(seed=3, permanent_rate_per_s=20.0)
        runtime = FabricRuntime(XC5VLX110T, injector=injector)
        result = simulate_on_fabric(
            job_stream(), runtime, idle_retire_s=0.02
        )
        assert runtime.columns_retired > 0
        assert result.permanent_retirements == runtime.columns_retired
        assert result.fault_events == runtime.columns_retired
        runtime.check_invariants()

    def test_fault_run_is_deterministic(self):
        def soak():
            injector = FaultInjector.from_rates(
                seed=11, permanent_rate_per_s=15.0, fault_rate=0.3
            )
            runtime = FabricRuntime(
                XC5VLX110T,
                config=FabricConfig(verify="crc"),
                injector=injector,
            )
            result = simulate_on_fabric(
                job_stream(seed=11), runtime, idle_retire_s=0.02
            )
            return result, runtime

        first_result, first_rt = soak()
        second_result, second_rt = soak()
        assert dataclasses.asdict(first_result) == dataclasses.asdict(
            second_result
        )
        assert first_rt.stats() == second_rt.stats()
        assert [
            (e.time_s, e.kind, e.detail) for e in first_rt.events
        ] == [(e.time_s, e.kind, e.detail) for e in second_rt.events]


class TestConfig:
    def test_port_rate_override_keeps_every_other_field(self):
        # Every field differs from its default, so a field the override
        # forgot to carry over would fall back to the default and show.
        custom = FabricConfig(
            verify="crc",
            port_bytes_per_s=123e6,
            migration_attempts=5,
            auto_defrag=False,
            defrag_threshold=0.25,
            max_defrag_passes=7,
            escalation_streak=4,
        )
        defaults = FabricConfig()
        for field in dataclasses.fields(FabricConfig):
            assert getattr(custom, field.name) != getattr(defaults, field.name), (
                field.name
            )
        runtime = FabricRuntime(XC5VLX110T, config=custom)
        simulate_on_fabric(job_stream(), runtime, port_bytes_per_s=250e6)
        assert runtime.config == dataclasses.replace(custom, port_bytes_per_s=250e6)

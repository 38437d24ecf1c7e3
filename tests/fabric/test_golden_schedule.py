"""Golden live-fabric schedules: the admission path must not change a decision.

Each scenario drives a fixed-seed 200-job Poisson stream of the paper's
three PRMs (FIR, MIPS, SDRAM; Table V requirements) through
:func:`repro.fabric.simulate_on_fabric` on one paper device, with
modules retiring after 1 ms idle so the fabric churns, fragments and
defragments.  The ``faults`` scenarios add Poisson permanent column
faults and failing migration verifies, which exercise column
retirement, fault-displaced re-floorplanning, eviction and rollback.

The expected completed jobs, makespan, runtime counters and event log
are checked in under ``golden/fabric_schedule.jsonl``; they must match
exactly (floats included), so any change to free-space accounting,
placement search or defrag planning that alters one decision fails here.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.devices import XC5VLX110T, XC6VLX75T
from repro.fabric import FabricRuntime, simulate_on_fabric
from repro.faults import FaultInjector
from repro.multitask import HwTask, Job

from tests.conftest import paper_requirements

GOLDEN = Path(__file__).parent / "golden" / "fabric_schedule.jsonl"
#: Fields stored one list item per line, so a diff shows the first job or
#: event that moved.
ITEM_FIELDS = ("completed", "events")

JOBS = 200
ARRIVAL_RATE_PER_S = 1000.0
EXEC_SECONDS_RANGE = (0.5e-3, 2e-3)
IDLE_RETIRE_S = 1e-3
DEVICES = {device.name: device for device in (XC5VLX110T, XC6VLX75T)}
SCENARIOS = tuple(
    (device, faults) for device in DEVICES for faults in ("none", "faults")
)


def job_stream(device_name: str, seed: int = 7) -> list[Job]:
    """The seeded 200-job stream of the three paper PRMs on one device."""
    rng = random.Random(f"golden-fabric/{device_name}/{seed}")
    family = DEVICES[device_name].family.name
    tasks = [
        HwTask(
            paper_requirements(name, family),
            exec_seconds=rng.uniform(*EXEC_SECONDS_RANGE),
        )
        for name in ("fir", "mips", "sdram")
    ]
    jobs = []
    t = 0.0
    for job_id in range(JOBS):
        t += rng.expovariate(ARRIVAL_RATE_PER_S)
        jobs.append(
            Job(task=tasks[rng.randrange(len(tasks))], arrival_seconds=t, job_id=job_id)
        )
    return jobs


def scenario_runtime(
    device_name: str, faults: str, runtime_cls: type[FabricRuntime] = FabricRuntime
) -> FabricRuntime:
    """A fresh runtime for one scenario, with its seeded injector."""
    injector = (
        FaultInjector.from_rates(seed=5, permanent_rate_per_s=40.0, fault_rate=0.5)
        if faults == "faults"
        else None
    )
    return runtime_cls(DEVICES[device_name], injector=injector)


def run_scenario(
    device_name: str, faults: str, runtime_cls: type[FabricRuntime] = FabricRuntime
) -> dict:
    """Run one scenario and return everything the golden file pins."""
    runtime = scenario_runtime(device_name, faults, runtime_cls)
    result = simulate_on_fabric(
        job_stream(device_name), runtime, idle_retire_s=IDLE_RETIRE_S
    )
    return {
        "completed": [
            [j.job_id, j.task_name, j.prr_index, j.arrival, j.start,
             j.reconfig_seconds, j.finish]
            for j in result.completed
        ],
        "makespan_seconds": result.makespan_seconds,
        "dropped_jobs": result.dropped_jobs,
        "reconfig_count": result.reconfig_count,
        "total_reconfig_seconds": result.total_reconfig_seconds,
        "permanent_retirements": result.permanent_retirements,
        "fault_events": result.fault_events,
        "stats": runtime.stats(),
        "retired_columns": sorted(runtime.retired_columns),
        "placements": {
            name: [m.region.row, m.region.col, m.region.height, m.region.width]
            for name, m in sorted(runtime.modules.items())
        },
        "events": [[e.time_s, e.kind, e.detail] for e in runtime.events],
    }


def record() -> str:
    """The golden file's text: one ``[scenario, field, value]`` row per
    field, or per list item for the :data:`ITEM_FIELDS`."""
    rows = []
    for device, faults in SCENARIOS:
        scenario = f"{device}/{faults}"
        for field, value in sorted(run_scenario(device, faults).items()):
            items = value if field in ITEM_FIELDS else [value]
            rows.extend([scenario, field, item] for item in items)
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)


@pytest.fixture(scope="module")
def golden() -> dict:
    scenarios: dict = {}
    for line in GOLDEN.read_text().splitlines():
        name, field, value = json.loads(line)
        scenario = scenarios.setdefault(name, {f: [] for f in ITEM_FIELDS})
        if field in ITEM_FIELDS:
            scenario[field].append(value)
        else:
            scenario[field] = value
    return scenarios


@pytest.mark.parametrize("device_name,faults", SCENARIOS)
def test_fabric_schedule_matches_golden(golden, device_name, faults):
    expected = golden[f"{device_name}/{faults}"]
    actual = json.loads(json.dumps(run_scenario(device_name, faults)))
    assert sorted(actual) == sorted(expected)
    for field in sorted(expected):
        assert actual[field] == expected[field], field


def test_golden_scenarios_exercise_the_admission_path(golden):
    """The recorded runs defragment, migrate, roll back, retire columns and evict."""
    stats = [golden[f"{d}/{f}"]["stats"] for d, f in SCENARIOS]
    assert all(s["admissions"] > 50 for s in stats)
    assert sum(s["defrag_passes"] for s in stats) > 0
    assert sum(s["migrations"] for s in stats) > 0
    assert sum(s["rollbacks"] for s in stats) > 0
    assert sum(s["columns_retired"] for s in stats) > 0
    assert sum(s["evictions"] for s in stats) > 0


# The golden file was recorded before the admission-path rewrite.  Regenerate
# it (PYTHONPATH=src:. python tests/fabric/test_golden_schedule.py) only for
# a change that is meant to alter fabric schedules.
if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(record())

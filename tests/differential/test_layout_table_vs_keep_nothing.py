"""Differential: the runtime's layout table never changes a decision.

:class:`~repro.fabric.FabricRuntime` answers the fragmentation index,
the Fig. 1 placement of a demand group and the steps of a defrag pass
once per layout and reuses them.  Randomized devices, task mixes,
churn, permanent and transfer fault rates and verify modes drive the
same job stream through a runtime with the table and through
:class:`tests.differential.fabric_reference.KeepNothingRuntime`, whose
table never stores.  The completed jobs, every ``ScheduleResult``
field, ``stats()``, the placements, the retired columns, the full event
log and the injector's fault log must all match.

Random operation sequences (admit, retire, defrag, column fault and a
crash mid-migration with recovery) are replayed on both runtimes too,
covering the paths the scheduler never takes.

A last group shrinks :data:`repro.fabric.runtime.LAYOUT_TABLE_CAP` so
each run clears the table several times, and a 24-kind stream drives
the real cap past its bound; both must still match the oracle with the
table never holding more than the cap.
"""

from __future__ import annotations

import dataclasses
import random
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.fabric.runtime as fabric_runtime
from repro.core import PRMRequirements
from repro.devices import XC5VLX110T, XC6VLX75T, synthetic_device
from repro.fabric import (
    AdmissionError,
    FabricConfig,
    FabricRuntime,
    simulate_on_fabric,
)
from repro.faults import FaultInjector
from repro.multitask import HwTask, Job, make_task_set

from tests.conftest import paper_requirements
from tests.differential.fabric_reference import KeepNothingRuntime
from tests.properties.test_fabric_runtime_properties import (
    DEVICES as PROPERTY_DEVICES,
    clb_demand,
    op_sequences,
)

DEVICES = (
    XC5VLX110T,
    XC6VLX75T,
    synthetic_device(
        rows=2,
        clb_runs=(6, 5, 6),
        dsp_positions=(0,),
        bram_positions=(1,),
        name="table-synth",
    ),
)
PAPER_PRMS = ("fir", "mips", "sdram")
#: The paper PRMs plus CLB-only demands one to six columns wide.
KINDS = PAPER_PRMS + tuple(f"clb{width}" for width in range(1, 7))


class CountingRuntime(FabricRuntime):
    """A runtime that checks the table bound after every store."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.stores = 0

    def _remember(self, key, answer):
        answer = super()._remember(key, answer)
        self.stores += 1
        assert len(self._layout_table) <= fabric_runtime.LAYOUT_TABLE_CAP
        return answer


def requirements(kind: str, device) -> PRMRequirements:
    if kind in PAPER_PRMS:
        return paper_requirements(kind, device.family.name)
    return clb_demand(device, kind, int(kind.removeprefix("clb")))


@st.composite
def scenarios(draw):
    device = draw(st.sampled_from(DEVICES))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=6, unique=True))
    rng = random.Random(draw(st.integers(0, 10_000)))
    tasks = [
        HwTask(requirements(kind, device), exec_seconds=rng.uniform(0.2e-3, 2e-3))
        for kind in kinds
    ]
    verify = draw(st.sampled_from(["model", "crc"]))
    jobs = make_task_set(
        tasks,
        rate_per_s=draw(st.floats(500.0, 4000.0)),
        # crc mode moves real frames; a shorter stream keeps it quick.
        horizon_s=draw(st.floats(0.01, 0.02 if verify == "crc" else 0.06)),
        seed=rng.randrange(10_000),
    )
    return {
        "device": device,
        "jobs": jobs,
        "verify": verify,
        "idle_retire_s": draw(st.sampled_from([None, 0.2e-3, 0.5e-3, 1e-3])),
        "injector_seed": rng.randrange(10_000),
        "permanent_rate_per_s": draw(st.sampled_from([0.0, 50.0, 200.0, 500.0])),
        "fault_rate": draw(st.sampled_from([0.0, 0.5, 0.8])),
    }


def run(scenario: dict, runtime_cls: type[FabricRuntime]) -> tuple[dict, FabricRuntime]:
    injector = FaultInjector.from_rates(
        seed=scenario["injector_seed"],
        permanent_rate_per_s=scenario["permanent_rate_per_s"],
        fault_rate=scenario["fault_rate"],
    )
    runtime = runtime_cls(
        scenario["device"],
        config=FabricConfig(verify=scenario["verify"]),
        injector=injector,
    )
    result = simulate_on_fabric(
        scenario["jobs"], runtime, idle_retire_s=scenario["idle_retire_s"]
    )
    runtime.check_invariants()
    return {
        "result": dataclasses.asdict(result),
        "stats": runtime.stats(),
        "placements": {name: m.region for name, m in sorted(runtime.modules.items())},
        "retired_columns": runtime.retired_columns,
        "events": runtime.events,
        "faults": injector.events,
    }, runtime


@given(scenarios())
@settings(max_examples=40, deadline=None)
def test_layout_table_matches_keep_nothing_runtime(scenario):
    table, _ = run(scenario, FabricRuntime)
    oracle, _ = run(scenario, KeepNothingRuntime)
    for field in oracle:
        assert table[field] == oracle[field], field


def replay(runtime: FabricRuntime, device, ops) -> dict:
    """Apply one op sequence; return every outcome and the final state.

    A fragmentation and a placement query run before each op, so a layout
    change that left the table's key stale shows at the next op.
    """
    probe = (clb_demand(device, "probe", 1),)
    outcomes: list = []
    now = 0.0
    for op, payload in ops:
        outcomes.append((runtime.fragmentation_index(), runtime._try_place(probe)))
        now += 1e-3
        if op == "admit":
            name, columns = payload
            if runtime.get(name) is not None:
                continue
            try:
                admitted = runtime.admit(name, clb_demand(device, name, columns), now=now)
                outcomes.append(admitted.region)
            except AdmissionError:
                outcomes.append("admit_failed")
        elif op == "retire":
            live = sorted(runtime.module_names())
            if live:
                outcomes.append(runtime.retire(live[payload % len(live)], now=now).name)
        elif op == "defrag":
            outcomes.append(runtime.defrag(now=now))
        elif op == "fault":
            col = 1 + (payload % device.num_columns)
            if device.columns[col - 1].reconfigurable:
                outcomes.append(runtime.retire_column(col, now=now))
        else:  # crash_migration

            def crash(phase, step, _phase=payload):
                if phase == _phase:
                    raise RuntimeError("injected crash")

            runtime.crash_hook = crash
            try:
                outcomes.append(runtime.defrag(now=now))
            except RuntimeError:
                outcomes.append(runtime.recover(now=now))
            finally:
                runtime.crash_hook = None
    runtime.check_invariants()
    return {
        "outcomes": outcomes,
        "stats": runtime.stats(),
        "placements": {name: m.region for name, m in sorted(runtime.modules.items())},
        "retired_columns": runtime.retired_columns,
        "events": runtime.events,
    }


@given(
    st.sampled_from(PROPERTY_DEVICES),
    op_sequences(),
    st.integers(0, 2**16),
    st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_op_sequences_match_keep_nothing_runtime(device, ops, seed, crc):
    def replayed(runtime_cls):
        runtime = runtime_cls(
            device,
            config=FabricConfig(verify="crc" if crc else "model"),
            injector=FaultInjector.from_rates(seed=seed, fault_rate=0.2),
        )
        return replay(runtime, device, ops)

    assert replayed(FabricRuntime) == replayed(KeepNothingRuntime)


@given(scenarios(), st.integers(1, 6))
@settings(max_examples=25, deadline=None)
def test_table_past_its_bound_stays_equal_and_capped(scenario, cap):
    with mock.patch.object(fabric_runtime, "LAYOUT_TABLE_CAP", cap):
        table, runtime = run(scenario, CountingRuntime)
    assume(runtime.stores > cap)
    oracle, _ = run(scenario, KeepNothingRuntime)
    assert table == oracle
    assert len(runtime._layout_table) <= cap


def test_24_kind_stream_runs_past_the_real_cap():
    """Layouts rarely repeat with 24 kinds, so the table fills and clears."""
    device = XC5VLX110T
    rng = random.Random("layout-table/24-kinds")
    tasks = [
        HwTask(
            clb_demand(device, f"k{width}", width),
            exec_seconds=rng.uniform(0.2e-3, 2e-3),
        )
        for width in range(1, 25)
    ]
    jobs, t = [], 0.0
    for job_id in range(2_500):
        t += rng.expovariate(2_000.0)
        jobs.append(Job(task=rng.choice(tasks), arrival_seconds=t, job_id=job_id))
    scenario = {
        "device": device,
        "jobs": jobs,
        "verify": "model",
        "idle_retire_s": 1e-3,
        "injector_seed": 3,
        "permanent_rate_per_s": 0.0,
        "fault_rate": 0.0,
    }
    table, runtime = run(scenario, CountingRuntime)
    oracle, _ = run(scenario, KeepNothingRuntime)
    assert runtime.stores > fabric_runtime.LAYOUT_TABLE_CAP
    assert table == oracle

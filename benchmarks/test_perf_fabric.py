"""Fabric admission perf gate: free-space accounting and defrag planning.

``FabricRuntime.admit`` computes the fragmentation index and, when it is
high or placement fails, plans a defrag pass, on every module arrival.
Two gates keep those calls fast:

* ``fragmentation_index`` of a free-cell grid on the XC5VLX110T with
  3-6 occupied regions, grid build included, must be >= 3x the list-grid
  histogram-sweep reference in ``tests/differential/fabric_reference.py``;
* ``plan_defrag_pass`` over every layout the golden fabric streams
  (``tests/fabric/test_golden_schedule.py``) ask to plan must be >= 2x
  the full-target-list reference.  The requests are recorded from a
  runtime whose layout table keeps nothing, so each admission's planning
  question reaches the planner even when the live table would answer it.

A third gate covers the runtime's layout table end to end: the golden
scenarios through ``simulate_on_fabric`` must give the same schedules,
counters and event logs as on a keep-nothing runtime, and run >= 1.5x
faster.

An idle 2-vCPU Xeon host measures about 8x, 9x and 2x.  The gates
tolerate loaded CI boxes while still catching a change that puts a
per-cell Python loop back on the path or stops the table from answering.
Equal answers are asserted before timing, so a fast-but-wrong
implementation cannot pass.
"""

from __future__ import annotations

import random
import time

import repro.fabric.runtime as fabric_runtime
from repro.devices import XC5VLX110T, Region
from repro.fabric import (
    FabricRuntime,
    fragmentation_index,
    free_cell_grid,
    plan_defrag_pass,
    simulate_on_fabric,
)

from tests.differential import fabric_reference as ref
from tests.fabric.test_golden_schedule import (
    DEVICES,
    IDLE_RETIRE_S,
    SCENARIOS,
    job_stream,
    run_scenario,
    scenario_runtime,
)

FRAGMENTATION_GATE = 3.0
DEFRAG_GATE = 2.0
LAYOUT_TABLE_GATE = 1.5
REPEATS = 5


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _best_of(fn) -> float:
    return min(_timed(fn) for _ in range(REPEATS))


def _occupied_layouts(count: int = 40) -> list[list[Region]]:
    """Seeded XC5VLX110T layouts of 3-6 non-overlapping valid PRRs."""
    rng = random.Random("perf-fabric")
    device = XC5VLX110T
    layouts = []
    while len(layouts) < count:
        regions: list[Region] = []
        target = rng.randint(3, 6)
        while len(regions) < target:
            row = rng.randint(1, device.rows)
            col = rng.randint(1, device.num_columns)
            candidate = Region(
                row=row,
                col=col,
                height=rng.randint(1, device.rows - row + 1),
                width=rng.randint(1, min(20, device.num_columns - col + 1)),
            )
            if device.is_valid_prr(candidate) and not any(
                candidate.overlaps(other) for other in regions
            ):
                regions.append(candidate)
        layouts.append(regions)
    return layouts


def _golden_defrag_calls(monkeypatch) -> list[tuple]:
    """The (device, placements, blacklist, movable) of every planned pass."""
    calls = []

    def recording(device, placements, blacklist=(), *, movable=None):
        calls.append((device, dict(placements), tuple(blacklist), movable))
        return plan_defrag_pass(device, placements, blacklist, movable=movable)

    monkeypatch.setattr(fabric_runtime, "plan_defrag_pass", recording)
    for name, device in DEVICES.items():
        simulate_on_fabric(
            job_stream(name),
            ref.KeepNothingRuntime(device),
            idle_retire_s=IDLE_RETIRE_S,
        )
    monkeypatch.undo()
    return calls


def test_fragmentation_index_3x_faster_than_reference():
    layouts = _occupied_layouts()
    device = XC5VLX110T

    def fast():
        return [fragmentation_index(free_cell_grid(device, r)) for r in layouts]

    def reference():
        return [
            ref.fragmentation_index(ref.free_cell_grid(device, r)) for r in layouts
        ]

    assert fast() == reference()
    fast_s = _best_of(fast)
    reference_s = _best_of(reference)
    speedup = reference_s / fast_s
    print(
        f"\nfragmentation gate: {len(layouts)} grids, "
        f"reference={reference_s / len(layouts) * 1e6:.0f} us "
        f"numpy={fast_s / len(layouts) * 1e6:.0f} us speedup={speedup:.1f}x"
    )
    assert speedup >= FRAGMENTATION_GATE, (
        f"fragmentation_index only {speedup:.1f}x faster than the histogram "
        f"reference; the >= {FRAGMENTATION_GATE}x gate failed"
    )


def test_defrag_planning_2x_faster_than_reference(monkeypatch):
    calls = _golden_defrag_calls(monkeypatch)
    assert len(calls) > 50

    def fast():
        return [
            plan_defrag_pass(d, p, b, movable=m) for d, p, b, m in calls
        ]

    def reference():
        return [
            ref.plan_defrag_pass(d, p, b, movable=m) for d, p, b, m in calls
        ]

    plans = fast()
    assert plans == reference()
    assert any(plans)
    fast_s = _best_of(fast)
    reference_s = _best_of(reference)
    speedup = reference_s / fast_s
    print(
        f"\ndefrag gate: {len(calls)} passes, "
        f"reference={reference_s / len(calls) * 1e6:.0f} us "
        f"first-hit={fast_s / len(calls) * 1e6:.0f} us speedup={speedup:.1f}x"
    )
    assert speedup >= DEFRAG_GATE, (
        f"plan_defrag_pass only {speedup:.1f}x faster than the full-list "
        f"reference; the >= {DEFRAG_GATE}x gate failed"
    )


def test_layout_table_1_5x_faster_end_to_end():
    for device_name, faults in SCENARIOS:
        assert run_scenario(device_name, faults) == run_scenario(
            device_name, faults, ref.KeepNothingRuntime
        ), f"{device_name}/{faults}"
    streams = [
        (device_name, faults, job_stream(device_name))
        for device_name, faults in SCENARIOS
    ]

    def schedule(runtime_cls):
        def run():
            for device_name, faults, jobs in streams:
                simulate_on_fabric(
                    jobs,
                    scenario_runtime(device_name, faults, runtime_cls),
                    idle_retire_s=IDLE_RETIRE_S,
                )

        return run

    # Alternate the arms so a noisy spell on a shared host hits both.
    table_s = keep_nothing_s = float("inf")
    for _ in range(REPEATS):
        keep_nothing_s = min(keep_nothing_s, _timed(schedule(ref.KeepNothingRuntime)))
        table_s = min(table_s, _timed(schedule(FabricRuntime)))
    speedup = keep_nothing_s / table_s
    print(
        f"\nlayout-table gate: {len(streams)} golden streams, "
        f"keep-nothing={keep_nothing_s / len(streams) * 1e3:.2f} ms "
        f"table={table_s / len(streams) * 1e3:.2f} ms speedup={speedup:.2f}x"
    )
    assert speedup >= LAYOUT_TABLE_GATE, (
        f"the layout table only makes simulate_on_fabric {speedup:.2f}x faster "
        f"than a keep-nothing runtime; the >= {LAYOUT_TABLE_GATE}x gate failed"
    )

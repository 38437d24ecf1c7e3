"""Fabric admission perf gate: free-space accounting and defrag planning.

``FabricRuntime.admit`` computes the fragmentation index and, when it is
high or placement fails, plans a defrag pass, on every module arrival.
Two gates keep those calls fast:

* ``fragmentation_index`` of a free-cell grid on the XC5VLX110T with
  3-6 occupied regions, grid build included, must be >= 3x the list-grid
  histogram-sweep reference in ``tests/differential/fabric_reference.py``;
* ``plan_defrag_pass`` over the layouts the golden fabric stream
  (``tests/fabric/test_golden_schedule.py``) actually asks it to plan
  must be >= 2x the full-target-list reference.

An idle 2-vCPU Xeon host measures about 8x and 9x.  The gates tolerate
loaded CI boxes while still catching a change that puts a per-cell
Python loop back on the path.  Equal answers are asserted before timing,
so a fast-but-wrong implementation cannot pass.
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
from tests.fabric.test_golden_schedule import DEVICES, IDLE_RETIRE_S, job_stream

FRAGMENTATION_GATE = 3.0
DEFRAG_GATE = 2.0
REPEATS = 5


def _best_of(fn) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


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
            job_stream(name), FabricRuntime(device), idle_retire_s=IDLE_RETIRE_S
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

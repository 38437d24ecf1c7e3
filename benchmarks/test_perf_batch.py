"""Batch-engine perf gates: >= 10x the scalar loop, >= 1.5x the grid scan.

CI counterpart of ``scripts/bench_batch.py`` (which writes the tracked
``BENCH_batch.json``).  At the ISSUE 6 acceptance size — 10k distinct
(PRM, device) pairs in one call — the numpy columnar engine must beat a
scalar ``evaluate_prm`` loop by at least 10x.  The committed benchmark
records ~150x on an idle machine; the 10x gate tolerates loaded CI boxes
while still catching any regression that de-vectorizes a model stage.  Correctness of the speedup (identical selections) is asserted on
a sample before timing, so a fast-but-wrong engine cannot pass.

The second gate holds ``batch_select`` — one exact-mix window table read
per cell, eq. (18) bytes for the picked cells only — to >= 1.5x the
test-only reference that scans window starts per distinct mix and prices
the whole grid, after checking the two selections are identical.
"""

from __future__ import annotations

import time

from repro.core.api import batch_evaluate, evaluate_prm
from repro.core.batch import batch_select, requirement_columns
from repro.core.bitstream_model import clear_bitstream_cache
from repro.core.placement_search import PlacementNotFoundError
from repro.devices import XC5VLX110T

from scripts.bench_batch import synthetic_batch
from tests.differential.batch_reference import (
    assert_selections_equal,
    batch_select_reference,
)

GATE_N = 10_000
GATE_SPEEDUP = 10.0
#: Scalar loop is timed on a subsample and extrapolated linearly — it IS
#: linear in N (no cross-PRM state once caches are cleared), and this
#: keeps the gate's wall time ~1s instead of ~2.5s.
SCALAR_SAMPLE = 2_000
REFERENCE_SPEEDUP = 1.5


def best_of_3(fn) -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_batch_evaluate_10x_faster_at_10k_pairs():
    prms = synthetic_batch(GATE_N)

    # Correctness spot-check before timing anything.
    sample_every = GATE_N // 50
    warm = batch_evaluate(prms, XC5VLX110T)
    for i in range(0, GATE_N, sample_every):
        try:
            expected = evaluate_prm(prms[i], XC5VLX110T)
        except PlacementNotFoundError:
            assert not bool(warm.feasible[i])
            continue
        assert warm.result(i) == expected

    clear_bitstream_cache()
    start = time.perf_counter()
    for prm in prms[:SCALAR_SAMPLE]:
        try:
            evaluate_prm(prm, XC5VLX110T)
        except PlacementNotFoundError:
            pass
    scalar_s = (time.perf_counter() - start) * (GATE_N / SCALAR_SAMPLE)

    best_batch_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        result = batch_evaluate(prms, XC5VLX110T)
        best_batch_s = min(best_batch_s, time.perf_counter() - start)
    assert len(result) == GATE_N

    speedup = scalar_s / best_batch_s
    print(
        f"\nbatch gate: scalar~{scalar_s * 1e3:.0f} ms (extrapolated) "
        f"batch={best_batch_s * 1e3:.1f} ms speedup={speedup:.1f}x"
    )
    assert speedup >= GATE_SPEEDUP, (
        f"batch engine only {speedup:.1f}x faster than scalar at "
        f"N={GATE_N}; the >= {GATE_SPEEDUP}x gate failed"
    )


def test_batch_select_1_5x_faster_than_grid_scan_reference():
    columns = requirement_columns(synthetic_batch(GATE_N))
    assert_selections_equal(
        batch_select(XC5VLX110T, *columns),
        batch_select_reference(XC5VLX110T, *columns),
    )

    select_s = best_of_3(lambda: batch_select(XC5VLX110T, *columns))
    reference_s = best_of_3(lambda: batch_select_reference(XC5VLX110T, *columns))
    speedup = reference_s / select_s
    print(
        f"\nselect gate: reference={reference_s * 1e3:.1f} ms "
        f"select={select_s * 1e3:.1f} ms speedup={speedup:.1f}x"
    )
    assert speedup >= REFERENCE_SPEEDUP, (
        f"batch_select only {speedup:.1f}x faster than the grid-scan "
        f"reference at N={GATE_N}; the >= {REFERENCE_SPEEDUP}x gate failed"
    )

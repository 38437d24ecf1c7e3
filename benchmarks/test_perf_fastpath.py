"""Fast-path perf benchmark: indexed fabric queries and explorer modes.

Asserts indexed/naive ``find_column_window`` equivalence on the paper's
six PRM/device cases plus a synthetic 10-PRM workload, and that the
indexed query beats the test-only naive scan; this is the repo's only
timing of that query.  Iteration counts are tight so the CI bench smoke
stays fast; the 2x speedup gate is deliberately loose (a 2-vCPU Xeon
host measured 5.9-59x per case) to tolerate loaded CI machines.  Explorer
strategy timings are tracked by ``scripts/bench_explorer.py``.
"""

from __future__ import annotations

import time
from functools import partial

import pytest

from repro.core.explorer import explore, pareto_front
from repro.core.prr_model import InfeasibleGeometryError, prr_geometry_for_rows
from repro.devices import XC5VLX110T

from benchmarks.conftest import BUILDERS, DEVICES
from scripts.bench_explorer import WIDE_DEVICE, synthetic_prms
from tests.differential.placement_reference import find_column_window_naive


def window_queries(device, prms) -> list:
    """The column-mix queries a Fig. 1 search issues for *prms*."""
    queries = []
    for prm in prms:
        for rows in range(1, device.rows + 1):
            try:
                geometry = prr_geometry_for_rows(
                    prm,
                    device.family,
                    rows,
                    single_dsp_column=device.has_single_dsp_column,
                )
            except InfeasibleGeometryError:
                continue
            queries.append(geometry.columns)
    return queries


def _mix_queries(device, reports):
    prms = [
        reports[(name, device.name)].requirements for name in BUILDERS
    ]
    return window_queries(device, prms)


@pytest.mark.parametrize("device", DEVICES.values(), ids=lambda d: d.name)
def test_indexed_matches_naive_on_paper_cases(device, reports):
    for query in _mix_queries(device, reports):
        for start_col in (1, 5, device.num_columns // 2):
            assert device.find_column_window(query, start_col=start_col) == (
                find_column_window_naive(device, query, start_col=start_col)
            )


def test_indexed_faster_than_naive_on_synthetic10():
    queries = window_queries(WIDE_DEVICE, synthetic_prms(10))
    assert queries
    for query in queries:  # warm the per-mix cache first
        WIDE_DEVICE.find_column_window(query)

    def timed(fn) -> float:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(5):
                for query in queries:
                    fn(query, start_col=1)
            best = min(best, time.perf_counter() - start)
        return best

    naive = timed(partial(find_column_window_naive, WIDE_DEVICE))
    indexed = timed(WIDE_DEVICE.find_column_window)
    assert indexed < naive / 2, (
        f"indexed path only {naive / indexed:.1f}x faster than naive scan"
    )


def test_explorer_modes_agree_quick(reports):
    prms = [
        reports[(name, XC5VLX110T.name)].requirements for name in BUILDERS
    ]
    exhaustive = explore(XC5VLX110T, prms, mode="exhaustive")
    pruned = explore(XC5VLX110T, prms, mode="pruned")
    assert pareto_front(exhaustive) == pareto_front(pruned)


def test_beam_smoke_on_synthetic10():
    designs = explore(WIDE_DEVICE, synthetic_prms(10), beam_width=16)
    assert designs
    assert designs[0].objectives == min(d.objectives for d in designs)

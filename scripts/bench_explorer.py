#!/usr/bin/env python
"""Microbenchmark: indexed vs naive fabric queries + explorer modes.

Times the two halves of the fast-path work (ISSUE 1):

* ``find_column_window`` — the indexed (prefix-sum + cached bisect) path
  against the retained naive slice-and-recount scan, over the paper's six
  PRM/device cases and a synthetic 10-PRM workload on a wide fabric;
* ``explore`` — exhaustive / pruned / beam strategy timings on the
  paper's 3-PRM workload and the synthetic 8- and 10-PRM workloads (all
  in-process; the explorer has no process pool).

Writes ``BENCH_explorer.json`` at the repo root so subsequent PRs can
track the perf trajectory.  Run from the repo root::

    PYTHONPATH=src python scripts/bench_explorer.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from repro.core.explorer import explore, pareto_front  # noqa: E402
from repro.core.params import PRMRequirements  # noqa: E402
from repro.core.prr_model import (  # noqa: E402
    InfeasibleGeometryError,
    clear_geometry_cache,
    prr_geometry_for_rows,
)
from repro.devices import XC5VLX110T, XC6VLX75T  # noqa: E402
from repro.devices.catalog import make_device  # noqa: E402
from repro.devices.family import VIRTEX5  # noqa: E402
from repro.devices.window_index import ColumnWindowIndex  # noqa: E402
from repro.synth import synthesize  # noqa: E402
from repro.workloads import build_fir, build_mips, build_sdram  # noqa: E402

from tests.differential.placement_reference import (  # noqa: E402
    find_column_window_naive,
)

BUILDERS = {"fir": build_fir, "mips": build_mips, "sdram": build_sdram}
DEVICES = {"xc5vlx110t": XC5VLX110T, "xc6vlx75t": XC6VLX75T}

#: Wide synthetic Virtex-5-class fabric for the 10-PRM workload.
WIDE_DEVICE = make_device(
    "bench-wide-v5",
    VIRTEX5,
    rows=8,
    layout=(
        "I C*12 B C*10 D C*12 B C*10 D C*12 B K "
        "C*12 B C*10 D C*12 B C*10 D C*12 I"
    ),
    description="Synthetic wide fabric for fast-path benchmarks.",
)


def synthetic_prms(count: int = 10) -> list[PRMRequirements]:
    """Deterministic synthetic workload (no PRM mixes DSP and BRAM)."""
    prms = []
    for i in range(count):
        pairs = 240 + 56 * i
        prms.append(
            PRMRequirements(
                f"syn{i}",
                lut_ff_pairs=pairs,
                luts=pairs - 60,
                ffs=180 + 24 * i,
                dsps=8 if i % 3 == 0 else 0,
                brams=3 if i % 3 == 1 else 0,
            )
        )
    return prms


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


def time_find_column_window(device, queries, *, repeats: int, loops: int) -> dict:
    """Best-of-*repeats* per-query times for naive and indexed paths."""

    def run(fn) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(loops):
                for query in queries:
                    fn(query, start_col=1)
            best = min(best, time.perf_counter() - start)
        return best / (loops * len(queries))

    naive = run(partial(find_column_window_naive, device))
    # Populate the per-mix cache once, then measure the steady state the
    # explorer actually runs in.
    object.__setattr__(device, "_window_index", ColumnWindowIndex(device.columns))
    for query in queries:
        device.find_column_window(query, start_col=1)
    indexed = run(device.find_column_window)
    for query in queries:
        assert device.find_column_window(query, start_col=1) == (
            find_column_window_naive(device, query, start_col=1)
        )
    return {
        "queries": len(queries),
        "naive_us_per_query": round(naive * 1e6, 4),
        "indexed_us_per_query": round(indexed * 1e6, 4),
        "speedup": round(naive / indexed, 2) if indexed else float("inf"),
    }


def time_explore(device, prms, *, modes, repeats: int, **kwargs) -> dict:
    out = {}
    for mode in modes:
        clear_geometry_cache()
        samples = []
        designs = []
        for _ in range(repeats):
            start = time.perf_counter()
            designs = explore(device, prms, mode=mode, **kwargs)
            samples.append(time.perf_counter() - start)
        out[mode] = {
            "seconds": round(min(samples), 4),
            "designs": len(designs),
            "pareto_front": len(pareto_front(designs)),
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="tight iteration counts (CI smoke)"
    )
    parser.add_argument(
        "--output", default=str(ROOT / "BENCH_explorer.json"), help="output path"
    )
    args = parser.parse_args()

    repeats = 2 if args.quick else 5
    loops = 5 if args.quick else 40

    results: dict = {
        "benchmark": "explorer-fastpath",
        "quick": args.quick,
        "find_column_window": {},
        "explore": {},
    }

    # -- paper six PRM/device cases --------------------------------------
    for device_name, device in DEVICES.items():
        reqs = [
            synthesize(builder(device.family), device.family).requirements
            for builder in BUILDERS.values()
        ]
        for prm in reqs:
            queries = window_queries(device, [prm])
            case = f"{prm.name}@{device_name}"
            results["find_column_window"][case] = time_find_column_window(
                device, queries, repeats=repeats, loops=loops
            )

    # -- synthetic 10-PRM workload on the wide fabric --------------------
    syn = synthetic_prms(10)
    queries = window_queries(WIDE_DEVICE, syn)
    results["find_column_window"]["synthetic10@bench-wide-v5"] = (
        time_find_column_window(WIDE_DEVICE, queries, repeats=repeats, loops=loops)
    )

    # -- explorer strategy timings ---------------------------------------
    paper_prms = [
        synthesize(builder(VIRTEX5), VIRTEX5).requirements
        for builder in BUILDERS.values()
    ]
    results["explore"]["paper3@xc5vlx110t"] = time_explore(
        XC5VLX110T,
        paper_prms,
        modes=("exhaustive", "pruned", "beam"),
        repeats=1 if args.quick else 3,
    )
    results["explore"]["synthetic10@bench-wide-v5"] = time_explore(
        WIDE_DEVICE,
        syn,
        modes=("beam",),
        repeats=1 if args.quick else 3,
    )
    results["explore"]["synthetic8@bench-wide-v5"] = time_explore(
        WIDE_DEVICE,
        syn[:8],
        modes=("exhaustive", "pruned"),
        repeats=1,
    )

    speedups = [
        case["speedup"] for case in results["find_column_window"].values()
    ]
    results["summary"] = {
        "min_window_speedup": min(speedups),
        "median_window_speedup": round(statistics.median(speedups), 2),
        "synthetic10_window_speedup": results["find_column_window"][
            "synthetic10@bench-wide-v5"
        ]["speedup"],
    }

    output = Path(args.output)
    output.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(json.dumps(results["summary"], indent=2))
    for case, data in results["explore"].items():
        print(case, json.dumps(data))
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

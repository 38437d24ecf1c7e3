#!/usr/bin/env python
"""Microbenchmark: explorer strategy timings.

Times ``explore`` in its exhaustive / pruned / beam strategies on the
paper's 3-PRM workload and the synthetic 8- and 10-PRM workloads (all
in-process; the explorer has no process pool).  The indexed
``find_column_window`` against the naive scan is timed by its CI gate,
``benchmarks/test_perf_fastpath.py``.

Writes ``BENCH_explorer.json`` at the repo root so subsequent PRs can
track the perf trajectory.  Run from the repo root::

    PYTHONPATH=src python scripts/bench_explorer.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.core.explorer import explore, pareto_front  # noqa: E402
from repro.core.params import PRMRequirements  # noqa: E402
from repro.devices import XC5VLX110T  # noqa: E402
from repro.devices.catalog import make_device  # noqa: E402
from repro.devices.family import VIRTEX5  # noqa: E402
from repro.synth import synthesize  # noqa: E402
from repro.workloads import build_fir, build_mips, build_sdram  # noqa: E402

BUILDERS = {"fir": build_fir, "mips": build_mips, "sdram": build_sdram}

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


def time_explore(device, prms, *, modes, repeats: int, **kwargs) -> dict:
    out = {}
    for mode in modes:
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

    results: dict = {
        "benchmark": "explorer-fastpath",
        "quick": args.quick,
        "explore": {},
    }

    syn = synthetic_prms(10)
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

    output = Path(args.output)
    output.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    for case, data in results["explore"].items():
        print(case, json.dumps(data))
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

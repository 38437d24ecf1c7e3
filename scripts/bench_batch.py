#!/usr/bin/env python
"""Microbenchmark: batch (numpy columnar) vs scalar cost-model evaluation.

Times the ISSUE 6 tentpole end to end: for batches of N distinct PRM
requirement vectors on one device, compare

* **scalar** — ``evaluate_prm`` called N times (geometry search,
  bitstream model and reconfiguration time per call), stripped to the
  selection outputs so both paths produce the same information;
* **batch** — one ``batch_evaluate`` array call producing the columnar
  selection for all N PRMs at once.

Scalar caches (geometry / bitstream memoization) are cleared before each
scalar repetition so the comparison measures the models, not a warm
cache.  Each timing is the best of ``--repeats`` runs.  Writes
``BENCH_batch.json`` at the repo root::

    PYTHONPATH=src python scripts/bench_batch.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.core.api import batch_evaluate, evaluate_prm  # noqa: E402
from repro.core.bitstream_model import clear_bitstream_cache  # noqa: E402
from repro.core.params import PRMRequirements  # noqa: E402
from repro.core.placement_search import PlacementNotFoundError  # noqa: E402
from repro.devices.catalog import DEVICES  # noqa: E402


def synthetic_batch(count: int) -> list[PRMRequirements]:
    """*count* distinct PRM vectors spanning the feasibility envelope."""
    prms = []
    for i in range(count):
        pairs = 40 + (i * 97) % 24_000
        prms.append(
            PRMRequirements(
                name=f"prm{i}",
                lut_ff_pairs=pairs,
                luts=pairs,
                ffs=pairs // 2,
                dsps=(i * 13) % 48 if i % 4 == 0 else 0,
                brams=(i * 7) % 24 if i % 4 == 1 else 0,
            )
        )
    return prms


def time_scalar(prms, device, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        clear_bitstream_cache()
        start = time.perf_counter()
        for prm in prms:
            try:
                evaluate_prm(prm, device)
            except PlacementNotFoundError:
                pass
        best = min(best, time.perf_counter() - start)
    return best


def time_batch(prms, device, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        batch_evaluate(prms, device)
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sizes and one repeat (CI smoke)",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--output",
        type=Path,
        default=ROOT / "BENCH_batch.json",
        help="where to write the JSON summary",
    )
    args = parser.parse_args()
    repeats = 1 if args.quick else args.repeats
    sizes = [100, 1000] if args.quick else [100, 1000, 10_000, 20_000]
    device = DEVICES["xc5vlx110t"]

    runs = []
    for size in sizes:
        prms = synthetic_batch(size)
        scalar_s = time_scalar(prms, device, repeats)
        batch_s = time_batch(prms, device, repeats)
        speedup = scalar_s / batch_s if batch_s > 0 else float("inf")
        per_pair_us = batch_s / size * 1e6
        runs.append(
            {
                "device": device.name,
                "n_prms": size,
                "pairs_evaluated": size,  # one (PRM, device) pair per PRM
                "scalar_s": scalar_s,
                "batch_s": batch_s,
                "speedup": speedup,
                "batch_us_per_pair": per_pair_us,
                "repeats": repeats,
            }
        )
        print(
            f"N={size:>6}  scalar={scalar_s * 1e3:9.1f} ms  "
            f"batch={batch_s * 1e3:7.2f} ms  speedup={speedup:7.1f}x  "
            f"({per_pair_us:.2f} us/pair)"
        )

    summary = {
        "benchmark": "batch_vs_scalar_cost_models",
        "quick": args.quick,
        "device": device.name,
        "runs": runs,
        "max_speedup": max(run["speedup"] for run in runs),
        "speedup_at_largest_n": runs[-1]["speedup"],
    }
    args.output.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python
"""Soak benchmark: the resilient serving layer under load.

Exercises :class:`repro.serve.CostModelService` the way a reconfiguration
manager would abuse it:

* a **soak**: a burst of evaluate + explore requests against a small
  worker pool with a bounded queue — sheds are counted, every accepted
  request must resolve (result or typed error), latency percentiles are
  recorded;
* an **anytime deadline** probe: a 10-PRM explore under a tight
  wall-clock budget must return within deadline + 10% (plus slack).

Process-crash recovery is benchmarked for the sharded tier by
``scripts/bench_cluster.py``.  Writes ``BENCH_serve.json`` at the repo
root.  Run from the repo root::

    PYTHONPATH=src python scripts/bench_serve.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
if str(ROOT) not in sys.path:
    sys.path.insert(1, str(ROOT))

from repro.core import explorer  # noqa: E402
from repro.devices import XC5VLX110T  # noqa: E402
from repro.errors import DeadlineExceeded, Overloaded, ReproError  # noqa: E402
from repro.serve import (  # noqa: E402
    CostModelService,
    EvaluateRequest,
    ExploreRequest,
    ServiceConfig,
)
from repro.synth import synthesize  # noqa: E402
from repro.workloads import build_fir, build_mips, build_sdram  # noqa: E402
from scripts.bench_explorer import WIDE_DEVICE, synthetic_prms  # noqa: E402

BUILDERS = {"fir": build_fir, "mips": build_mips, "sdram": build_sdram}


def paper_prms(device) -> list:
    return [
        synthesize(builder(device.family), device.family).requirements
        for builder in BUILDERS.values()
    ]


def percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def run_soak(
    *,
    requests: int,
    workers: int,
    queue_depth: int,
    explore_deadline_s: float,
) -> dict:
    """Push a request burst through the service; account for every ticket."""
    prms = paper_prms(XC5VLX110T)
    config = ServiceConfig(
        workers=workers, queue_depth=queue_depth, shed_retry_after_s=0.02
    )
    outcomes = {
        "completed": 0,
        "shed": 0,
        "deadline_exceeded": 0,
        "typed_errors": 0,
        "untyped_failures": 0,
        "degraded": 0,
    }
    latencies: list[float] = []
    with CostModelService(config) as service:
        tickets = []
        for index in range(requests):
            kind = index % 4
            if kind in (0, 1):
                request = EvaluateRequest(
                    prms[index % len(prms)], "xc5vlx110t"
                )
            elif kind == 2:
                request = ExploreRequest(
                    XC5VLX110T,
                    tuple(prms),
                    mode="exhaustive",
                    deadline_s=explore_deadline_s,
                )
            else:
                request = ExploreRequest(
                    XC5VLX110T, tuple(prms), mode="exhaustive"
                )
            try:
                submitted = time.perf_counter()
                tickets.append((submitted, service.submit(request)))
            except Overloaded:
                outcomes["shed"] += 1
                time.sleep(config.shed_retry_after_s)
        for submitted, ticket in tickets:
            try:
                value = ticket.result(timeout=120)
            except DeadlineExceeded:
                outcomes["deadline_exceeded"] += 1
            except ReproError:
                outcomes["typed_errors"] += 1
            except Exception:  # noqa: BLE001 - soak accounting
                outcomes["untyped_failures"] += 1
            else:
                outcomes["completed"] += 1
                if getattr(value, "degraded", False):
                    outcomes["degraded"] += 1
            latencies.append(time.perf_counter() - submitted)
    accepted = len(latencies)
    resolved = accepted - outcomes["untyped_failures"]
    return {
        "requests": requests,
        "accepted": accepted,
        **outcomes,
        "resolution_rate_non_shed": round(resolved / accepted, 4)
        if accepted
        else 1.0,
        "latency_s": {
            "p50": round(percentile(latencies, 0.50), 4) if latencies else 0.0,
            "p99": round(percentile(latencies, 0.99), 4) if latencies else 0.0,
            "max": round(max(latencies), 4) if latencies else 0.0,
        },
    }


def run_deadline_probe(deadline_s: float) -> dict:
    """Anytime explore on the synthetic 10-PRM workload under a deadline."""
    prms = synthetic_prms(10)
    start = time.perf_counter()
    result = explorer.explore(
        WIDE_DEVICE, prms, mode="beam", deadline_s=deadline_s
    )
    elapsed = time.perf_counter() - start
    return {
        "deadline_s": deadline_s,
        "elapsed_s": round(elapsed, 4),
        "within_budget": elapsed <= deadline_s * 1.1 + 0.2,
        "designs": len(result),
        "pareto_front": len(result.front),
        "status": result.status,
        "mode": result.mode,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="smaller soak for CI smoke"
    )
    parser.add_argument(
        "--output", default=str(ROOT / "BENCH_serve.json"), help="output path"
    )
    args = parser.parse_args()

    requests = 16 if args.quick else 48
    document = {
        "benchmark": "serve-soak",
        "config": {
            "requests": requests,
            "workers": 2,
            "queue_depth": 8,
            "quick": args.quick,
        },
        "soak_fault_free": run_soak(
            requests=requests,
            workers=2,
            queue_depth=8,
            explore_deadline_s=5.0,
        ),
        "deadline_probe": run_deadline_probe(0.5),
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(json.dumps(document, indent=1, sort_keys=True))
    print(f"\nwrote {args.output}")
    failures = []
    if document["soak_fault_free"]["untyped_failures"]:
        failures.append("soak_fault_free: untyped failures")
    if not document["deadline_probe"]["within_budget"]:
        failures.append("deadline_probe: budget blown")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Cluster soak benchmark: the sharded serving tier under load and faults.

Drives :class:`repro.serve.ClusterService` at 10x (or, with ``--scale``,
up to 100x) the 48-request ``BENCH_serve.json`` load and accounts for
every request — the acceptance bar is *100% typed resolution*: each
submission ends in a result or a typed :mod:`repro.errors` outcome, never
a hang or a stray traceback.  Three arms:

* **fault-free soak** — a burst of evaluate requests over a small key
  population (3 paper PRMs x scale variants x 2 devices) so the
  content-addressed cache has real work to do; p50/p99 latency and the
  cache hit rate are recorded.
* **chaos soak** — the same burst with the works thrown at it: one shard
  crashing itself on a deterministic :class:`~repro.faults.ShardChaos`
  plan, an externally SIGKILLed shard mid-burst, disk-cache entries
  corrupted *and* truncated between waves (wave 2 cold-starts a new
  cluster on the damaged directory), and a disk-full window during the
  second wave.  Quarantine counts and restart counts must both be
  nonzero, and typed resolution must still be 100%.
* **differential check** — every result served anywhere in the soak is
  compared against a fresh in-process :func:`~repro.core.api.evaluate_prm`
  run: a corrupted cache entry must never be served.

Writes ``BENCH_cluster.json`` at the repo root.  Run from the repo root::

    PYTHONPATH=src python scripts/bench_cluster.py [--quick] [--scale N]
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
if str(ROOT) not in sys.path:
    sys.path.insert(1, str(ROOT))

from repro.core.api import evaluate_prm  # noqa: E402
from repro.core.params import PRMRequirements  # noqa: E402
from repro.devices import XC5VLX110T, XC6VLX75T  # noqa: E402
from repro.errors import Overloaded, ReproError  # noqa: E402
from repro.faults import (  # noqa: E402
    ShardChaos,
    corrupt_cache_entry,
    disk_full,
    truncate_cache_entry,
)
from repro.serve import (  # noqa: E402
    ClusterConfig,
    ClusterService,
    EvaluateRequest,
)
from repro.synth import synthesize  # noqa: E402
from repro.workloads import build_fir, build_mips, build_sdram  # noqa: E402

BUILDERS = {"fir": build_fir, "mips": build_mips, "sdram": build_sdram}
DEVICES = {"xc5vlx110t": XC5VLX110T, "xc6vlx75t": XC6VLX75T}

#: BENCH_serve.json drives 48 requests; this soak multiplies that.
BASELINE_REQUESTS = 48


def percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def key_population() -> list[tuple[PRMRequirements, str]]:
    """~12 distinct cache keys: 3 PRMs x 2 scale variants x 2 devices."""
    population: list[tuple[PRMRequirements, str]] = []
    for device_name, device in DEVICES.items():
        for workload, builder in BUILDERS.items():
            prm = synthesize(
                builder(device.family), device.family
            ).requirements
            population.append((prm, device_name))
            population.append(
                (
                    replace(
                        prm,
                        name=f"{workload}-x2",
                        lut_ff_pairs=prm.lut_ff_pairs * 2,
                        luts=prm.luts * 2,
                        ffs=prm.ffs * 2,
                    ),
                    device_name,
                )
            )
    return population


def _drive_burst(
    cluster: ClusterService,
    workload: list[tuple[PRMRequirements, str]],
    outcomes: dict,
    latencies: list[float],
    served: list,
) -> None:
    """Submit one wave, honoring Overloaded retry_after hints."""
    tickets = []
    for prm, device_name in workload:
        while True:
            try:
                submitted = time.perf_counter()
                ticket = cluster.submit(EvaluateRequest(prm, device_name))
            except Overloaded as shed:
                outcomes["shed"] += 1
                time.sleep(shed.retry_after_s or 0.02)
                continue
            tickets.append((submitted, prm, device_name, ticket))
            break
    for submitted, prm, device_name, ticket in tickets:
        try:
            result = ticket.result(timeout=180)
        except ReproError:
            outcomes["typed_errors"] += 1
        except Exception:  # noqa: BLE001 - soak accounting
            outcomes["untyped_failures"] += 1
        else:
            outcomes["completed"] += 1
            served.append((prm, device_name, result))
        latencies.append(time.perf_counter() - submitted)


def _damage_cache_dir(cache_dir: str, rng: random.Random) -> int:
    """Corrupt one entry and truncate another; return files damaged."""
    entries = sorted(Path(cache_dir).glob("*.entry"))
    damaged = 0
    if entries:
        corrupt_cache_entry(entries[0], rng=rng)
        damaged += 1
    if len(entries) > 1:
        truncate_cache_entry(entries[1], keep_fraction=0.4)
        damaged += 1
    return damaged


def run_soak(*, requests: int, shards: int, chaos: bool) -> dict:
    """Two waves over a shared cache dir; chaos arm injects the works."""
    population = key_population()
    workload = [population[i % len(population)] for i in range(requests)]
    cache_dir = tempfile.mkdtemp(prefix="bench-cluster-")
    rng = random.Random(20150525)  # the paper's conference date
    outcomes = {
        "completed": 0,
        "typed_errors": 0,
        "untyped_failures": 0,
        "shed": 0,
    }
    latencies: list[float] = []
    served: list = []
    chaos_plans = ()
    if chaos:
        plans = [ShardChaos() for _ in range(shards)]
        plans[0] = ShardChaos(crash_after_requests=4)
        chaos_plans = tuple(plans)
    config = ClusterConfig(
        shards=shards,
        shard_queue_depth=16,
        probe_interval_s=0.1,
        hedge_after_s=2.0,
        cache_memory_entries=4,  # force traffic onto the disk tier
        cache_dir=cache_dir,
        chaos=chaos_plans,
    )
    half = len(workload) // 2
    started = time.perf_counter()

    # Wave 1: cold cache; the chaos arm also SIGKILLs a shard mid-wave.
    stats_wave1: dict = {}
    with ClusterService(config) as cluster:
        if chaos:
            mid = workload[: half // 2]
            _drive_burst(cluster, mid, outcomes, latencies, served)
            victim = cluster.shard_pids()[-1]
            if victim is not None:
                os.kill(victim, signal.SIGKILL)
                # Hold the wave until the supervisor notices the corpse
                # and restarts it — the breaker, not the benchmark, must
                # do the recovery.
                deadline = time.monotonic() + 10.0
                while (
                    time.monotonic() < deadline
                    and cluster.stats()["restarts"] == 0
                ):
                    time.sleep(0.02)
            _drive_burst(
                cluster, workload[half // 2 : half], outcomes, latencies,
                served,
            )
        else:
            _drive_burst(cluster, workload[:half], outcomes, latencies, served)
        stats_wave1 = cluster.stats()

    damaged = 0
    if chaos:
        damaged = _damage_cache_dir(cache_dir, rng)

    # Wave 2: a fresh cluster cold-starts on the same (possibly damaged)
    # directory — warm cache re-attach; the chaos arm also slams a
    # disk-full window so cache writes fail closed.
    with ClusterService(config) as cluster:
        wave2 = workload[half:]
        if chaos:
            quarter = len(wave2) // 4
            with disk_full():
                _drive_burst(
                    cluster, wave2[:quarter], outcomes, latencies, served
                )
            _drive_burst(
                cluster, wave2[quarter:], outcomes, latencies, served
            )
        else:
            _drive_burst(cluster, wave2, outcomes, latencies, served)
        stats_wave2 = cluster.stats()
        health = cluster.health()
    elapsed = time.perf_counter() - started

    # Differential: everything served must equal a fresh evaluation.
    mismatches = 0
    for prm, device_name, result in served:
        if result != evaluate_prm(prm, device_name):
            mismatches += 1

    accepted = outcomes["completed"] + outcomes["typed_errors"]
    resolved = accepted + outcomes["untyped_failures"]
    cache_hits = stats_wave1["cache_hits"] + stats_wave2["cache_hits"]
    hit_rate = cache_hits / accepted if accepted else 0.0
    return {
        "requests": requests,
        "distinct_keys": len(population),
        "shards": shards,
        "chaos": chaos,
        **outcomes,
        "typed_resolution_rate": round(accepted / resolved, 4)
        if resolved
        else 1.0,
        "cache_hits": cache_hits,
        "cache_hit_rate": round(hit_rate, 4),
        "quarantined": stats_wave2["quarantined"],
        "disk_write_errors": stats_wave2["disk_write_errors"],
        "cache_files_damaged": damaged,
        "restarts": stats_wave1["restarts"] + stats_wave2["restarts"],
        "hedges": stats_wave1["hedges"] + stats_wave2["hedges"],
        "coalesced": stats_wave1["coalesced"] + stats_wave2["coalesced"],
        "differential_mismatches": mismatches,
        "final_health": [row["health"] for row in health],
        "elapsed_s": round(elapsed, 2),
        "throughput_rps": round(len(latencies) / elapsed, 1)
        if elapsed
        else 0.0,
        "latency_s": {
            "p50": round(percentile(latencies, 0.50), 4) if latencies else 0.0,
            "p99": round(percentile(latencies, 0.99), 4) if latencies else 0.0,
            "max": round(max(latencies), 4) if latencies else 0.0,
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="smaller soak for CI smoke"
    )
    parser.add_argument(
        "--scale",
        type=int,
        default=10,
        help="load multiplier over the 48-request serve benchmark (10-100)",
    )
    parser.add_argument(
        "--output",
        default=str(ROOT / "BENCH_cluster.json"),
        help="output path",
    )
    args = parser.parse_args()
    scale = 2 if args.quick else max(10, min(100, args.scale))
    requests = BASELINE_REQUESTS * scale
    shards = 2 if args.quick else 3

    document = {
        "benchmark": "cluster-soak",
        "config": {
            "baseline_requests": BASELINE_REQUESTS,
            "scale": scale,
            "requests": requests,
            "shards": shards,
            "quick": args.quick,
        },
        "soak_fault_free": run_soak(
            requests=requests, shards=shards, chaos=False
        ),
        "soak_with_faults": run_soak(
            requests=requests, shards=shards, chaos=True
        ),
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(json.dumps(document, indent=1, sort_keys=True))
    print(f"\nwrote {args.output}")

    failures = []
    for arm in ("soak_fault_free", "soak_with_faults"):
        data = document[arm]
        if data["untyped_failures"]:
            failures.append(f"{arm}: untyped failures")
        if data["typed_resolution_rate"] < 1.0:
            failures.append(f"{arm}: typed resolution below 100%")
        if data["cache_hit_rate"] < 0.5:
            failures.append(f"{arm}: cache hit rate below 50%")
        if data["differential_mismatches"]:
            failures.append(f"{arm}: served result != fresh evaluation")
    chaos_arm = document["soak_with_faults"]
    if not chaos_arm["quarantined"]:
        failures.append("soak_with_faults: no quarantines recorded")
    if not chaos_arm["restarts"]:
        failures.append("soak_with_faults: no shard restarts recorded")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Repository benchmark: end-to-end host-time metrics and a traced per-layer split.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_flow --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` measures half the time untraced and half traced (each
phase from the same seed and a fresh set-up), prints the per-layer table
and the tracing overhead, writes the spans, and checks that both phases
produced the same simulated outputs.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is non-zero when any output check fails.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3
#: Imports the benchmark and the library in a fresh interpreter and
#: prints how long that took; argv holds the directories to import from.
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
    "import flows; print(time.perf_counter() - t)"
)
TAIL_MIN_BEYOND = 10  #: the tail leaves at least this many samples beyond it
TAIL_SHARE_BEYOND = 0.10  #: ... and at least this share of them (so at most p90)

#: Generic metric names -> the per-workload names they stand for.
WORKLOAD_NAMES = {
    "paper_flow": {
        "op_ms": "flow_mean_ms",
        "op_tail_ms": "flow_tail_ms",
        "ops_per_s": "flows_per_s",
        "sub_a_ms": "simulate_pr_pass_mean_ms",
        "sub_b_ms": "simulate_on_fabric_pass_mean_ms",
        "op_p50_ms": "flow_p50_ms",
        "sub_a_p50_ms": "simulate_pr_pass_p50_ms",
        "sub_b_p50_ms": "simulate_on_fabric_pass_p50_ms",
    },
    "dse_sweep": {
        "op_ms": "dse_set_mean_ms",
        "op_tail_ms": "dse_set_tail_ms",
        "ops_per_s": "dse_sets_per_s",
        "sub_a_ms": "evaluate_prm_call_mean_ms",
        "sub_b_ms": "batch_evaluate_10k_mean_ms",
        "op_p50_ms": "dse_set_p50_ms",
        "sub_a_p50_ms": "evaluate_prm_call_p50_ms",
        "sub_b_p50_ms": "batch_evaluate_10k_p50_ms",
    },
    "serve_mix": {
        "op_ms": "serve_mean_ms",
        "op_tail_ms": "serve_tail_ms",
        "ops_per_s": "serve_rps",
        "sub_a_ms": "serve_hit_p25_ms",
        "sub_b_ms": "serve_miss_p25_ms",
        "op_p50_ms": "serve_p50_ms",
        "sub_a_p50_ms": "serve_hit_p50_ms",
        "sub_b_p50_ms": "serve_miss_p50_ms",
    },
}

UNITS = {
    "setup_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "op_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "sub_a_ms": "ms",
    "sub_b_ms": "ms",
}

#: Share of samples dropped at each end before averaging.
TRIM_SHARE = 0.05


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The p90, or the highest percentile with 10 samples beyond it if lower.

    With thousands of samples the highest percentile that still has 10
    samples beyond it is p99.9, set by a handful of scheduler and disk
    stalls; it moved by 46% between runs of serve_mix, more than any
    bound allows.  p90 moves by under 4%.

    Returns ``(value, percentile, samples_beyond)``; with 10 samples or
    fewer the maximum is returned and ``samples_beyond`` is 0.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_MIN_BEYOND:
        return (ordered[-1] if ordered else 0.0), 100.0, 0
    beyond = max(TAIL_MIN_BEYOND, math.ceil(n * TAIL_SHARE_BEYOND))
    index = n - beyond - 1
    return ordered[index], 100.0 * (index + 1) / n, beyond


def median(samples: list[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def trimmed_mean(samples: list[float]) -> float:
    """Mean of the samples left after dropping ``TRIM_SHARE`` at each end.

    Used for the typical latency in place of the median.  The latencies
    are mixtures (six flow kinds, hits and misses, GIL-contended and
    uncontended requests), and a median that sits where two parts of a
    mixture meet jumps between them from run to run; a trimmed mean moves
    only in proportion to the mixture.
    """
    ordered = sorted(samples)
    cut = int(len(ordered) * TRIM_SHARE)
    kept = ordered[cut: len(ordered) - cut] or ordered
    return statistics.fmean(kept) if kept else 0.0


def quantile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[int(q * (len(ordered) - 1))] if ordered else 0.0


def typical(samples: list[float], at: float | None) -> float:
    """The quantile *at* of the samples, or their trimmed mean if *at* is None."""
    return trimmed_mean(samples) if at is None else quantile(samples, at)


def import_seconds() -> float:
    """Import time of the benchmark and the library in a fresh interpreter.

    Import is most of ``setup_s`` on ``serve_mix`` and one sample of it
    swings by half with the host's speed at that moment, so ``setup_s``
    takes the median of three samples: the run's own import, one before
    the measurement and one after it.
    """
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(HERE), str(ROOT / "src")],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.split()[-1])


def peak_rss_mb(phase) -> float:
    """Peak resident set of this process plus the workload's child processes.

    The children's peaks come from the workload, not from
    ``RUSAGE_CHILDREN``, which would also count the import probes.
    """
    own_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return (own_kib + phase.children_peak_kib) / 1024.0


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int, clients: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "workload": workload,
        "seed": seed,
        "clients": clients,
        "loop": "closed",
    }


def timings(phase) -> dict[str, float]:
    """The latency and rate metrics of one phase or time window."""
    return {
        "op_ms": trimmed_mean(phase.op_s) * 1e3,
        "op_tail_ms": tail(phase.op_s)[0] * 1e3,
        "ops_per_s": phase.ops_per_s,
        "sub_a_ms": typical(phase.sub_a_s, phase.sub_a_quantile) * 1e3,
        "sub_b_ms": typical(phase.sub_b_s, phase.sub_b_quantile) * 1e3,
    }


def end_to_end(phase, setup_s: float) -> tuple[dict[str, float], dict]:
    """The end-to-end metrics of one phase, plus tail details.

    A phase split into time windows reports each timing as the median
    over its windows, so a stall of the host that lasts less than half
    the run does not move it.
    """
    _, tail_pct, beyond = tail(phase.op_s)
    failed_ratio = phase.failed / phase.attempted if phase.attempted else 1.0
    if phase.windows:
        per_window = [timings(window) for window in phase.windows]
        timed = {name: median([t[name] for t in per_window]) for name in per_window[0]}
    else:
        timed = timings(phase)
    metrics = {
        "setup_s": setup_s,
        "ok_ratio": 1.0 - failed_ratio,
        "peak_rss_mb": peak_rss_mb(phase),
        **timed,
    }
    details = {
        "failed_ratio": failed_ratio,
        "op_p50_ms": median(phase.op_s) * 1e3,
        "sub_a_p50_ms": median(phase.sub_a_s) * 1e3,
        "sub_b_p50_ms": median(phase.sub_b_s) * 1e3,
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "windows": len(phase.windows) or 1,
        "op_samples": len(phase.op_s),
        "sub_a_samples": len(phase.sub_a_s),
        "sub_b_samples": len(phase.sub_b_s),
        "wall_s": phase.wall_s,
        **phase.derived,
    }
    return metrics, details


def layer_metrics(rows, program_stats: dict, overhead_ratio: float) -> dict[str, tuple]:
    """The per-layer metrics declared in BENCHMARK.json, from the span summary."""

    def busy(name: str) -> float:
        return rows[name].busy_s if name in rows else 0.0

    def calls(name: str) -> int:
        return rows[name].calls if name in rows else 0

    def count(name: str, key: str) -> float:
        return rows[name].counts.get(key, 0.0) if name in rows else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    hits = program_stats.get("cache_hits", 0)
    lookups = hits + program_stats.get("misses", 0)
    return {
        "workloads.build.busy_s": (busy("workloads.build"), "s"),
        "synth.synthesize.busy_s": (busy("synth.synthesize"), "s"),
        "bitgen.generate.busy_s": (busy("bitgen.generate"), "s"),
        "bitgen.generate.bytes": (count("bitgen.generate", "bytes"), "bytes"),
        "bitgen.parse.busy_s": (busy("bitgen.parse"), "s"),
        "bitgen.parse.bytes": (count("bitgen.parse", "bytes"), "bytes"),
        "icap.simulate_reconfiguration.busy_s": (busy("icap.simulate_reconfiguration"), "s"),
        "multitask.simulate_pr.busy_s": (busy("multitask.simulate_pr"), "s"),
        "multitask.simulate_pr.jobs": (count("multitask.simulate_pr", "jobs"), "count"),
        "fabric.simulate_on_fabric.busy_s": (busy("fabric.simulate_on_fabric"), "s"),
        "fabric.migrations": (count("fabric.simulate_on_fabric", "migrations"), "count"),
        "fabric.defrag_passes": (count("fabric.simulate_on_fabric", "defrag_passes"), "count"),
        "fabric.evictions": (count("fabric.simulate_on_fabric", "evictions"), "count"),
        "core.evaluate_prm.calls": (calls("core.evaluate_prm"), "count"),
        "core.evaluate_prm.busy_s": (busy("core.evaluate_prm"), "s"),
        "core.evaluate_prm.infeasible": (count("core.evaluate_prm", "infeasible"), "count"),
        "core.batch_evaluate.busy_s": (busy("core.batch_evaluate"), "s"),
        "core.batch_evaluate.pairs": (count("core.batch_evaluate", "pairs"), "count"),
        "core.batch_evaluate.feasible_ratio": (
            ratio(count("core.batch_evaluate", "feasible"), count("core.batch_evaluate", "pairs")),
            "ratio",
        ),
        "core.explore.busy_s": (busy("core.explore"), "s"),
        "core.explore.designs": (count("core.explore", "designs"), "count"),
        "core.explore.front_ratio": (
            ratio(count("core.explore", "front"), count("core.explore", "designs")),
            "ratio",
        ),
        "core.floorplan.busy_s": (busy("core.floorplan"), "s"),
        "serve.start.busy_s": (busy("serve.start"), "s"),
        "serve.submit.busy_s": (busy("serve.submit"), "s"),
        "serve.wait_s": (busy("serve.wait"), "s"),
        "serve.shed": (count("bench.request", "shed"), "count"),
        "serve.typed_errors": (count("bench.request", "typed_errors"), "count"),
        "serve.cache_hit_ratio": (ratio(hits, lookups), "ratio"),
        "serve.stores": (program_stats.get("stores", 0), "count"),
        "serve.coalesced": (program_stats.get("coalesced", 0), "count"),
        "obs.trace_overhead_ratio": (overhead_ratio, "ratio"),
    }


def print_end_to_end(workload: str, label: str, metrics: dict, details: dict) -> None:
    names = WORKLOAD_NAMES[workload]
    print(f"-- {workload} end-to-end ({label}) --")
    for name, value in metrics.items():
        alias = names.get(name)
        shown = f"{name} ({alias})" if alias else name
        print(f"  {shown:48} {value:14.6g} {UNITS[name]}")
    print(f"  {'failed_ratio':48} {details['failed_ratio']:14.6g} ratio")
    print(
        f"  tail = p{details['tail_percentile']:.1f} of {details['op_samples']} ops, "
        f"{details['tail_samples_beyond']} beyond"
    )
    for name, value in sorted(details.items()):
        if name.endswith(("_per_s", "_share", "_p50_ms")):
            alias = names.get(name)
            shown = f"{name} ({alias})" if alias else name
            print(f"  {shown:48} {value:14.6g}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_NAMES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import flows
    import spans

    import_samples = [time.perf_counter() - PROCESS_START]
    work_dir = OUT_DIR / "tmp"
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = flows.WORKLOADS[args.workload](args.seed, ROOT, work_dir)
    env = environment(args.workload, args.seed, workload.clients)
    print("env " + json.dumps(env, sort_keys=True))
    try:
        setups = [workload.setup() for _ in range(SETUP_REPEATS)]
        import_samples.append(import_seconds())
        if args.trace == 0:
            phase = workload.measure(args.seconds)
            phases = [phase]
        else:
            base = workload.measure(args.seconds / 2)
            tracer = spans.Tracer()
            workload.setup(tracer)
            phase = workload.measure(args.seconds / 2, tracer)
            phases = [base, phase]
    finally:
        workload.close()
    import_samples.append(import_seconds())
    setup_s = statistics.median(import_samples) + statistics.median(setups)

    problems = [p for ph in phases for p in ph.problems]
    attempted = sum(ph.attempted for ph in phases)
    failed = sum(ph.failed for ph in phases)
    metrics, details = end_to_end(phase, setup_s)
    report = {
        "env": env,
        "setup_repeats_s": setups,
        "import_samples_s": import_samples,
    }
    if args.trace == 0:
        print_end_to_end(args.workload, "untraced", metrics, details)
        report.update(metrics=metrics, details=details)
        result_metrics, units = metrics, UNITS
    else:
        base_metrics, base_details = end_to_end(base, setup_s)
        print_end_to_end(args.workload, "untraced half", base_metrics, base_details)
        print_end_to_end(args.workload, "traced half", metrics, details)
        common = min(len(base.digests), len(phase.digests))
        mismatched = sum(
            1 for a, b in zip(base.digests[:common], phase.digests[:common]) if a != b
        )
        attempted += 1
        if mismatched or common == 0:
            failed += 1
            problems.append(
                f"determinism: {mismatched} of {common} ops gave different "
                f"simulated outputs in the traced phase"
            )
        print(f"determinism: {common - mismatched}/{common} ops identical across phases")
        untraced = base_metrics["op_ms"]
        overhead = (metrics["op_ms"] - untraced) / untraced if untraced else 0.0
        rows = spans.summarize(tracer.spans)
        print(f"-- {args.workload} per-layer (traced half) --")
        print(spans.render_table(rows))
        layers = layer_metrics(rows, phase.program_stats, overhead)
        for name, (value, unit) in layers.items():
            print(f"  {name:40} {value:14.6g} {unit}")
        spans_dir = OUT_DIR / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        spans_path = spans_dir / f"{args.workload}-seed{args.seed}.json"
        spans.write_spans(tracer.spans, spans_path)
        print(f"wrote {len(tracer.spans)} spans to {spans_path.relative_to(ROOT)}")
        report.update(
            untraced={"metrics": base_metrics, "details": base_details},
            traced={"metrics": metrics, "details": details},
            layers={name: value for name, (value, _) in layers.items()},
            determinism={"compared": common, "mismatched": mismatched},
        )
        result_metrics = {name: value for name, (value, _) in layers.items()}
        units = {name: unit for name, (_, unit) in layers.items()}

    for problem in problems:
        print(f"FAIL {problem}")
    correct = failed == 0
    report.update(correct=correct, attempted=attempted, failed=failed, problems=problems)
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True, default=str) + "\n"
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in result_metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

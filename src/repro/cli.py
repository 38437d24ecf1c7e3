"""``repro-fpga`` — command-line front end.

Subcommands::

    repro-fpga devices                      list catalog devices
    repro-fpga synth fir --device xc5vlx110t      synthesize a paper PRM
    repro-fpga estimate fir --device xc5vlx110t   run both cost models
    repro-fpga trace mips --device xc6vlx75t      replay the Fig. 1 flow
    repro-fpga bitgen fir --device xc5vlx110t -o fir.bit
    repro-fpga table 5                      regenerate a paper table
    repro-fpga explore --device xc5vlx110t  partitioning design space
    repro-fpga simulate --fault-rate 0.05   fault-injected multitasking run
    repro-fpga trace explore --trace-out t.json   traced explorer run
    repro-fpga trace simulate --fault-rate 0.05   traced simulation run
    repro-fpga stats t.json                 summarize a trace file
    repro-fpga analyze --fail-on-new        domain-aware static analysis
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .bitgen.generator import generate_partial_bitstream
from .core.api import evaluate_prm
from .core.explorer import explore, pareto_front
from .core.placement_search import find_prr, search_with_trace
from .devices.catalog import DEVICES, get_device
from .errors import ReproError
from .reports import tables as report_tables
from .reports.figures import fig1_traces, fig2_structure, render_fig2
from .synth.report import render_syr
from .synth.xst import synthesize
from .workloads import PAPER_WORKLOADS

__all__ = ["main", "build_parser"]


def _add_explore_args(p: argparse.ArgumentParser) -> None:
    """Register the `explore` options (shared with `trace explore`)."""
    p.add_argument("--device", default="xc5vlx110t", choices=sorted(DEVICES))
    p.add_argument(
        "--mode",
        default="auto",
        choices=("auto", "exhaustive", "pruned", "beam"),
        help="search strategy (auto: exhaustive <=8 PRMs, else beam)",
    )
    p.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="anytime search: return the best designs found within this "
        "wall-clock budget (the result is marked degraded if cut short)",
    )


def _add_simulate_args(p: argparse.ArgumentParser) -> None:
    """Register the `simulate` options (shared with `trace simulate`)."""
    p.add_argument("--device", default="xc5vlx110t", choices=sorted(DEVICES))
    p.add_argument(
        "--tasks",
        nargs="+",
        default=["fir", "sdram"],
        choices=sorted(PAPER_WORKLOADS),
        help="PRMs to multiplex (must share a feasible PRR)",
    )
    p.add_argument("--prrs", type=int, default=2, help="number of PRRs")
    p.add_argument("--arrival-rate", type=float, default=200.0, help="jobs/s")
    p.add_argument("--horizon", type=float, default=0.25, help="seconds simulated")
    p.add_argument("--seed", type=int, default=2015, help="workload + fault seed")
    p.add_argument(
        "--icap-exclusive",
        action="store_true",
        help="serialize reconfigurations on the single shared ICAP",
    )
    p.add_argument(
        "--baseline",
        action="store_true",
        help="also run the full-reconfiguration baseline and compare",
    )
    faults = p.add_argument_group("faults (all zero = fault-free fast path)")
    faults.add_argument(
        "--fault-rate", type=float, default=0.0,
        help="per-transfer write-path bit-flip probability",
    )
    faults.add_argument(
        "--fetch-rate", type=float, default=0.0,
        help="storage-fetch corruption probability",
    )
    faults.add_argument(
        "--stall-rate", type=float, default=0.0,
        help="transient controller stall probability",
    )
    faults.add_argument(
        "--stall-ms", type=float, default=1.0, help="stall length when it fires"
    )
    faults.add_argument(
        "--timeout-prob", type=float, default=0.0,
        help="probability a stall escalates to a watchdog timeout",
    )
    faults.add_argument(
        "--seu-rate", type=float, default=0.0,
        help="background SEU arrivals per second over the fabric",
    )
    policy = p.add_argument_group("degraded-mode policy")
    policy.add_argument(
        "--max-attempts", type=int, default=3,
        help="verified-write attempts per reconfiguration",
    )
    policy.add_argument(
        "--no-retry", action="store_true", help="fail on the first bad transfer"
    )
    policy.add_argument(
        "--backoff-us", type=float, default=100.0,
        help="backoff before the second attempt (doubles per retry)",
    )
    policy.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-job reconfiguration time budget",
    )
    policy.add_argument(
        "--quarantine-threshold", type=int, default=3,
        help="consecutive failed jobs before a PRR is taken offline",
    )
    policy.add_argument(
        "--scrub-period-ms", type=float, default=None,
        help="periodic scrub pass restoring quarantined PRRs",
    )
    policy.add_argument(
        "--no-spill", action="store_true",
        help="drop unplaceable jobs instead of spilling to full reconfig",
    )
    policy.add_argument(
        "--show-faults", type=int, default=0, metavar="N",
        help="print the first N fault-log events",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fpga",
        description="PRR and bitstream cost models for PR FPGAs (IPPS'15 repro)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("devices", help="list catalog devices")

    for name, help_text in (
        ("synth", "synthesize a paper PRM and print the .syr report"),
        ("estimate", "run both cost models for a paper PRM"),
        ("bitgen", "generate the PRM's partial bitstream"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("prm", choices=sorted(PAPER_WORKLOADS))
        p.add_argument("--device", default="xc5vlx110t", choices=sorted(DEVICES))
        if name == "bitgen":
            p.add_argument("-o", "--output", help="write bitstream bytes to file")

    # ``trace <prm>`` replays the Fig. 1 flow (original behaviour);
    # ``trace explore|simulate`` runs the command with the obs layer on
    # and writes/prints the span+metric document.
    p = sub.add_parser(
        "trace",
        help="replay the Fig. 1 flow for a PRM, or run explore/simulate traced",
    )
    trace_sub = p.add_subparsers(dest="trace_target", required=True)
    for prm_name in sorted(PAPER_WORKLOADS):
        tp = trace_sub.add_parser(
            prm_name, help=f"replay the Fig. 1 search flow for {prm_name}"
        )
        tp.add_argument("--device", default="xc5vlx110t", choices=sorted(DEVICES))
        tp.set_defaults(prm=prm_name)
    for target, adder in (("explore", _add_explore_args), ("simulate", _add_simulate_args)):
        tp = trace_sub.add_parser(target, help=f"run `{target}` with tracing on")
        adder(tp)
        tp.add_argument(
            "--trace-out",
            metavar="FILE",
            default=None,
            help="write the trace document as JSON (default: print a summary)",
        )

    p = sub.add_parser("table", help="regenerate a paper table")
    p.add_argument("number", type=int, choices=range(1, 9))

    p = sub.add_parser("figure", help="regenerate a paper figure")
    p.add_argument("number", type=int, choices=(1, 2))

    p = sub.add_parser("explore", help="explore PRM->PRR partitionings")
    _add_explore_args(p)

    p = sub.add_parser(
        "simulate",
        help="hardware-multitasking simulation, optionally fault-injected",
    )
    _add_simulate_args(p)

    p = sub.add_parser("stats", help="summarize a trace file written by `trace`")
    p.add_argument("trace_file", help="JSON trace document from --trace-out")

    p = sub.add_parser(
        "floorplan", help="floorplan all paper PRMs and render the fabric"
    )
    p.add_argument("--device", default="xc5vlx110t", choices=sorted(DEVICES))

    p = sub.add_parser(
        "relocate", help="demonstrate task relocation for a paper PRM"
    )
    p.add_argument("prm", choices=sorted(PAPER_WORKLOADS))
    p.add_argument("--device", default="xc5vlx110t", choices=sorted(DEVICES))

    p = sub.add_parser(
        "advise", help="design-advisor findings for a paper PRM"
    )
    p.add_argument("prm", choices=sorted(PAPER_WORKLOADS))
    p.add_argument("--device", default="xc5vlx110t", choices=sorted(DEVICES))
    p.add_argument(
        "--period-ms", type=float, default=None,
        help="expected task swap period for reconfiguration-budget advice",
    )

    p = sub.add_parser(
        "cluster",
        help="mini soak of the sharded serving tier; prints stats and health",
    )
    p.add_argument(
        "--shards", type=int, default=2, help="worker processes (default 2)"
    )
    p.add_argument(
        "--requests", type=int, default=24,
        help="evaluate requests to push through the tier (default 24)",
    )
    p.add_argument(
        "--cache-dir", default=None,
        help="persistent cache directory (default: memory-only)",
    )
    p.add_argument(
        "--chaos", action="store_true",
        help="crash one shard mid-soak to exercise the circuit breaker",
    )

    p = sub.add_parser(
        "fabric",
        help="self-healing fabric soak: churn, defrag, permanent faults",
    )
    p.add_argument("--device", default="xc5vlx110t", choices=sorted(DEVICES))
    p.add_argument(
        "--tasks",
        nargs="+",
        default=["fir", "sdram", "mips"],
        choices=sorted(PAPER_WORKLOADS),
        help="PRMs cycling through the fabric",
    )
    p.add_argument("--arrival-rate", type=float, default=200.0, help="jobs/s")
    p.add_argument("--horizon", type=float, default=0.25, help="seconds simulated")
    p.add_argument("--seed", type=int, default=2015, help="workload + fault seed")
    p.add_argument(
        "--permanent-rate", type=float, default=0.0,
        help="permanent column faults per second (Poisson)",
    )
    p.add_argument(
        "--fault-rate", type=float, default=0.0,
        help="per-transfer bit-flip probability during migration verify",
    )
    p.add_argument(
        "--idle-retire-ms", type=float, default=20.0,
        help="retire a module idle this long (the churn source); 0 disables",
    )
    p.add_argument(
        "--no-defrag", action="store_true",
        help="disable automatic defragmentation (ablation arm)",
    )
    p.add_argument(
        "--render", action="store_true",
        help="render the final floorplan snapshot",
    )
    p.add_argument(
        "--show-events", type=int, default=0, metavar="N",
        help="print the last N runtime events",
    )

    p = sub.add_parser(
        "analyze",
        help="run the domain-aware static analysis suite (repro.analysis)",
    )
    from .analysis.cli import build_parser as _build_analyze_parser

    _build_analyze_parser(p)

    sub.add_parser("report", help="print the full reproduction report")
    return parser


def _cmd_devices() -> int:
    for device in DEVICES.values():
        print(device.summary())
        print(f"  layout: {device.layout_string()}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    device = get_device(args.device)
    report = synthesize(PAPER_WORKLOADS[args.prm](device.family), device.family)
    print(render_syr(report))
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    device = get_device(args.device)
    report = synthesize(PAPER_WORKLOADS[args.prm](device.family), device.family)
    result = evaluate_prm(report.requirements, device)
    print(result.summary())
    for key, value in result.table5_row().items():
        print(f"  {key:12} {value}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.trace_target in ("explore", "simulate"):
        return _cmd_trace_run(args)
    device = get_device(args.device)
    report = synthesize(PAPER_WORKLOADS[args.prm](device.family), device.family)
    print(search_with_trace(device, report.requirements).render())
    return 0


def _cmd_trace_run(args: argparse.Namespace) -> int:
    """Run explore/simulate with the obs layer on; export the document."""
    import json

    from . import obs

    runner = _cmd_explore if args.trace_target == "explore" else _cmd_simulate
    with obs.capture(command=f"trace {args.trace_target}") as session:
        rc = runner(args)
    doc = session.to_dict()
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=False)
            handle.write("\n")
        print(f"wrote trace to {args.trace_out}")
    else:
        print()
        print(obs.render_trace(doc))
    return rc


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from . import obs

    try:
        with open(args.trace_file, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read trace file: {exc}", file=sys.stderr)
        return 2
    try:
        obs.validate_trace(doc)
    except obs.SchemaError as exc:
        print(f"error: not a valid trace document: {exc}", file=sys.stderr)
        return 2
    print(obs.render_trace(doc))
    return 0


def _cmd_bitgen(args: argparse.Namespace) -> int:
    device = get_device(args.device)
    report = synthesize(PAPER_WORKLOADS[args.prm](device.family), device.family)
    placed = find_prr(device, report.requirements)
    bitstream = generate_partial_bitstream(
        device, placed.region, design_name=args.prm
    )
    print(
        f"{args.prm} on {device.name}: {bitstream.size_bytes} bytes "
        f"({len(bitstream)} words), region {placed.region}"
    )
    if args.output:
        with open(args.output, "wb") as handle:
            handle.write(bitstream.to_bytes())
        print(f"wrote {args.output}")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    number = args.number
    if number in (1, 2, 3, 4):
        rows = getattr(report_tables, f"table{number}")()
        print(report_tables.render_grid(rows))
        return 0
    data = getattr(report_tables, f"table{number}")()
    rows = []
    for (prm, device_name), cells in data.items():
        row = {"prm": prm, "device": device_name}
        for key, value in cells.items():
            row[key] = value
        rows.append(row)
    print(report_tables.render_grid(rows))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    if args.number == 1:
        for trace in fig1_traces().values():
            print(trace.render())
            print()
    else:
        print(render_fig2(fig2_structure()))
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    device = get_device(args.device)
    prms = [
        synthesize(builder(device.family), device.family).requirements
        for builder in PAPER_WORKLOADS.values()
    ]
    designs = explore(
        device,
        prms,
        mode=args.mode,
        deadline_s=args.deadline,
    )
    print(f"{len(designs)} feasible partitionings on {device.name}")
    if args.deadline is not None:
        print(
            f"  status={designs.status} mode={designs.mode} "
            f"elapsed={designs.elapsed_s:.3f}s "
            f"evaluations={designs.evaluations}"
        )
    for design in pareto_front(designs):
        print("  *", design.summary())
    return 0


#: Per-PRM job service times for the multitasking simulator (seconds).
SIMULATE_EXEC_SECONDS = {
    "fir": 2e-3,
    "sdram": 1e-3,
    "mips": 4e-3,
}


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .faults import DegradedModePolicy, FaultInjector, RetryPolicy
    from .multitask import (
        HwTask,
        compare,
        make_task_set,
        simulate_full_reconfig,
        simulate_pr,
    )

    device = get_device(args.device)
    tasks = [
        HwTask(
            synthesize(
                PAPER_WORKLOADS[name](device.family), device.family
            ).requirements,
            exec_seconds=SIMULATE_EXEC_SECONDS.get(name, 2e-3),
        )
        for name in dict.fromkeys(args.tasks)
    ]
    if args.prrs < 1:
        print("error: --prrs must be >= 1", file=sys.stderr)
        return 2
    shared = find_prr(device, [t.prm for t in tasks])
    prrs = [shared.geometry] * args.prrs
    jobs = make_task_set(
        tasks,
        rate_per_s=args.arrival_rate,
        horizon_s=args.horizon,
        seed=args.seed,
    )
    fault_enabled = any(
        rate > 0 for rate in (args.fault_rate, args.fetch_rate, args.stall_rate, args.seu_rate)
    )
    injector = None
    fault_policy = None
    if fault_enabled:
        injector = FaultInjector.from_rates(
            seed=args.seed,
            fault_rate=args.fault_rate,
            fetch_rate=args.fetch_rate,
            stall_rate=args.stall_rate,
            stall_seconds=args.stall_ms / 1e3,
            timeout_probability=args.timeout_prob,
            seu_rate_per_s=args.seu_rate,
        )
        retry = (
            RetryPolicy.no_retry()
            if args.no_retry
            else RetryPolicy(
                max_attempts=args.max_attempts,
                backoff_base_s=args.backoff_us / 1e6,
                deadline_s=(
                    args.deadline_ms / 1e3 if args.deadline_ms is not None else None
                ),
            )
        )
        fault_policy = DegradedModePolicy(
            retry=retry,
            quarantine_threshold=args.quarantine_threshold,
            scrub_period_s=(
                args.scrub_period_ms / 1e3
                if args.scrub_period_ms is not None
                else None
            ),
            spill_to_full=not args.no_spill,
        )
    result = simulate_pr(
        jobs,
        prrs,
        icap_exclusive=args.icap_exclusive,
        faults=injector,
        fault_policy=fault_policy,
        device=device,
    )
    print(
        f"{len(jobs)} jobs ({'+'.join(t.name for t in tasks)}) on "
        f"{args.prrs} PRR(s), {device.name}, seed {args.seed}"
    )
    print(result.summary())
    if fault_enabled:
        print(result.fault_summary())
        if args.show_faults and injector is not None:
            print(injector.render_log(limit=args.show_faults))
    if args.baseline:
        baseline = simulate_full_reconfig(jobs, device)
        print(baseline.summary())
        print(compare(result, baseline, strict=not fault_enabled).summary())
    return 0


def _cmd_floorplan(args: argparse.Namespace) -> int:
    from .core.floorplanner import FloorplanError, floorplan, render_floorplan

    device = get_device(args.device)
    prms = [
        synthesize(builder(device.family), device.family).requirements
        for builder in PAPER_WORKLOADS.values()
    ]
    try:
        plan = floorplan(device, prms)
    except FloorplanError as error:
        print(f"error: {error.describe()}", file=sys.stderr)
        print(error.render_diagnostics(), file=sys.stderr)
        return error.exit_code
    print(plan.summary())
    print(render_floorplan(plan))
    return 0


def _cmd_fabric(args: argparse.Namespace) -> int:
    from .core.floorplanner import render_floorplan
    from .fabric import FabricConfig, FabricRuntime, simulate_on_fabric
    from .faults import FaultInjector
    from .multitask import HwTask, make_task_set

    device = get_device(args.device)
    tasks = [
        HwTask(
            synthesize(
                PAPER_WORKLOADS[name](device.family), device.family
            ).requirements,
            exec_seconds=SIMULATE_EXEC_SECONDS.get(name, 2e-3),
        )
        for name in dict.fromkeys(args.tasks)
    ]
    jobs = make_task_set(
        tasks,
        rate_per_s=args.arrival_rate,
        horizon_s=args.horizon,
        seed=args.seed,
    )
    injector = None
    if args.permanent_rate > 0 or args.fault_rate > 0:
        injector = FaultInjector.from_rates(
            seed=args.seed,
            fault_rate=args.fault_rate,
            permanent_rate_per_s=args.permanent_rate,
        )
    runtime = FabricRuntime(
        device,
        config=FabricConfig(auto_defrag=not args.no_defrag),
        injector=injector,
    )
    result = simulate_on_fabric(
        jobs,
        runtime,
        idle_retire_s=(
            args.idle_retire_ms / 1e3 if args.idle_retire_ms > 0 else None
        ),
    )
    runtime.check_invariants()
    print(
        f"{len(jobs)} jobs ({'+'.join(t.name for t in tasks)}) on "
        f"{device.name}, seed {args.seed}, "
        f"defrag {'off' if args.no_defrag else 'on'}"
    )
    print(result.summary())
    stats = runtime.stats()
    print(
        "fabric: "
        + " ".join(f"{key}={stats[key]}" for key in sorted(stats))
    )
    if injector is not None:
        print(result.fault_summary())
    if args.show_events:
        for event in runtime.events[-args.show_events :]:
            print(event.render())
    if args.render:
        print(render_floorplan(runtime.floorplan_snapshot()))
    return 0


def _cmd_relocate(args: argparse.Namespace) -> int:
    from .relocation import find_compatible_regions, relocate_bitstream

    device = get_device(args.device)
    report = synthesize(PAPER_WORKLOADS[args.prm](device.family), device.family)
    placed = find_prr(device, report.requirements)
    bitstream = generate_partial_bitstream(
        device, placed.region, design_name=args.prm
    )
    targets = find_compatible_regions(device, placed.region)
    print(f"{args.prm} PRR at {placed.region}")
    print(f"{len(targets)} relocation-compatible region(s)")
    if targets:
        moved = relocate_bitstream(device, bitstream, targets[0])
        print(
            f"relocated to {targets[0]}: {moved.size_bytes} bytes "
            f"(payloads preserved)"
        )
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from .core.advisor import advise

    device = get_device(args.device)
    report = synthesize(PAPER_WORKLOADS[args.prm](device.family), device.family)
    advice = advise(
        report.requirements,
        device,
        task_period_seconds=(
            args.period_ms / 1e3 if args.period_ms is not None else None
        ),
    )
    print(advice.render())
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    from .errors import ReproError as _ReproError
    from .faults import ShardChaos
    from .serve import ClusterConfig, ClusterService, EvaluateRequest
    from .synth import synthesize
    from .workloads import PAPER_WORKLOADS as _WORKLOADS

    chaos = ()
    if args.chaos:
        plans = [ShardChaos() for _ in range(args.shards)]
        plans[0] = ShardChaos(crash_after_requests=2)
        chaos = tuple(plans)
    config = ClusterConfig(
        shards=args.shards,
        probe_interval_s=0.1,
        cache_dir=args.cache_dir,
        chaos=chaos,
    )
    # The paper workloads only carry reference targets for the two
    # evaluation devices, so the soak sticks to those.
    device_names = ["xc5vlx110t", "xc6vlx75t"]
    requests = []
    for index in range(args.requests):
        device = DEVICES[device_names[index % len(device_names)]]
        builder = list(_WORKLOADS.values())[index % len(_WORKLOADS)]
        prm = synthesize(builder(device.family), device.family).requirements
        requests.append(EvaluateRequest(prm, device.name))
    completed = typed = 0
    with ClusterService(config) as cluster:
        tickets = [cluster.submit(request) for request in requests]
        for ticket in tickets:
            try:
                ticket.result(timeout=120)
            except _ReproError:
                typed += 1
            else:
                completed += 1
        stats = cluster.stats()
        health = cluster.health()
    print(f"cluster soak: {args.requests} requests over {args.shards} shards")
    print(
        f"  completed={completed} typed_errors={typed} "
        f"cache_hits={stats['cache_hits']} coalesced={stats['coalesced']} "
        f"restarts={stats['restarts']} hedges={stats['hedges']}"
    )
    for row in health:
        print(
            f"  shard {row['shard_id']}: {row['health']} "
            f"(restarts={row['restarts']}, "
            f"probe={row['probe_latency_s'] * 1e3:.1f}ms)"
        )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis.cli import run as _analysis_run

    return _analysis_run(args)


def _cmd_report() -> int:
    from .reports.experiments import generate_report

    print(generate_report())
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "devices": lambda: _cmd_devices(),
        "synth": lambda: _cmd_synth(args),
        "estimate": lambda: _cmd_estimate(args),
        "trace": lambda: _cmd_trace(args),
        "bitgen": lambda: _cmd_bitgen(args),
        "table": lambda: _cmd_table(args),
        "figure": lambda: _cmd_figure(args),
        "explore": lambda: _cmd_explore(args),
        "simulate": lambda: _cmd_simulate(args),
        "stats": lambda: _cmd_stats(args),
        "floorplan": lambda: _cmd_floorplan(args),
        "fabric": lambda: _cmd_fabric(args),
        "relocate": lambda: _cmd_relocate(args),
        "advise": lambda: _cmd_advise(args),
        "cluster": lambda: _cmd_cluster(args),
        "analyze": lambda: _cmd_analyze(args),
        "report": lambda: _cmd_report(),
    }
    try:
        return handlers[args.command]()
    except ReproError as error:
        # Typed taxonomy failures exit cleanly with their documented
        # status code — no traceback spew for expected error classes.
        print(f"error: {error.describe()}", file=sys.stderr)
        return error.exit_code


if __name__ == "__main__":
    sys.exit(main())

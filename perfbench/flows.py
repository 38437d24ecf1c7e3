"""The three benchmark workloads, driving the library through its public API.

Each workload has ``setup(tracer)``, which returns its own host time,
and ``measure(seconds, tracer)``, which runs the workload for about that
long and returns a :class:`Phase`.  A workload times one *op* (the unit
a user waits for) and two secondary operations, ``sub_a`` and
``sub_b``:

* ``paper_flow`` -- op: one designer flow (build -> synthesize ->
  evaluate_prm -> generate -> parse -> simulate_reconfiguration);
  sub_a: static ``simulate_pr`` of one pass's job streams; sub_b:
  ``simulate_on_fabric`` of the same streams.
* ``dse_sweep`` -- op: ``explore`` plus ``floorplan`` of one fresh
  8-PRM set; sub_a: one scalar ``evaluate_prm`` call (mean over the
  iteration's sample); sub_b: ``batch_evaluate`` of the iteration's
  10k-PRM vector on both catalog devices.
* ``serve_mix`` -- op: one request (submit until answered); sub_a: a
  request the generator sent before (hit); sub_b: a first-seen request
  (miss).

Outputs are checked by :mod:`oracles` outside the timed sections.
"""

from __future__ import annotations

import gc
import importlib
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import gen
import oracles
from spans import NULL_TRACER

from repro.bitgen import generate_partial_bitstream, parse_bitstream
from repro.core import batch_evaluate, evaluate_prm, explore, floorplan
from repro.errors import InfeasiblePlacement, Overloaded, ReproError
from repro.fabric import FabricRuntime, simulate_on_fabric
from repro.icap import DDR_SDRAM, IcapController, simulate_reconfiguration
from repro.multitask import HwTask, Job, simulate_pr
from repro.serve import ClusterConfig, ClusterService, EvaluateRequest
from repro.synth import synthesize

MAX_PROBLEMS = 20  #: problem texts kept per phase (all are counted)
REQUEST_TIMEOUT_S = 30.0
MAX_SHEDS_PER_REQUEST = 200
HIT_QUANTILE = 0.25
MISS_QUANTILE = 0.25
#: serve_mix reports the median over this many equal time windows.
SERVE_WINDOWS = 5

#: Process-wide memo caches of the cost models.  Each measured phase
#: starts with them empty, so a traced phase that replays the untraced
#: phase's inputs does not run warm.  A cache a later version removes
#: is simply skipped.
_CACHE_RESETS = (
    ("repro.core.prr_model", "clear_geometry_cache"),
    ("repro.core.bitstream_model", "clear_bitstream_cache"),
    ("repro.core.fastpath", "clear_bounds_cache"),
)


def reset_library_caches() -> None:
    for module_name, function_name in _CACHE_RESETS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        clear = getattr(module, function_name, None)
        if clear is not None:
            clear()


def settle() -> None:
    """Collect garbage before a timed section, outside its timing.

    Without it a section's time depends on how much garbage earlier
    sections left behind, which swings a single explore by 10-30%; after
    it, each section pays only for the collections its own allocations
    trigger.
    """
    gc.collect()


def unlinked(error: BaseException) -> BaseException:
    """*error* without its traceback, for keeping as an answer.

    The traceback holds the frame that caught the error, and that frame
    holds the list the error is kept in: a reference cycle per answer
    that only a full garbage collection frees, which would bloat the heap
    the timed sections collect over.
    """
    return error.with_traceback(None)


def peak_rss_kib(pid: int) -> int:
    """A live process's peak resident set (``VmHWM``), 0 if unreadable."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


@dataclass
class Phase:
    """What one measured phase saw: host-time samples, outputs and checks."""

    op_s: list[float] = field(default_factory=list)
    sub_a_s: list[float] = field(default_factory=list)
    sub_b_s: list[float] = field(default_factory=list)
    busy_s: float = 0.0  #: host seconds inside timed sections (all ops and subs)
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: Simulated (model) outputs per op index; same seed => same digests.
    digests: list = field(default_factory=list)
    derived: dict[str, float] = field(default_factory=dict)
    program_stats: dict[str, float] = field(default_factory=dict)
    #: Report sub_a / sub_b at this quantile instead of its trimmed mean.
    sub_a_quantile: float | None = None
    sub_b_quantile: float | None = None
    children_peak_kib: int = 0  #: summed peak RSS of the workload's child processes
    #: Consecutive time windows of this phase; when set, each latency and
    #: rate metric is the median of its value over the windows.
    windows: list["Phase"] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            room = MAX_PROBLEMS - len(self.problems)
            self.problems.extend(problems[: max(0, room)])

    @property
    def ops_per_s(self) -> float:
        return len(self.op_s) / self.busy_s if self.busy_s > 0 else 0.0


# -- paper_flow -------------------------------------------------------------


class PaperFlow:
    """The paper's designer flow on the six Table V cases, round-robin."""

    name = "paper_flow"
    clients = 1

    def __init__(self, seed: int, root, work_dir) -> None:
        self.seed = seed
        self.golden = oracles.load_table5(root / oracles.GOLDEN_TABLE5)
        self.devices = {device.name: device for device in gen.PAPER_DEVICES}
        self.builders = dict(gen.PAPER_BUILDERS)
        self.controller = IcapController()
        self.medium = DDR_SDRAM

    def setup(self, tracer=NULL_TRACER) -> float:
        start = time.perf_counter()
        reset_library_caches()
        warm = gen.paper_pass(self.seed, -1)
        for builder_name, device_name in warm.order:
            self._flow(builder_name, device_name, NULL_TRACER, None)
        return time.perf_counter() - start

    def close(self) -> None:
        return None

    def _flow(self, builder_name: str, device_name: str, tracer, rid):
        device = self.devices[device_name]
        with tracer.span("workloads.build", rid):
            netlist = self.builders[builder_name](device.family)
        with tracer.span("synth.synthesize", rid):
            report = synthesize(netlist, device.family)
        with tracer.span("core.evaluate_prm", rid):
            result = evaluate_prm(report.requirements, device)
        with tracer.span("bitgen.generate", rid) as span:
            data = generate_partial_bitstream(
                device, result.placement.region, design_name=report.design_name
            ).to_bytes()
            span.count("bytes", len(data))
        with tracer.span("bitgen.parse", rid) as span:
            parsed = parse_bitstream(data)
            span.count("bytes", len(data))
        with tracer.span("icap.simulate_reconfiguration", rid):
            reconfig = simulate_reconfiguration(
                result.bitstream.total_bytes, self.controller, self.medium
            )
        return result, len(data), parsed, reconfig

    def measure(self, seconds: float, tracer=NULL_TRACER) -> Phase:
        phase = Phase()
        jobs_scheduled = 0
        sched_s = 0.0
        start = time.perf_counter()
        deadline = start + seconds
        index = 0
        while time.perf_counter() < deadline:
            spec = gen.paper_pass(self.seed, index)
            digest = []
            results = {}
            for k, (builder_name, device_name) in enumerate(spec.order):
                rid = f"flow{index}.{k}"
                key = (builder_name, device_name)
                settle()
                try:
                    with tracer.span("bench.flow", rid):
                        t0 = time.perf_counter()
                        result, generated, parsed, reconfig = self._flow(
                            builder_name, device_name, tracer, rid
                        )
                        elapsed = time.perf_counter() - t0
                except Exception as error:  # a crash is a failed answer, not a lost run
                    phase.record([f"{key}: {type(error).__name__}: {error}"])
                    continue
                phase.op_s.append(elapsed)
                phase.busy_s += elapsed
                results[key] = result
                phase.record(
                    oracles.check_flow(
                        key,
                        result.table5_row(),
                        result.bitstream.total_bytes,
                        generated,
                        parsed.size_bytes,
                        parsed.crc_ok,
                        self.golden,
                    )
                )
                digest.append(
                    (key, result.bitstream.total_bytes, generated,
                     parsed.size_bytes, reconfig.total_microseconds)
                )
            # One sample per pass, summed over both devices: the two
            # devices' schedules differ in cost, and a median over a
            # two-valued mix would jump between them.
            pass_static_s = pass_fabric_s = 0.0
            for device_name, stream in spec.streams:
                outcome = self._schedule(
                    phase, tracer, f"sched{index}.{device_name}",
                    device_name, stream, results,
                )
                if outcome is None:
                    break
                jobs, static_s, fabric_s, sim = outcome
                jobs_scheduled += 2 * jobs
                pass_static_s += static_s
                pass_fabric_s += fabric_s
                digest.append((device_name, sim))
            else:
                phase.sub_a_s.append(pass_static_s)
                phase.sub_b_s.append(pass_fabric_s)
                phase.busy_s += pass_static_s + pass_fabric_s
                sched_s += pass_static_s + pass_fabric_s
            phase.digests.append(tuple(digest))
            index += 1
        phase.wall_s = time.perf_counter() - start
        phase.derived["sched_jobs_per_s"] = jobs_scheduled / sched_s if sched_s else 0.0
        return phase

    def _schedule(self, phase, tracer, rid, device_name, stream, results):
        """Schedule one job stream statically and on a churning fabric."""
        device = self.devices[device_name]
        names = [name for name, _ in gen.PAPER_BUILDERS]
        if any((name, device_name) not in results for name in names):
            phase.record([f"{rid}: skipped, a flow of this device failed"])
            return None
        flows = [results[(name, device_name)] for name in names]
        tasks = [
            HwTask(flow.prm, exec_seconds=exec_s)
            for flow, exec_s in zip(flows, stream.exec_seconds)
        ]
        jobs = [
            Job(task=tasks[task], arrival_seconds=t, job_id=j)
            for j, (t, task) in enumerate(zip(stream.arrivals_s, stream.task_index))
        ]
        prrs = [flow.placement.geometry for flow in flows]
        try:
            with tracer.span("bench.schedule", rid):
                settle()
                t0 = time.perf_counter()
                with tracer.span("multitask.simulate_pr", rid) as span:
                    static = simulate_pr(jobs, prrs, icap_exclusive=True)
                    span.count("jobs", len(jobs))
                t1 = time.perf_counter()
                runtime = FabricRuntime(device)
                settle()
                t2 = time.perf_counter()
                with tracer.span("fabric.simulate_on_fabric", rid) as span:
                    fabric = simulate_on_fabric(
                        jobs, runtime, idle_retire_s=gen.IDLE_RETIRE_S
                    )
                    span.count("jobs", len(jobs))
                t3 = time.perf_counter()
                span.count("migrations", runtime.migrations)
                span.count("defrag_passes", runtime.defrag_passes)
                span.count("evictions", runtime.evictions)
        except Exception as error:  # a crash is a failed answer, not a lost run
            phase.record([f"{rid}: {type(error).__name__}: {error}"])
            return None
        phase.record(
            oracles.check_schedule(
                f"{rid} simulate_pr", len(static.completed), static.dropped_jobs, len(jobs)
            )
        )
        phase.record(
            oracles.check_schedule(
                f"{rid} simulate_on_fabric", len(fabric.completed), fabric.dropped_jobs, len(jobs)
            )
            + oracles.check_fabric(rid, runtime)
        )
        sim = (
            static.makespan_seconds, static.completion_rate,
            static.total_reconfig_seconds,
            fabric.makespan_seconds, fabric.completion_rate,
            fabric.total_reconfig_seconds,
        )
        return len(jobs), t1 - t0, t3 - t2, sim


# -- dse_sweep --------------------------------------------------------------


class DseSweep:
    """Design-space exploration on fresh PRM sets; no bitgen, synth or serve."""

    name = "dse_sweep"
    clients = 1
    FRONT_SAMPLES = 2  #: iterations whose front is re-checked against exhaustive

    def __init__(self, seed: int, root, work_dir) -> None:
        self.seed = seed
        self.catalog = gen.PAPER_DEVICES
        self.device = gen.make_wide_device()

    def setup(self, tracer=NULL_TRACER) -> float:
        start = time.perf_counter()
        reset_library_caches()
        self.device = gen.make_wide_device()
        warm = gen.dse_iteration(self.seed, -1)
        explore(self.device, list(warm.prm_set[:4]))
        for device in self.catalog:
            batch_evaluate(warm.vector[:256], device)
        return time.perf_counter() - start

    def close(self) -> None:
        return None

    def measure(self, seconds: float, tracer=NULL_TRACER) -> Phase:
        phase = Phase()
        rng = random.Random(f"dse_sweep/fronts/{self.seed}")
        front_samples = {0} | set(rng.sample(range(1, 8), self.FRONT_SAMPLES - 1))
        fronts = {}
        scalar_calls = 0
        scalar_s = 0.0
        pairs = 0
        batch_s = 0.0
        start = time.perf_counter()
        deadline = start + seconds
        index = 0
        while time.perf_counter() < deadline:
            it = gen.dse_iteration(self.seed, index)
            rid = f"dse{index}"
            index += 1
            # A full collection costs ~0.1 s on this heap, so settle() runs
            # before the op and the scalar section only: batch_evaluate
            # allocates arrays, which the collector does not track.
            settle()
            try:
                with tracer.span("bench.dse_set", rid):
                    t0 = time.perf_counter()
                    with tracer.span("core.explore", rid) as explore_span:
                        designs = explore(self.device, list(it.prm_set))
                    groups = [list(a.prms) for a in designs[0].assignments]
                    with tracer.span("core.floorplan", rid):
                        plan = floorplan(self.device, groups)
                    elapsed = time.perf_counter() - t0
            except Exception as error:  # a crash is a failed answer, not a lost run
                phase.record([f"{rid}: {type(error).__name__}: {error}"])
                continue
            phase.op_s.append(elapsed)
            phase.busy_s += elapsed
            explore_span.count("designs", len(designs))
            if tracer.enabled:  # the front costs ~0.2 s per set; only the trace needs it
                explore_span.count("front", len(oracles.front_signature(designs)))
            if it.index in front_samples:
                fronts[it.index] = (list(it.prm_set), designs)
            phase.record(oracles.check_floorplan(rid, plan, len(groups)))

            batches = []
            t0 = time.perf_counter()
            for device in self.catalog:
                with tracer.span("core.batch_evaluate", rid) as span:
                    batch = batch_evaluate(it.vector, device)
                    span.count("pairs", len(it.vector))
                    span.count("feasible", batch.n_feasible)
                batches.append(batch)
            elapsed = time.perf_counter() - t0
            phase.sub_b_s.append(elapsed)
            phase.busy_s += elapsed
            batch_s += elapsed
            pairs += len(it.vector) * len(self.catalog)

            outcomes = []
            settle()
            t0 = time.perf_counter()
            for device in self.catalog:
                for j in it.scalar_sample:
                    with tracer.span("core.evaluate_prm", rid) as span:
                        try:
                            outcome = evaluate_prm(it.vector[j], device)
                        except InfeasiblePlacement as error:
                            outcome = unlinked(error)
                            span.count("infeasible")
                    outcomes.append(outcome)
            elapsed = time.perf_counter() - t0
            phase.sub_a_s.append(elapsed / len(outcomes))
            phase.busy_s += elapsed
            scalar_s += elapsed
            scalar_calls += len(outcomes)

            n = len(it.scalar_sample)
            for d, (device, batch) in enumerate(zip(self.catalog, batches)):
                for k, j in enumerate(it.scalar_sample):
                    phase.record(
                        oracles.check_batch_vs_scalar(
                            f"{rid} {device.name} PRM {j}", batch, j, outcomes[d * n + k]
                        )
                    )
            phase.digests.append(
                (
                    len(designs),
                    designs[0].objectives,
                    tuple(str(prr.region) for prr in plan.prrs),
                    tuple((b.n_feasible, int(b.bitstream_bytes.sum())) for b in batches),
                    tuple(
                        o.code if isinstance(o, ReproError) else o.bitstream.total_bytes
                        for o in outcomes
                    ),
                )
            )
        phase.wall_s = time.perf_counter() - start
        for index, (prms, designs) in sorted(fronts.items()):
            exhaustive = explore(self.device, prms, mode="exhaustive")
            phase.record(oracles.check_front(f"dse{index}", designs, exhaustive))
        phase.derived["evals_per_s"] = scalar_calls / scalar_s if scalar_s else 0.0
        phase.derived["batch_pairs_per_s"] = pairs / batch_s if batch_s else 0.0
        return phase


# -- serve_mix --------------------------------------------------------------


class ServeMix:
    """Closed loop: one client against a ClusterService with a disk tier."""

    name = "serve_mix"
    clients = 1

    def __init__(self, seed: int, root, work_dir) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.cluster: ClusterService | None = None
        self.cache_dir: str | None = None
        self.stream: gen.ServeStream | None = None
        self.setups = 0

    def setup(self, tracer=NULL_TRACER) -> float:
        self.close()
        start = time.perf_counter()
        self.stream = gen.ServeStream(self.seed)
        self.cache_dir = tempfile.mkdtemp(prefix="serve-cache-", dir=self.work_dir)
        cluster = ClusterService(ClusterConfig(cache_dir=self.cache_dir))
        with tracer.span("serve.start"):
            cluster.start()
        self.cluster = cluster
        warm = self.stream.warmup_prm(self.setups)
        self.setups += 1
        cluster.submit(EvaluateRequest(warm, gen.PAPER_DEVICES[0].name)).result(
            timeout=REQUEST_TIMEOUT_S
        )
        return time.perf_counter() - start

    def close(self) -> None:
        if self.cluster is not None:
            self.cluster.stop()
            self.cluster = None
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None

    def _request(self, item: gen.ServeItem, tracer, rid: str, root):
        """Submit until accepted, then wait; returns the answer or the error."""
        cluster = self.cluster
        sheds = 0
        while True:
            try:
                with tracer.span("serve.submit", rid):
                    ticket = cluster.submit(EvaluateRequest(item.prm, item.device))
                break
            except Overloaded as error:
                sheds += 1
                root.count("shed")
                if sheds > MAX_SHEDS_PER_REQUEST:
                    return unlinked(error)
                time.sleep(error.retry_after_s or 0.01)
            except Exception as error:  # the oracle judges typed vs untyped
                return unlinked(error)
        with tracer.span("serve.wait", rid):
            try:
                return ticket.result(timeout=REQUEST_TIMEOUT_S)
            except Exception as error:  # the oracle judges typed vs untyped
                return unlinked(error)

    def measure(self, seconds: float, tracer=NULL_TRACER) -> Phase:
        phase = Phase()
        records = []
        settle()
        start = time.perf_counter()
        deadline = start + seconds
        while time.perf_counter() < deadline:
            item = self.stream.next()
            rid = f"req{item.index}"
            with tracer.span("bench.request", rid) as root:
                t0 = time.perf_counter()
                outcome = self._request(item, tracer, rid, root)
                latency = time.perf_counter() - t0
                if isinstance(outcome, ReproError):
                    root.count("typed_errors")
            records.append((item, latency, outcome, time.perf_counter() - start))
        phase.wall_s = time.perf_counter() - start
        phase.program_stats = dict(self.cluster.stats())
        phase.children_peak_kib = sum(
            peak_rss_kib(pid) for pid in self.cluster.shard_pids() if pid is not None
        )
        self.close()

        fresh = {}
        phase.windows = [
            Phase(busy_s=phase.wall_s / SERVE_WINDOWS) for _ in range(SERVE_WINDOWS)
        ]
        for item, latency, outcome, finished_s in records:
            window = phase.windows[
                min(SERVE_WINDOWS - 1, int(finished_s / phase.wall_s * SERVE_WINDOWS))
            ]
            for part in (phase, window):
                part.op_s.append(latency)
                (part.sub_b_s if item.first_seen else part.sub_a_s).append(latency)
            key = (item.prm.name, item.device)
            if key not in fresh:
                try:
                    fresh[key] = evaluate_prm(item.prm, item.device)
                except ReproError as error:
                    fresh[key] = error
            phase.record(oracles.check_served(f"request {item.index}", outcome, fresh[key]))
            phase.digests.append(
                outcome.code
                if isinstance(outcome, ReproError)
                else (outcome.bitstream.total_bytes, outcome.reconfig.microseconds)
                if hasattr(outcome, "bitstream")
                else repr(outcome)
            )
        phase.busy_s = phase.wall_s
        # Hits and misses are reported at p25, each path's own cost.
        # Above it a hit mostly waits for the GIL behind the cluster's
        # control thread, and a miss mostly waits for a control-loop tick
        # that CPU load on the host delays by one more tick or not.
        for part in (phase, *phase.windows):
            part.sub_a_quantile = HIT_QUANTILE
            part.sub_b_quantile = MISS_QUANTILE
        served = len(records)
        infeasible = sum(1 for item, *_ in records if item.expect_infeasible)
        phase.derived["infeasible_share"] = infeasible / served if served else 0.0
        phase.derived["first_seen_share"] = (
            len(phase.sub_b_s) / served if served else 0.0
        )
        return phase


WORKLOADS = {cls.name: cls for cls in (PaperFlow, DseSweep, ServeMix)}

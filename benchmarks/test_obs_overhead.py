"""Obs-layer overhead gate: disabled instrumentation must cost <2%.

The observability layer's contract is that with ``repro.obs`` disabled
(the default), the instrumentation threaded through the explorer,
scheduler, window index and ICAP paths is invisible: each site is one
module-attribute read plus a branch, and :func:`trace_span` hands back a
preallocated no-op.

A direct A/B wall-time comparison of "instrumented" vs "uninstrumented"
builds is impossible (the sites are compiled in) and a 2% direct timing
assertion would flake on loaded CI machines.  Instead this benchmark
bounds the overhead from first principles:

1. run the workload once *disabled* and count the instrumentation sites
   it executes: every ``trace_span`` call and every other call into
   ``repro.obs.trace``, and every read of its ``enabled`` guard;
2. micro-time the disabled primitives: a ``with trace_span(...)`` block
   for a span site, and the worse of a bare call and an ``enabled``
   guard for every other site;
3. assert  ``sum(sites x cost)  <  2% x disabled run time``.

Counting the disabled path, not an enabled run's counter values, keeps
work that only runs inside ``if enabled:`` blocks (counter values,
per-job histogram observations) out of the estimate.  A companion test
checks the estimate stays sensitive: one extra span per scheduled job
must push it over budget.
"""

from __future__ import annotations

import time
import types

import repro.obs as obs
from repro.core.explorer import explore
from repro.core.placement_search import find_prr
from repro.devices import XC5VLX110T
from repro.multitask import HwTask, make_task_set, simulate_pr
from repro.obs import trace as obs_trace

from tests.conftest import paper_requirements

OVERHEAD_BUDGET = 0.02  # the documented <2% disabled-overhead bound


def _workload():
    prms = [
        paper_requirements(name, "virtex5") for name in ("fir", "sdram", "mips")
    ]
    tasks = [
        HwTask(paper_requirements("fir", "virtex5"), exec_seconds=2e-3),
        HwTask(paper_requirements("sdram", "virtex5"), exec_seconds=1e-3),
    ]
    jobs = make_task_set(tasks, rate_per_s=400.0, horizon_s=0.25, seed=2015)
    shared = find_prr(XC5VLX110T, [t.prm for t in tasks])
    return prms, jobs, [shared.geometry, shared.geometry]


def _run(prms, jobs, prrs):
    explore(XC5VLX110T, prms, mode="pruned")
    simulate_pr(jobs, prrs, icap_exclusive=True)


def _best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _per_event_cost(loops=50_000):
    """Worst-case seconds per disabled guard or bare obs call."""

    def spans():
        for _ in range(loops):
            obs_trace.trace_span("bench")

    def guards():
        total = 0
        for _ in range(loops):
            if obs_trace.enabled:  # the hot-path guard
                total += 1
            total += 1  # the always-on int counter idiom
        return total

    span_cost = _best_of(spans, repeats=3) / loops
    guard_cost = _best_of(guards, repeats=3) / loops
    return max(span_cost, guard_cost)


def _span_site_cost(loops=50_000):
    """Seconds per disabled span site: a ``with trace_span(...)`` block."""

    def spans():
        for index in range(loops):
            with obs_trace.trace_span("bench", index=index):
                pass

    return _best_of(spans, repeats=3) / loops


def _disabled_site_census(prms, jobs, prrs):
    """``(span sites, other sites)`` one disabled run executes.

    Every site reaches the tracer through the ``repro.obs.trace`` module:
    it reads ``enabled`` or calls one of its functions.  For one run the
    module's class gains a counting ``enabled`` property and its
    functions are wrapped in counters; behavior is unchanged.
    """
    counts = {"spans": 0, "sites": 0}

    class CountingModule(types.ModuleType):
        @property
        def enabled(self):
            counts["sites"] += 1
            return self.__dict__["enabled"]

    def counting(function, kind):
        def wrapper(*args, **kwargs):
            counts[kind] += 1
            return function(*args, **kwargs)

        return wrapper

    originals = {
        name: getattr(obs_trace, name)
        for name in ("trace_span", "current_span", "metrics", "snapshot")
    }
    module_class = obs_trace.__class__
    obs_trace.__class__ = CountingModule
    try:
        for name, function in originals.items():
            kind = "spans" if name == "trace_span" else "sites"
            setattr(obs_trace, name, counting(function, kind))
        _run(prms, jobs, prrs)
    finally:
        for name, function in originals.items():
            setattr(obs_trace, name, function)
        obs_trace.__class__ = module_class
    return counts["spans"], counts["sites"]


def _estimated_overhead(prms, jobs, prrs, *, extra_spans=0):
    """Estimated disabled overhead over the run time, and its breakdown."""
    spans, sites = _disabled_site_census(prms, jobs, prrs)
    assert spans >= 2, "the census missed the explore and simulate_pr spans"
    spans += extra_spans
    sites += 50  # headroom for guards that record nothing
    assert not obs.enabled
    run_seconds = _best_of(lambda: _run(prms, jobs, prrs))
    overhead_seconds = spans * _span_site_cost() + sites * _per_event_cost()
    detail = (
        f"{spans} span sites + {sites} other sites = "
        f"{overhead_seconds * 1e6:.1f}us over a {run_seconds * 1e3:.2f}ms run"
    )
    return overhead_seconds / run_seconds, detail


def test_disabled_by_default():
    assert obs.enabled is False


def test_null_span_is_allocation_free():
    assert obs_trace.trace_span("a") is obs_trace.trace_span("b")


def test_disabled_overhead_under_two_percent():
    prms, jobs, prrs = _workload()
    _run(prms, jobs, prrs)  # warm geometry/window caches for fair timing
    ratio, detail = _estimated_overhead(prms, jobs, prrs)
    assert ratio < OVERHEAD_BUDGET, (
        f"estimated disabled obs overhead {ratio:.2%} ({detail}) exceeds "
        f"{OVERHEAD_BUDGET:.0%}"
    )


def test_one_span_per_job_exceeds_budget():
    """The gate must catch a span added to the scheduler's per-job loop."""
    prms, jobs, prrs = _workload()
    _run(prms, jobs, prrs)
    ratio, detail = _estimated_overhead(prms, jobs, prrs, extra_spans=len(jobs))
    assert ratio >= OVERHEAD_BUDGET, (
        f"one extra span per job ({len(jobs)} jobs) gives only {ratio:.2%} "
        f"({detail}); the gate would not notice it"
    )

"""Golden telemetry of ``simulate_pr``: span name and ``sched.*``/``icap.*``.

The values below were recorded from the scheduler before its fault-free
and fault-aware dispatch loops were merged into one; the merged loop must
publish exactly the same span and metrics for each input.  A fault-free
run reports one ICAP transfer per PRR (integer byte counts); a run with
an injector — even a zero-rate one — reports the port traffic, re-streams
included, as one transfer and adds the fault counters and histograms.
"""

import pytest

import repro.obs as obs
from repro.core.placement_search import find_prr
from repro.devices.catalog import XC5VLX110T
from repro.faults import DegradedModePolicy, FaultInjector, RetryPolicy
from repro.multitask import HwTask, make_task_set, simulate_pr

from tests.conftest import paper_requirements

FAULT_FREE = {
    "icap.bytes_moved": 166080,
    "icap.effective_bytes_per_s": 400000000.0,
    "icap.port_seconds": 0.0004152,
    "icap.transfers": 2,
    "sched.completion_rate": 1.0,
    "sched.jobs_completed": 27,
    "sched.jobs_dropped": 0,
    "sched.jobs_spilled": 0,
    "sched.makespan_seconds": 0.09483473490264929,
    "sched.quarantines": 0,
    "sched.reconfig_seconds": (27, 0.0004152, (25, 0, 0, 2, 0, 0, 0, 0, 0)),
    "sched.reconfigs": 2,
    "sched.retries": 0,
    "sched.wait_seconds": (
        27,
        0.0020069252400156294,
        (23, 0, 0, 3, 1, 0, 0, 0, 0),
    ),
}

ZERO_RATE = {
    "icap.bytes_moved": 166080.0,
    "icap.effective_bytes_per_s": 400000000.0,
    "icap.port_seconds": 0.0004152,
    "icap.transfers": 1,
    "sched.completion_rate": 1.0,
    "sched.deadline_misses": 0,
    "sched.failed_reconfigs": 0,
    "sched.jobs_completed": 27,
    "sched.jobs_dropped": 0,
    "sched.jobs_spilled": 0,
    "sched.makespan_seconds": 0.09483473490264929,
    "sched.permanent_retirements": 0,
    "sched.quarantine_seconds": (0, 0.0, (0, 0, 0, 0, 0, 0, 0, 0, 0)),
    "sched.quarantine_seconds_total": 0,
    "sched.quarantines": 0,
    "sched.reconfig_seconds": (27, 0.0004152, (25, 0, 0, 2, 0, 0, 0, 0, 0)),
    "sched.reconfigs": 2,
    "sched.retries": 0,
    "sched.retry_seconds": (0, 0.0, (0, 0, 0, 0, 0, 0, 0, 0, 0)),
    "sched.retry_seconds_total": 0,
    "sched.scrub_repairs": 0,
    "sched.seu_hits": 0,
    "sched.wait_seconds": (
        27,
        0.0020069252400156294,
        (23, 0, 0, 3, 1, 0, 0, 0, 0),
    ),
}

FAULTY = {
    "icap.bytes_moved": 498240.0,
    "icap.effective_bytes_per_s": 400000000.0,
    "icap.port_seconds": 0.0012456,
    "icap.transfers": 1,
    "sched.completion_rate": 1.0,
    "sched.deadline_misses": 0,
    "sched.failed_reconfigs": 2,
    "sched.jobs_completed": 27,
    "sched.jobs_dropped": 0,
    "sched.jobs_spilled": 26,
    "sched.makespan_seconds": 0.2302472647971991,
    "sched.permanent_retirements": 0,
    "sched.quarantine_seconds": (
        2,
        0.4543447999999998,
        (0, 0, 0, 0, 0, 0, 2, 0, 0),
    ),
    "sched.quarantine_seconds_total": 0.4543447999999998,
    "sched.quarantines": 2,
    "sched.reconfig_seconds": (
        27,
        0.1892027999999999,
        (6, 0, 0, 1, 20, 0, 0, 0, 0),
    ),
    "sched.reconfigs": 21,
    "sched.retries": 3,
    "sched.retry_seconds": (3, 0.0009228, (0, 0, 0, 3, 0, 0, 0, 0, 0)),
    "sched.retry_seconds_total": 0.0009228,
    "sched.scrub_repairs": 0,
    "sched.seu_hits": 3,
    "sched.wait_seconds": (
        27,
        2.2898663823963537,
        (0, 0, 0, 1, 1, 12, 13, 0, 0),
    ),
}


@pytest.fixture(scope="module")
def workload():
    tasks = [
        HwTask(paper_requirements("fir", "virtex5"), exec_seconds=2e-3),
        HwTask(paper_requirements("sdram", "virtex5"), exec_seconds=1e-3),
    ]
    jobs = make_task_set(tasks, rate_per_s=300.0, horizon_s=0.1, seed=11)
    shared = find_prr(XC5VLX110T, [t.prm for t in tasks])
    return jobs, [shared.geometry, shared.geometry]


def traced_run(workload, **kwargs):
    """(result, [(span name, attrs)], sched/icap metrics) of one run."""
    jobs, prrs = workload
    with obs.capture(command="schedule-telemetry") as session:
        result = simulate_pr(jobs, prrs, **kwargs)
    document = session.to_dict()
    metrics = document["metrics"]
    values = {}
    for kind in ("counters", "gauges"):
        values.update(metrics[kind])
    for name, hist in metrics["histograms"].items():
        values[name] = (hist["count"], hist["sum"], tuple(hist["bucket_counts"]))
    pinned = {k: v for k, v in values.items() if k.startswith(("sched.", "icap."))}
    spans = [(span["name"], span["attrs"]) for span in document["spans"]]
    return result, spans, pinned


@pytest.mark.parametrize("icap_exclusive", [False, True])
def test_fault_free_run(workload, icap_exclusive):
    result, spans, metrics = traced_run(workload, icap_exclusive=icap_exclusive)
    assert spans == [
        ("simulate_pr", {"jobs": 27, "prrs": 2, "icap_exclusive": icap_exclusive})
    ]
    assert metrics == FAULT_FREE
    assert isinstance(metrics["icap.bytes_moved"], int)
    assert result.trace is not None


def test_zero_rate_injector_run(workload):
    _, spans, metrics = traced_run(workload, faults=FaultInjector.from_rates(seed=3))
    assert spans == [
        (
            "simulate_pr",
            {"jobs": 27, "prrs": 2, "icap_exclusive": False, "faulty": True},
        )
    ]
    assert metrics == ZERO_RATE
    assert isinstance(metrics["icap.bytes_moved"], float)


def test_faulty_run_with_retries_quarantine_and_spill(workload):
    result, spans, metrics = traced_run(
        workload,
        faults=FaultInjector.from_rates(
            seed=3, fault_rate=0.5, seu_rate_per_s=20.0
        ),
        fault_policy=DegradedModePolicy(
            retry=RetryPolicy(max_attempts=2), quarantine_threshold=1
        ),
        device=XC5VLX110T,
    )
    assert result.retries and result.quarantines and result.spilled_jobs
    assert spans == [
        (
            "simulate_pr",
            {"jobs": 27, "prrs": 2, "icap_exclusive": False, "faulty": True},
        )
    ]
    assert metrics == FAULTY

"""Serve-layer soak gates: quick counterpart of ``scripts/bench_serve.py``.

The committed ``BENCH_serve.json`` records the full soak; these gates run
a scaled-down version in-process so CI catches resilience regressions:

* the soak must resolve **every** accepted request (no hangs, no
  untyped failures);
* a deadline'd anytime explore on the synthetic 10-PRM workload must
  return within deadline + 10% (plus scheduler slack for loaded CI);
* a deterministic evaluation-budget cut must yield a subset of the
  exhaustive design list with a self-consistent front;
* shedding must carry the typed backpressure contract
  (``Overloaded.retry_after_s``).
"""

from __future__ import annotations

import time

from repro.core.explorer import explore, pareto_front
from repro.errors import Overloaded

from scripts.bench_explorer import WIDE_DEVICE, synthetic_prms
from scripts.bench_serve import run_deadline_probe, run_soak


def test_soak_resolves_every_accepted_request():
    outcome = run_soak(
        requests=12,
        workers=2,
        queue_depth=8,
        explore_deadline_s=5.0,
    )
    assert outcome["untyped_failures"] == 0
    assert outcome["resolution_rate_non_shed"] == 1.0
    assert outcome["completed"] + outcome["deadline_exceeded"] + outcome[
        "typed_errors"
    ] == outcome["accepted"]


def test_deadline_probe_returns_within_budget():
    probe = run_deadline_probe(0.5)
    assert probe["within_budget"], probe
    assert probe["designs"] >= 1


def test_tight_deadline_on_synthetic10_is_degraded_but_nonempty():
    prms = synthetic_prms(10)
    start = time.perf_counter()
    result = explore(WIDE_DEVICE, prms, mode="beam", deadline_s=0.01)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.01 * 1.1 + 0.5  # generous slack for loaded CI
    assert len(result) >= 1


def test_evaluation_budget_cut_is_subset_with_consistent_front():
    prms = synthetic_prms(6)
    full = explore(WIDE_DEVICE, prms, mode="exhaustive")
    full_objectives = {d.objectives for d in full}
    cut = explore(WIDE_DEVICE, prms, mode="exhaustive", max_evaluations=40)
    assert cut.degraded
    assert cut.exhausted_reason == "evaluations"
    assert {d.objectives for d in cut} <= full_objectives
    assert cut.front == pareto_front(list(cut))
    # determinism: same budget, same designs
    again = explore(WIDE_DEVICE, prms, mode="exhaustive", max_evaluations=40)
    assert [d.objectives for d in again] == [d.objectives for d in cut]


def test_shed_carries_typed_backpressure_contract():
    from repro.serve import CostModelService, ExploreRequest, ServiceConfig

    prms = tuple(synthetic_prms(6))
    config = ServiceConfig(
        workers=1, queue_depth=1, shed_retry_after_s=0.25
    )
    with CostModelService(config) as service:
        sheds = []
        for _ in range(8):
            try:
                service.submit(
                    ExploreRequest(WIDE_DEVICE, prms, mode="exhaustive")
                )
            except Overloaded as error:
                sheds.append(error)
        assert sheds, "burst never overflowed the 1-deep queue"
        # retry_after_s is jittered upward by at most shed_retry_jitter
        # so a retry herd decorrelates.
        band = 0.25 * (1 + config.shed_retry_jitter) + 1e-9
        assert all(0.25 <= s.retry_after_s <= band for s in sheds)
        assert all(s.retryable for s in sheds)

"""Batch scoring in the serving layer: coalescing, parity, fallbacks."""

import pytest

from repro.core.api import evaluate_prm
from repro.core.params import PRMRequirements
from repro.errors import InvalidInput
from repro.obs import trace as obs
from repro.serve import (
    CostModelService,
    EvaluateRequest,
    ServiceConfig,
)
from repro.serve.service import _Job, Ticket


def prm(name, pairs, dsps=0, brams=0):
    return PRMRequirements(
        name=name, lut_ff_pairs=pairs, luts=pairs, ffs=pairs // 2,
        dsps=dsps, brams=brams,
    )


PRMS = [prm("a", 800), prm("b", 2600, brams=1), prm("c", 120), prm("d", 5200)]


def make_job(request, deadline_s=None):
    import time

    return _Job(
        request=request,
        ticket=Ticket(),
        enqueued_at=time.monotonic(),
        deadline_s=deadline_s,
    )


class TestConfig:
    def test_max_batch_validated(self):
        with pytest.raises(InvalidInput):
            ServiceConfig(max_batch=0)
        assert ServiceConfig(max_batch=1).max_batch == 1


class TestBatchedResults:
    def test_coalesced_results_match_scalar(self):
        """Single worker + pre-filled queue forces real coalescing."""
        config = ServiceConfig(workers=1, queue_depth=16, max_batch=8)
        service = CostModelService(config)
        tickets = []
        # Submit before starting so the queue holds all requests when the
        # lone worker wakes up and drains them into one batch.
        service._accepting = True
        for p in PRMS:
            tickets.append(service.submit(EvaluateRequest(p, "xc5vlx110t")))
        service._accepting = False
        with obs.capture(command="test") as session:
            service.start()
            results = [t.result(timeout=10.0) for t in tickets]
            service.stop()
        for p, result in zip(PRMS, results):
            assert result == evaluate_prm(p, "xc5vlx110t")
        counters = session.to_dict()["metrics"]["counters"]
        assert counters.get("serve.batch_calls", 0) >= 1
        assert counters.get("serve.batch_coalesced", 0) >= 2

    def test_mixed_devices_still_all_served(self):
        config = ServiceConfig(workers=1, queue_depth=16, max_batch=8)
        service = CostModelService(config)
        requests = [
            EvaluateRequest(PRMS[0], "xc5vlx110t"),
            EvaluateRequest(PRMS[1], "xc6vlx75t"),
            EvaluateRequest(PRMS[2], "xc5vlx110t"),
            EvaluateRequest(PRMS[3], "xc6vlx75t"),
        ]
        service._accepting = True
        tickets = [service.submit(r) for r in requests]
        service._accepting = False
        service.start()
        results = [t.result(timeout=10.0) for t in tickets]
        service.stop()
        for request, result in zip(requests, results):
            assert result == evaluate_prm(request.prm, request.device)

    def test_per_request_controller_rates_preserved(self):
        config = ServiceConfig(workers=1, queue_depth=16, max_batch=8)
        service = CostModelService(config)
        requests = [
            EvaluateRequest(PRMS[0], "xc5vlx110t", controller_bytes_per_s=400e6),
            EvaluateRequest(PRMS[1], "xc5vlx110t", controller_bytes_per_s=100e6),
        ]
        service._accepting = True
        tickets = [service.submit(r) for r in requests]
        service._accepting = False
        service.start()
        results = [t.result(timeout=10.0) for t in tickets]
        service.stop()
        assert results[1].reconfig.seconds == pytest.approx(
            evaluate_prm(
                PRMS[1], "xc5vlx110t", controller_bytes_per_s=100e6
            ).reconfig.seconds
        )

    def test_max_batch_1_disables_coalescing(self):
        config = ServiceConfig(workers=1, max_batch=1)
        with obs.capture(command="test") as session:
            with CostModelService(config) as service:
                ticket = service.submit(EvaluateRequest(PRMS[0], "xc5vlx110t"))
                assert ticket.result(timeout=10.0) == evaluate_prm(
                    PRMS[0], "xc5vlx110t"
                )
        counters = session.to_dict()["metrics"]["counters"]
        assert counters.get("serve.batch_calls", 0) == 0


class TestBatchErrorParity:
    def test_infeasible_member_gets_scalar_typed_error(self):
        """One impossible PRM in a batch fails alone, with the scalar
        error; its batch-mates still succeed."""
        from repro.core.placement_search import PlacementNotFoundError

        impossible = prm("huge", 10**7)
        config = ServiceConfig(workers=1, queue_depth=16, max_batch=8)
        service = CostModelService(config)
        service._accepting = True
        good = service.submit(EvaluateRequest(PRMS[0], "xc5vlx110t"))
        bad = service.submit(EvaluateRequest(impossible, "xc5vlx110t"))
        service._accepting = False
        service.start()
        assert good.result(timeout=10.0) == evaluate_prm(PRMS[0], "xc5vlx110t")
        with pytest.raises(PlacementNotFoundError):
            bad.result(timeout=10.0)
        service.stop()

    def test_expired_deadline_rejected_inside_batch(self):
        from repro.errors import DeadlineExceeded

        service = CostModelService(ServiceConfig(workers=1, max_batch=8))
        expired = make_job(
            EvaluateRequest(PRMS[0], "xc5vlx110t"), deadline_s=1e-9
        )
        live = make_job(EvaluateRequest(PRMS[1], "xc5vlx110t"))
        import time

        time.sleep(0.01)
        service._run_batch([expired, live])
        with pytest.raises(DeadlineExceeded):
            expired.ticket.result(timeout=0.1)
        assert live.ticket.result(timeout=0.1) == evaluate_prm(
            PRMS[1], "xc5vlx110t"
        )

    def test_whole_batch_engine_failure_falls_back(self, monkeypatch):
        import repro.serve.service as service_module

        def boom(*args, **kwargs):
            raise RuntimeError("batch engine exploded")

        monkeypatch.setattr(service_module, "batch_evaluate", boom)
        service = CostModelService(ServiceConfig(workers=1, max_batch=8))
        jobs = [
            make_job(EvaluateRequest(p, "xc5vlx110t")) for p in PRMS[:2]
        ]
        with obs.capture(command="test") as session:
            service._run_batch(jobs)
        for job, p in zip(jobs, PRMS[:2]):
            assert job.ticket.result(timeout=0.1) == evaluate_prm(
                p, "xc5vlx110t"
            )
        counters = session.to_dict()["metrics"]["counters"]
        assert counters.get("serve.batch_fallbacks", 0) == 1


class TestCoalesceMechanics:
    def test_stop_sentinel_consumed_during_drain_still_stops(self):
        """A worker that swallows a _STOP while coalescing must exit."""
        config = ServiceConfig(workers=1, queue_depth=16, max_batch=8)
        service = CostModelService(config)
        service._accepting = True
        tickets = [
            service.submit(EvaluateRequest(p, "xc5vlx110t")) for p in PRMS
        ]
        service._accepting = False
        service.start()
        service.stop()  # enqueues one _STOP; worker may drain it mid-batch
        for p, ticket in zip(PRMS, tickets):
            assert ticket.result(timeout=10.0) == evaluate_prm(p, "xc5vlx110t")
        assert not service._threads

    def test_explore_requests_left_out_of_batches(self):
        from repro.devices.catalog import XC5VLX110T
        from repro.serve import ExploreRequest

        config = ServiceConfig(workers=1, queue_depth=16, max_batch=8)
        service = CostModelService(config)
        service._accepting = True
        ev = service.submit(EvaluateRequest(PRMS[0], "xc5vlx110t"))
        ex = service.submit(ExploreRequest(XC5VLX110T, tuple(PRMS[:2])))
        ev2 = service.submit(EvaluateRequest(PRMS[2], "xc5vlx110t"))
        service._accepting = False
        service.start()
        assert ev.result(timeout=10.0) == evaluate_prm(PRMS[0], "xc5vlx110t")
        assert ev2.result(timeout=10.0) == evaluate_prm(PRMS[2], "xc5vlx110t")
        front = ex.result(timeout=30.0)
        assert len(front) >= 1
        service.stop()

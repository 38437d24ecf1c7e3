"""CostModelService: backpressure, deadlines, drain, typed failures."""

import threading
import time

import pytest

from repro import obs
from repro.core.params import PRMRequirements
from repro.devices.catalog import XC5VLX110T
from repro.errors import DeadlineExceeded, InvalidInput, Overloaded
from repro.serve import (
    CostModelService,
    EvaluateRequest,
    ExploreRequest,
    ServiceConfig,
    jittered_retry_after,
)

from tests.conftest import paper_requirements

FIR = PRMRequirements(
    name="fir", lut_ff_pairs=1300, luts=1150, ffs=394, dsps=32, brams=0
)


def v5_prms():
    return (
        paper_requirements("fir", "virtex5"),
        paper_requirements("mips", "virtex5"),
        paper_requirements("sdram", "virtex5"),
    )


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"queue_depth": 0},
            {"default_deadline_s": -1.0},
            {"shed_retry_after_s": -0.1},
            {"shed_retry_jitter": -0.1},
            {"shed_retry_jitter": 11.0},
            {"drain_timeout_s": 0.0},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(InvalidInput):
            ServiceConfig(**kwargs)

    def test_bad_request_type_rejected(self):
        with CostModelService() as service:
            with pytest.raises(InvalidInput):
                service.submit("not a request")

    def test_non_positive_deadline_rejected(self):
        with CostModelService() as service:
            with pytest.raises(InvalidInput):
                service.submit(
                    EvaluateRequest(FIR, "xc5vlx110t", deadline_s=-1.0)
                )

    def test_double_start_rejected(self):
        service = CostModelService()
        service.start()
        try:
            with pytest.raises(InvalidInput):
                service.start()
        finally:
            service.stop()


class TestHappyPath:
    def test_evaluate_roundtrip(self):
        with CostModelService(ServiceConfig(workers=2)) as service:
            ticket = service.submit(EvaluateRequest(FIR, "xc5vlx110t"))
            result = ticket.result(timeout=30)
        assert result.device_name == "xc5vlx110t"
        assert result.bitstream.total_bytes > 0

    def test_explore_roundtrip(self):
        with CostModelService() as service:
            ticket = service.submit(
                ExploreRequest(XC5VLX110T, v5_prms(), mode="exhaustive")
            )
            result = ticket.result(timeout=60)
        assert len(result) >= 1
        assert result.status == "exhausted"

    def test_explore_degrades_under_evaluation_budget(self):
        with CostModelService() as service:
            ticket = service.submit(
                ExploreRequest(
                    XC5VLX110T, v5_prms(), mode="exhaustive", max_evaluations=2
                )
            )
            result = ticket.result(timeout=60)
        assert result.degraded
        assert len(result) >= 1

    def test_typed_model_error_reraised_from_ticket(self):
        with CostModelService() as service:
            ticket = service.submit(EvaluateRequest(FIR, "no-such-device"))
            with pytest.raises(InvalidInput, match="valid choices"):
                ticket.result(timeout=30)

    def test_untyped_failure_rejects_only_its_ticket(self, monkeypatch):
        real_run = ExploreRequest.run
        threads = []

        def run_once_broken(self, remaining_s):
            threads.append(threading.current_thread())
            if len(threads) == 1:
                raise RuntimeError("evaluator bug")
            return real_run(self, remaining_s)

        monkeypatch.setattr(ExploreRequest, "run", run_once_broken)
        request = ExploreRequest(XC5VLX110T, v5_prms())
        with CostModelService(ServiceConfig(workers=1)) as service:
            broken = service.submit(request)
            healthy = service.submit(request)
            with pytest.raises(RuntimeError, match="evaluator bug"):
                broken.result(timeout=30)
            designs = healthy.result(timeout=60)
        assert designs == real_run(request, None)
        assert len(threads) == 2 and threads[0] is threads[1]

    def test_unstarted_and_stopped_service_refuse(self):
        service = CostModelService()
        with pytest.raises(Overloaded):
            service.submit(EvaluateRequest(FIR, "xc5vlx110t"))
        service.start()
        service.stop()
        with pytest.raises(Overloaded):
            service.submit(EvaluateRequest(FIR, "xc5vlx110t"))


def _block_worker(monkeypatch):
    """Make EvaluateRequest.run block until the returned gate is set."""
    gate = threading.Event()
    started = threading.Event()

    def slow_run(self, remaining_s):
        started.set()
        assert gate.wait(timeout=30)
        return "slow-done"

    monkeypatch.setattr(EvaluateRequest, "run", slow_run)
    return gate, started


class TestBackpressure:
    def test_full_queue_sheds_with_retry_after(self, monkeypatch):
        gate, started = _block_worker(monkeypatch)
        config = ServiceConfig(
            workers=1, queue_depth=1, shed_retry_after_s=0.123
        )
        with CostModelService(config) as service:
            first = service.submit(EvaluateRequest(FIR, "xc5vlx110t"))
            assert started.wait(timeout=30)  # worker busy
            queued = service.submit(EvaluateRequest(FIR, "xc5vlx110t"))
            with pytest.raises(Overloaded) as excinfo:
                service.submit(EvaluateRequest(FIR, "xc5vlx110t"))
            shed = excinfo.value
            assert shed.retryable
            # retry_after_s is jittered upward by at most shed_retry_jitter
            jitter = config.shed_retry_jitter
            assert 0.123 <= shed.retry_after_s <= 0.123 * (1 + jitter) + 1e-9
            assert shed.queue_depth == 1
            gate.set()
            assert first.result(timeout=30) == "slow-done"
            assert queued.result(timeout=30) == "slow-done"

    def test_jittered_retry_after_stays_in_band(self):
        import random

        rng = random.Random(1234)
        for _ in range(200):
            value = jittered_retry_after(0.1, 0.25, rng)
            assert 0.1 <= value <= 0.1 * 1.25

    def test_zero_jitter_is_exact(self):
        assert jittered_retry_after(0.5, 0.0) == 0.5

    def test_deadline_elapsed_in_queue_fails_fast(self, monkeypatch):
        gate, started = _block_worker(monkeypatch)
        with CostModelService(ServiceConfig(workers=1)) as service:
            service.submit(EvaluateRequest(FIR, "xc5vlx110t"))
            assert started.wait(timeout=30)
            doomed = service.submit(
                EvaluateRequest(FIR, "xc5vlx110t", deadline_s=0.01)
            )
            time.sleep(0.05)
            gate.set()
            with pytest.raises(DeadlineExceeded) as excinfo:
                doomed.result(timeout=30)
            assert excinfo.value.retryable
            assert excinfo.value.deadline_s == pytest.approx(0.01)


class TestDrain:
    def test_stop_drains_accepted_work(self):
        with CostModelService(ServiceConfig(workers=2)) as service:
            tickets = [
                service.submit(EvaluateRequest(FIR, "xc5vlx110t"))
                for _ in range(6)
            ]
        # context exit stops with drain=True
        for ticket in tickets:
            assert ticket.result(timeout=30).device_name == "xc5vlx110t"

    def test_stop_without_drain_sheds_queued(self, monkeypatch):
        gate, started = _block_worker(monkeypatch)
        config = ServiceConfig(workers=1, queue_depth=4, drain_timeout_s=5.0)
        service = CostModelService(config).start()
        running = service.submit(EvaluateRequest(FIR, "xc5vlx110t"))
        assert started.wait(timeout=30)
        queued = service.submit(EvaluateRequest(FIR, "xc5vlx110t"))
        threading.Timer(0.1, gate.set).start()
        service.stop(drain=False)
        with pytest.raises(Overloaded, match="stopped"):
            queued.result(timeout=30)
        assert running.result(timeout=30) == "slow-done"


class TestDrainRace:
    def test_submit_during_drain_sheds_instead_of_racing(self, monkeypatch):
        """stop(drain=True) must reject new submissions, not enqueue them."""
        gate, started = _block_worker(monkeypatch)
        config = ServiceConfig(workers=1, queue_depth=8, drain_timeout_s=10.0)
        service = CostModelService(config).start()
        running = service.submit(EvaluateRequest(FIR, "xc5vlx110t"))
        assert started.wait(timeout=30)

        stopping = threading.Event()
        stopped = threading.Event()

        def drain():
            stopping.set()
            service.stop(drain=True)
            stopped.set()

        stopper = threading.Thread(target=drain, daemon=True)
        stopper.start()
        assert stopping.wait(timeout=30)
        # Give stop() time to flip _accepting while the worker is blocked.
        deadline = time.monotonic() + 5.0
        late_error = None
        while time.monotonic() < deadline:
            try:
                service.submit(EvaluateRequest(FIR, "xc5vlx110t"))
            except Overloaded as err:
                late_error = err
                break
            time.sleep(0.01)
        assert late_error is not None, "submit during drain was accepted"
        assert "drain" in late_error.message or "stopped" in late_error.message
        gate.set()
        assert stopped.wait(timeout=30)
        assert running.result(timeout=30) == "slow-done"
        stopper.join(timeout=10)


class TestObservability:
    def test_counters_emitted(self, monkeypatch):
        with obs.capture(command="serve-test") as session:
            with CostModelService(ServiceConfig(workers=1)) as service:
                ok = service.submit(EvaluateRequest(FIR, "xc5vlx110t"))
                bad = service.submit(EvaluateRequest(FIR, "no-such-device"))
                ok.result(timeout=30)
                with pytest.raises(InvalidInput):
                    bad.result(timeout=30)
        counters = session.to_dict()["metrics"]["counters"]
        assert counters["serve.accepted"] == 2
        assert counters["serve.completed"] == 1
        assert counters["serve.errors"] == 1
        assert counters["serve.errors.invalid_input"] == 1

"""Tests for the one verified write: retry, backoff and the deadline rule."""

import pytest

from repro.bitgen.generator import generate_partial_bitstream
from repro.core.placement_search import find_prr
from repro.devices.catalog import XC5VLX110T
from repro.faults import (
    ControllerStallFault,
    DegradedModePolicy,
    FaultInjector,
    RetryPolicy,
    TransferBitFlipFault,
    TransferOutcome,
    payload_crc,
    verified_write,
)
from repro.icap.controllers import DmaIcapController
from repro.icap.reconfig import simulate_reconfiguration
from repro.icap.storage import DDR_SDRAM
from repro.multitask import HwTask, Job, simulate_pr

from tests.conftest import paper_requirements

CONTROLLER = DmaIcapController()
BASE_S = 100e-6  #: clean port time of one attempt in the loop tests


def clean(time_s, attempt):
    return None


def injected(injector, target="prr0", seen=None):
    """The injector's draw for each attempt, optionally logging its time."""

    def outcome_at(time_s, attempt):
        if seen is not None:
            seen.append(time_s)
        return injector.transfer_outcome(time_s, target, attempt=attempt)

    return outcome_at


def always_corrupted(seed=1):
    return FaultInjector(seed=seed, transfer=TransferBitFlipFault(1.0))


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="backoff_factor"):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError, match="deadline_s"):
            RetryPolicy(deadline_s=0.0)

    def test_no_retry_is_single_attempt(self):
        assert RetryPolicy.no_retry().max_attempts == 1

    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(
            backoff_base_s=1e-4, backoff_factor=2.0, backoff_cap_s=3e-4
        )
        assert policy.backoff_seconds(1) == pytest.approx(1e-4)
        assert policy.backoff_seconds(2) == pytest.approx(2e-4)
        assert policy.backoff_seconds(3) == pytest.approx(3e-4)  # capped
        assert policy.backoff_seconds(0) == 0.0


class TestPayloadCrc:
    def test_any_flipped_bit_changes_crc(self):
        data = bytes(range(256)) * 4
        base = payload_crc(data)
        for bit in (0, 7, 1000, len(data) * 8 - 1):
            corrupted = bytearray(data)
            corrupted[bit // 8] ^= 1 << (bit % 8)
            assert payload_crc(bytes(corrupted)) != base

    def test_partial_word_padded(self):
        assert payload_crc(b"\x01\x02\x03") == payload_crc(b"\x01\x02\x03\x00")


class TestFaultFree:
    def test_single_clean_attempt_matches_simulate_reconfiguration(self):
        base = simulate_reconfiguration(100_000, CONTROLLER, DDR_SDRAM)
        verify = 100_000 / 1e12
        write = verified_write(base.total_seconds, verify, RetryPolicy(), clean)
        assert write.success and write.attempts == 1
        assert write.retries == 0 and write.retry_s == 0.0
        assert not write.deadline_missed
        assert write.spent_s == write.port_s == base.total_seconds + verify

    def test_no_verify_time_charges_exactly_the_base(self):
        write = verified_write(0.1, 0.0, RetryPolicy(), clean)
        assert write.spent_s == write.port_s == 0.1

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            verified_write(-1.0, 0.0, RetryPolicy(), clean)

    def test_negative_verify_time_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            verified_write(1.0, -1e-6, RetryPolicy(), clean)


class TestRetryLoop:
    def test_always_corrupted_exhausts_attempts(self):
        policy = RetryPolicy(max_attempts=4)
        seen: list[float] = []
        write = verified_write(
            BASE_S, 0.0, policy, injected(always_corrupted(), seen=seen), 1.0
        )
        assert not write.success and not write.deadline_missed
        assert write.attempts == 4 and write.retries == 3
        assert write.port_s == pytest.approx(4 * BASE_S)
        # Backoff charged after every failed attempt except the last.
        backoffs = [policy.backoff_seconds(n) for n in (1, 2, 3)]
        assert write.spent_s == pytest.approx(4 * BASE_S + sum(backoffs))
        assert write.retry_s == pytest.approx(3 * BASE_S + sum(backoffs))
        # Each attempt is drawn at the start time plus the time spent.
        assert seen == pytest.approx(
            [1.0 + n * BASE_S + sum(backoffs[:n]) for n in range(4)]
        )

    def test_timeout_outcome_recorded(self):
        injector = FaultInjector(
            seed=2,
            stall=ControllerStallFault(1.0, stall_seconds=1e-3, timeout_probability=1.0),
        )
        write = verified_write(
            BASE_S, 0.0, RetryPolicy.no_retry(), injected(injector)
        )
        assert not write.success and write.attempts == 1
        assert injector.fault_counts == {"timeout": 1}
        # The stall still consumed port time.
        assert write.port_s == write.spent_s == pytest.approx(BASE_S + 1e-3)

    def test_deadline_budget_aborts(self):
        policy = RetryPolicy(max_attempts=100, deadline_s=2e-3)
        write = verified_write(
            250e-6, 0.0, policy, injected(always_corrupted(seed=3))
        )
        assert not write.success and write.deadline_missed
        assert write.attempts < 100
        assert write.spent_s > policy.deadline_s

    def test_eventual_success_counts_retries(self):
        injector = FaultInjector(seed=7, transfer=TransferBitFlipFault(0.8))
        write = verified_write(
            BASE_S, 0.0, RetryPolicy(max_attempts=50), injected(injector)
        )
        assert write.success
        assert write.retries == write.attempts - 1 >= 1
        assert injector.fault_counts["transfer_bitflip"] == write.retries

    def test_deterministic_given_seed(self):
        def run():
            injector = FaultInjector(seed=11, transfer=TransferBitFlipFault(0.4))
            return verified_write(
                50e-6, 5e-6, RetryPolicy(max_attempts=10), injected(injector)
            )

        assert run() == run()


class TestDeadlineRule:
    """Success is checked before the deadline; a failure past it stops
    the write before its backoff."""

    def test_success_past_deadline_counts_as_success(self):
        write = verified_write(1e-3, 0.0, RetryPolicy(deadline_s=1e-6), clean)
        assert write.success and not write.deadline_missed
        assert write.spent_s == 1e-3

    def test_failure_past_deadline_stops_before_backoff(self):
        policy = RetryPolicy(max_attempts=5, backoff_base_s=1e-4, deadline_s=1.5e-3)
        write = verified_write(1e-3, 0.0, policy, injected(always_corrupted()))
        # Attempt 1 ends inside the budget and backs off; attempt 2 ends
        # past it and stops with no second backoff.
        assert write.deadline_missed and not write.success
        assert write.attempts == 2
        assert write.spent_s == pytest.approx(2e-3 + policy.backoff_seconds(1))

    def test_simulate_pr_completes_job_past_deadline(self):
        fir = HwTask(paper_requirements("fir", "virtex5"), 1e-3)
        prr = find_prr(XC5VLX110T, fir.prm).geometry
        result = simulate_pr(
            [Job(fir, 0.0, 0)],
            [prr],
            faults=FaultInjector.from_rates(seed=0),
            fault_policy=DegradedModePolicy(retry=RetryPolicy(deadline_s=1e-9)),
        )
        assert len(result.completed) == 1
        assert result.completed[0].reconfig_seconds > 1e-9
        assert result.deadline_misses == 0 and result.failed_reconfigs == 0


class TestByteLevel:
    """Real partial bitstream: the CRC itself detects the corruption."""

    @pytest.fixture(scope="class")
    def bitstream_bytes(self):
        placed = find_prr(XC5VLX110T, paper_requirements("sdram", "virtex5"))
        return generate_partial_bitstream(
            XC5VLX110T, placed.region, design_name="sdram"
        ).to_bytes()

    @staticmethod
    def crc_verified(injector, data, mismatches):
        """Stream *data* through the injector and verify the received copy."""
        golden = payload_crc(data)

        def outcome_at(time_s, attempt):
            received, _ = injector.corrupt_bytes(data, time_s, "prr0", attempt=attempt)
            corrupted = payload_crc(received) != golden
            mismatches.append(corrupted)
            return TransferOutcome(
                corrupted=corrupted, stall_seconds=0.0, timed_out=False
            )

        return outcome_at

    def write(self, injector, data, mismatches, policy):
        base = simulate_reconfiguration(len(data), CONTROLLER, DDR_SDRAM)
        verify = len(data) / CONTROLLER.peak_bytes_per_s
        return verified_write(
            base.total_seconds,
            verify,
            policy,
            self.crc_verified(injector, data, mismatches),
        )

    def test_clean_transfer_verifies(self, bitstream_bytes):
        mismatches: list[bool] = []
        write = self.write(
            FaultInjector(seed=1), bitstream_bytes, mismatches, RetryPolicy()
        )
        assert write.success and write.attempts == 1
        assert mismatches == [False]

    def test_injected_flip_caught_by_crc_then_retried(self, bitstream_bytes):
        injector = FaultInjector(seed=1, transfer=TransferBitFlipFault(0.7))
        mismatches: list[bool] = []
        write = self.write(
            injector, bitstream_bytes, mismatches, RetryPolicy(max_attempts=30)
        )
        assert write.success
        assert sum(mismatches) == write.retries >= 1
        assert injector.fault_counts["transfer_bitflip"] == sum(mismatches)

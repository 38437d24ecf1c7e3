"""Verified reconfiguration with retry/backoff.

FaRM-style controllers do not fire-and-forget: every DMA transfer into
the ICAP is followed by a CRC verify, and a mismatch re-streams the
bitstream.  :class:`ReliableReconfigurer` wraps
:func:`repro.icap.reconfig.simulate_reconfiguration` with exactly that
loop — CRC-verify-after-write using :class:`repro.bitgen.crc.ConfigCrc`
semantics, a configurable :class:`RetryPolicy` (max attempts,
exponential backoff, per-job deadline budget) and an attempt-by-attempt
timing breakdown.

Two operating modes:

* **byte level** — pass the actual bitstream ``bytes``: the injector
  flips real bits in the received copy and the verify stage detects the
  damage by re-accumulating the configuration CRC, the way the device
  would;
* **model level** — pass an ``int`` byte count: corruption is a
  Bernoulli outcome and only the timing is modeled (what the
  multitasking scheduler uses, where payload content is irrelevant).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..bitgen.crc import ConfigCrc
from ..bitgen.words import ConfigRegister, words_from_bytes
from ..errors import InvalidInput
from ..icap.controllers import ReconfigController
from ..icap.reconfig import simulate_reconfiguration
from ..icap.storage import StorageMedium
from ..obs import trace as _obs
from .injector import FaultInjector, TransferOutcome

__all__ = [
    "RetryPolicy",
    "AttemptRecord",
    "ReliableReconfigResult",
    "ReliableReconfigurer",
    "payload_crc",
]


def payload_crc(data: bytes) -> int:
    """Configuration CRC of a payload, accumulated word by word.

    Models verify-after-write readback: every 32-bit word is folded into
    the CRC as an FDRI write (:class:`ConfigCrc` semantics), so any
    flipped bit anywhere in the payload changes the value.  A trailing
    partial word is zero-padded, matching the port's word alignment.
    """
    crc = ConfigCrc()
    padded = bytes(data) + b"\0" * (-len(data) % 4)
    crc.update_words(ConfigRegister.FDRI, words_from_bytes(padded))
    return crc.value


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """How hard to try before declaring a reconfiguration failed."""

    max_attempts: int = 3
    backoff_base_s: float = 100e-6  #: delay before the second attempt
    backoff_factor: float = 2.0  #: exponential growth per further attempt
    backoff_cap_s: float = 10e-3
    deadline_s: float | None = None  #: per-job wall-clock budget

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise InvalidInput(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base_s < 0:
            raise InvalidInput("backoff_base_s must be non-negative")
        if self.backoff_factor < 1.0:
            raise InvalidInput("backoff_factor must be >= 1")
        if self.backoff_cap_s < 0:
            raise InvalidInput("backoff_cap_s must be non-negative")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise InvalidInput("deadline_s must be positive when set")

    @classmethod
    def no_retry(cls) -> "RetryPolicy":
        """Fail on the first bad transfer (the ablation's baseline arm)."""
        return cls(max_attempts=1)

    def backoff_seconds(self, failed_attempts: int) -> float:
        """Delay after the *n*-th failed attempt, exponentially growing."""
        if failed_attempts < 1:
            return 0.0
        delay = self.backoff_base_s * self.backoff_factor ** (failed_attempts - 1)
        return min(delay, self.backoff_cap_s)


@dataclass(frozen=True, slots=True)
class AttemptRecord:
    """Timing of one write-verify attempt."""

    attempt: int  #: 1-based
    fetch_seconds: float
    write_seconds: float  #: port time including any stall
    verify_seconds: float
    backoff_seconds: float  #: delay charged *after* this attempt failed
    outcome: str  #: ``ok`` | ``crc_mismatch`` | ``timeout`` | ``deadline``

    @property
    def total_seconds(self) -> float:
        overlapped = max(self.fetch_seconds, self.write_seconds)
        return overlapped + self.verify_seconds + self.backoff_seconds


@dataclass
class ReliableReconfigResult:
    """Attempt-by-attempt outcome of one verified reconfiguration."""

    bitstream_bytes: int
    attempts: list[AttemptRecord] = field(default_factory=list)
    success: bool = False
    verified_crc: int | None = None  #: golden CRC (byte-level mode only)

    @property
    def total_seconds(self) -> float:
        return sum(a.total_seconds for a in self.attempts)

    @property
    def retries(self) -> int:
        """Attempts beyond the first."""
        return max(0, len(self.attempts) - 1)

    @property
    def deadline_exceeded(self) -> bool:
        return bool(self.attempts) and self.attempts[-1].outcome == "deadline"

    def breakdown(self) -> str:
        lines = [
            f"attempt {a.attempt}: fetch {a.fetch_seconds * 1e6:.1f}us, "
            f"write {a.write_seconds * 1e6:.1f}us, "
            f"verify {a.verify_seconds * 1e6:.1f}us, "
            f"backoff {a.backoff_seconds * 1e6:.1f}us -> {a.outcome}"
            for a in self.attempts
        ]
        verdict = "ok" if self.success else "FAILED"
        lines.append(
            f"{verdict}: {self.bitstream_bytes} bytes in "
            f"{self.total_seconds * 1e3:.3f}ms over {len(self.attempts)} attempt(s)"
        )
        return "\n".join(lines)


class ReliableReconfigurer:
    """CRC-verified, retrying wrapper around one controller + medium."""

    def __init__(
        self,
        controller: ReconfigController,
        medium: StorageMedium,
        *,
        policy: RetryPolicy | None = None,
        injector: FaultInjector | None = None,
        overlap: bool = True,
        verify_bytes_per_s: float | None = None,
    ) -> None:
        if verify_bytes_per_s is not None and verify_bytes_per_s <= 0:
            raise InvalidInput("verify_bytes_per_s must be positive when set")
        self.controller = controller
        self.medium = medium
        self.policy = policy if policy is not None else RetryPolicy()
        self.injector = injector
        self.overlap = overlap
        # Verify = readback at the port's read rate unless told otherwise.
        self.verify_bytes_per_s = (
            verify_bytes_per_s
            if verify_bytes_per_s is not None
            else controller.peak_bytes_per_s
        )

    def reconfigure(
        self, payload: bytes | int, *, now: float = 0.0, target: str = "prr"
    ) -> ReliableReconfigResult:
        """Stream *payload* until the CRC verifies or the policy gives up.

        ``payload`` is either the partial bitstream bytes (byte-level
        corruption + real CRC compare) or a byte count (timing model
        only).  ``now`` anchors the injector's event timestamps.
        """
        data = payload if isinstance(payload, bytes) else None
        nbytes = len(data) if data is not None else int(payload)
        if nbytes < 0:
            raise InvalidInput("payload size must be non-negative")
        golden = payload_crc(data) if data is not None else None
        base = simulate_reconfiguration(
            nbytes, self.controller, self.medium, overlap=self.overlap
        )
        verify = nbytes / self.verify_bytes_per_s
        result = ReliableReconfigResult(bitstream_bytes=nbytes, verified_crc=golden)

        try:
            return self._reconfigure_attempts(
                data, now, target, base, verify, result
            )
        finally:
            _publish_reliability_metrics(result)

    def _reconfigure_attempts(
        self,
        data: bytes | None,
        now: float,
        target: str,
        base,
        verify: float,
        result: ReliableReconfigResult,
    ) -> ReliableReconfigResult:
        golden = result.verified_crc
        elapsed = 0.0
        for attempt in range(1, self.policy.max_attempts + 1):
            outcome = self._attempt_outcome(now + elapsed, target, attempt)
            corrupted = outcome.corrupted
            if data is not None and corrupted:
                # Flip real bits and let the CRC *detect* the damage —
                # the verify stage trusts the checksum, not the injector.
                received = self._flip(data)
                corrupted = payload_crc(received) != golden
            write = base.write_seconds + outcome.stall_seconds
            if outcome.timed_out:
                status = "timeout"
            elif corrupted:
                status = "crc_mismatch"
            else:
                status = "ok"
            failed = status != "ok"
            last = attempt == self.policy.max_attempts
            backoff = (
                self.policy.backoff_seconds(attempt) if failed and not last else 0.0
            )
            record = AttemptRecord(
                attempt=attempt,
                fetch_seconds=base.fetch_seconds,
                write_seconds=write,
                verify_seconds=verify,
                backoff_seconds=backoff,
                outcome=status,
            )
            elapsed += record.total_seconds
            if (
                self.policy.deadline_s is not None
                and elapsed > self.policy.deadline_s
            ):
                record = AttemptRecord(
                    attempt=attempt,
                    fetch_seconds=base.fetch_seconds,
                    write_seconds=write,
                    verify_seconds=verify,
                    backoff_seconds=backoff,
                    outcome="deadline",
                )
                result.attempts.append(record)
                return result
            result.attempts.append(record)
            if not failed:
                result.success = True
                return result
        return result

    def _attempt_outcome(
        self, now: float, target: str, attempt: int
    ) -> TransferOutcome:
        if self.injector is None:
            return TransferOutcome(corrupted=False, stall_seconds=0.0, timed_out=False)
        return self.injector.transfer_outcome(now, target, attempt=attempt)

    def _flip(self, data: bytes) -> bytes:
        flips = (
            self.injector.transfer.bit_flips
            if self.injector is not None and self.injector.transfer is not None
            else 1
        )
        received = bytearray(data)
        for _ in range(flips):
            bit = int(self.injector.rng.integers(len(data) * 8))
            received[bit // 8] ^= 1 << (bit % 8)
        return bytes(received)


def _publish_reliability_metrics(result: ReliableReconfigResult) -> None:
    """Emit retry/fault counters for one verified reconfiguration.

    No-op when observability is disabled; counters only (no span state),
    so this is safe from any thread.
    """
    registry = _obs.metrics()
    if registry is None:
        return
    registry.counter("reconfig.attempts").inc(len(result.attempts))
    registry.counter("reconfig.retries").inc(result.retries)
    outcomes = [a.outcome for a in result.attempts]
    registry.counter("reconfig.crc_mismatches").inc(
        outcomes.count("crc_mismatch")
    )
    registry.counter("reconfig.timeouts").inc(outcomes.count("timeout"))
    if result.deadline_exceeded:
        registry.counter("reconfig.deadline_exceeded").inc(1)
    if not result.success:
        registry.counter("reconfig.failures").inc(1)

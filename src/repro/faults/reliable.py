"""Verified reconfiguration with retry/backoff.

FaRM-style controllers do not fire-and-forget: every transfer into the
configuration port is followed by a CRC verify, and a mismatch
re-streams the partial bitstream.  :func:`verified_write` is that loop
as one pure function: the caller supplies the clean cost of one
attempt, a :class:`RetryPolicy` and a callback that decides each
attempt's fate; the function returns what the write cost and how it
ended.  Its rule, which :func:`repro.multitask.scheduler.simulate_pr`
charges for every reconfiguration:

* each attempt costs ``base_s + stall + verify_s`` (the stall comes from
  the attempt's :class:`~repro.faults.injector.TransferOutcome`; a
  timed-out attempt still pays it);
* a clean attempt succeeds even when it ends past the policy's
  deadline — success is checked first;
* a failed attempt that ends past the deadline stops the write before
  its backoff;
* every other failed attempt but the last is followed by
  :meth:`RetryPolicy.backoff_seconds` of idle time.

:func:`payload_crc` models the verify stage at byte level: a caller that
streams real bytes (the fabric's ``verify="crc"`` migrations) flips
bits in the received copy and lets the configuration CRC detect the
damage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..bitgen.crc import ConfigCrc
from ..bitgen.words import ConfigRegister, words_from_bytes
from ..errors import InvalidInput
from .injector import TransferOutcome

__all__ = [
    "OutcomeAt",
    "RetryPolicy",
    "VerifiedWrite",
    "payload_crc",
    "verified_write",
]

#: Fate of one attempt: ``(time_s, attempt) -> outcome``, where
#: ``attempt`` is 1-based and ``None`` means a clean port.
OutcomeAt = Callable[[float, int], TransferOutcome | None]


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
class VerifiedWrite:
    """What one verified write cost and how it ended."""

    attempts: int  #: attempts streamed (at least one)
    spent_s: float  #: port, stall, verify and backoff time of all attempts
    port_s: float  #: ``spent_s`` minus the backoff gaps
    retry_s: float  #: time beyond the first attempt, backoff included
    success: bool
    deadline_missed: bool  #: the policy's deadline stopped the retries

    @property
    def retries(self) -> int:
        """Attempts beyond the first (each follows a failed one)."""
        return self.attempts - 1


def verified_write(
    base_s: float,
    verify_s: float,
    policy: RetryPolicy,
    outcome_at: OutcomeAt,
    start_s: float = 0.0,
) -> VerifiedWrite:
    """Stream one partial bitstream until it verifies or *policy* gives up.

    ``base_s`` is the clean port time of one attempt and ``verify_s``
    its verify time; ``outcome_at`` is asked for each attempt's outcome
    at ``start_s`` plus the time spent so far.  The deadline, when the
    policy sets one, bounds the time spent from ``start_s``.
    """
    if base_s < 0 or verify_s < 0:
        raise InvalidInput(
            f"attempt times must be non-negative, got base_s={base_s}, "
            f"verify_s={verify_s}"
        )
    spent = port = retry = 0.0
    for attempt in range(1, policy.max_attempts + 1):
        outcome = outcome_at(start_s + spent, attempt)
        stall = 0.0 if outcome is None else outcome.stall_seconds
        attempt_s = base_s + stall + verify_s
        spent += attempt_s
        port += attempt_s
        if attempt > 1:
            retry += attempt_s
        if outcome is None or outcome.ok:
            return VerifiedWrite(attempt, spent, port, retry, True, False)
        if policy.deadline_s is not None and spent > policy.deadline_s:
            return VerifiedWrite(attempt, spent, port, retry, False, True)
        if attempt < policy.max_attempts:
            backoff = policy.backoff_seconds(attempt)
            spent += backoff
            retry += backoff
    return VerifiedWrite(policy.max_attempts, spent, port, retry, False, False)

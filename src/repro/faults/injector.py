"""Seedable fault injector with a structured event log.

One :class:`FaultInjector` owns a ``numpy.random.Generator`` and the set
of enabled fault models; every probabilistic decision in the
fault-tolerant runtime flows through it, in simulation order, so a fixed
seed reproduces the exact same fault history — the property the
reliability ablation and the CI smoke job assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..errors import InvalidInput
from .models import (
    ControllerStallFault,
    FaultEvent,
    PermanentColumnFault,
    SeuArrivalFault,
    StorageFetchFault,
    TransferBitFlipFault,
)

__all__ = ["TransferOutcome", "FaultInjector"]


@dataclass(frozen=True, slots=True)
class TransferOutcome:
    """What the fault layer did to one reconfiguration attempt."""

    corrupted: bool  #: payload damaged (write-path flip or bad fetch)
    stall_seconds: float  #: extra controller latency
    timed_out: bool  #: watchdog abort — the attempt never completes

    @property
    def ok(self) -> bool:
        return not self.corrupted and not self.timed_out


class FaultInjector:
    """Draws faults from the enabled models with one seeded generator.

    Exactly one of ``seed`` / ``rng`` must be given (pass ``seed=None``
    explicitly with an ``rng`` to share a generator across components).
    A model left ``None`` never fires and never consumes generator
    state, so disabling a mechanism cannot perturb the others' draws.
    """

    def __init__(
        self,
        *,
        seed: int | None = None,
        rng: np.random.Generator | None = None,
        transfer: TransferBitFlipFault | None = None,
        fetch: StorageFetchFault | None = None,
        stall: ControllerStallFault | None = None,
        seu: SeuArrivalFault | None = None,
        permanent: PermanentColumnFault | None = None,
    ) -> None:
        if (seed is None) == (rng is None):
            raise InvalidInput("provide exactly one of seed= or rng=")
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self.transfer = transfer
        self.fetch = fetch
        self.stall = stall
        self.seu = seu
        self.permanent = permanent
        self.events: list[FaultEvent] = []

    @classmethod
    def from_rates(
        cls,
        *,
        seed: int,
        fault_rate: float = 0.0,
        fetch_rate: float = 0.0,
        stall_rate: float = 0.0,
        stall_seconds: float = 1e-3,
        timeout_probability: float = 0.0,
        seu_rate_per_s: float = 0.0,
        permanent_rate_per_s: float = 0.0,
    ) -> "FaultInjector":
        """Convenience constructor from plain per-mechanism rates.

        ``fault_rate`` is the per-transfer write-path bit-flip
        probability (the CLI's ``--fault-rate``); zero-rate mechanisms
        are left disabled entirely.
        """
        return cls(
            seed=seed,
            transfer=TransferBitFlipFault(fault_rate) if fault_rate > 0 else None,
            fetch=StorageFetchFault(fetch_rate) if fetch_rate > 0 else None,
            stall=(
                ControllerStallFault(
                    stall_rate,
                    stall_seconds=stall_seconds,
                    timeout_probability=timeout_probability,
                )
                if stall_rate > 0
                else None
            ),
            seu=SeuArrivalFault(seu_rate_per_s) if seu_rate_per_s > 0 else None,
            permanent=(
                PermanentColumnFault(permanent_rate_per_s)
                if permanent_rate_per_s > 0
                else None
            ),
        )

    # -- draw API -----------------------------------------------------------

    def transfer_outcome(
        self, now: float, target: str, *, attempt: int | None = None
    ) -> TransferOutcome:
        """Decide the fate of one reconfiguration attempt.

        Draw order is fixed (fetch, stall, write-path flip) so a given
        seed yields the same fault history regardless of which models
        later get disabled by a zero probability.
        """
        corrupted = False
        stall_seconds = 0.0
        timed_out = False
        if self.fetch is not None and self._bernoulli(self.fetch.probability):
            corrupted = True
            self._record(now, "fetch_corrupt", "storage", attempt=attempt)
        if self.stall is not None and self._bernoulli(self.stall.probability):
            stall_seconds = self.stall.stall_seconds
            if self._bernoulli(self.stall.timeout_probability):
                timed_out = True
                self._record(now, "timeout", target, attempt=attempt)
            else:
                self._record(now, "stall", target, attempt=attempt)
        if self.transfer is not None and self._bernoulli(self.transfer.probability):
            corrupted = True
            self._record(now, "transfer_bitflip", target, attempt=attempt)
        return TransferOutcome(
            corrupted=corrupted, stall_seconds=stall_seconds, timed_out=timed_out
        )

    def corrupt_bytes(
        self, data: bytes, now: float, target: str, *, attempt: int | None = None
    ) -> tuple[bytes, list[int]]:
        """Byte-level write path: maybe flip real bits in *data*.

        Returns the (possibly corrupted) received payload and the flipped
        bit offsets.  This is what lets the CRC verify stage *actually*
        detect the damage rather than being told about it.
        """
        outcome = self.transfer_outcome(now, target, attempt=attempt)
        if not outcome.corrupted or not data:
            return data, []
        flips = self.transfer.bit_flips if self.transfer is not None else 1
        received = bytearray(data)
        offsets: list[int] = []
        for _ in range(flips):
            bit = int(self.rng.integers(len(data) * 8))
            received[bit // 8] ^= 1 << (bit % 8)
            offsets.append(bit)
        return bytes(received), offsets

    def seu_arrivals(self, start: float, end: float) -> int:
        """Background upsets striking the fabric during ``[start, end)``."""
        if self.seu is None or end <= start:
            return 0
        return int(self.rng.poisson(self.seu.rate_per_s * (end - start)))

    def permanent_arrivals(self, start: float, end: float) -> int:
        """Permanent column faults striking the fabric in ``[start, end)``."""
        if self.permanent is None or end <= start:
            return 0
        return int(self.rng.poisson(self.permanent.rate_per_s * (end - start)))

    def record_permanent(self, now: float, target: str, detail: str = "") -> None:
        self._record_detail(now, "permanent", target, detail=detail)

    def choose(self, n: int) -> int:
        """Uniform choice among *n* targets (which PRR an SEU hits)."""
        if n <= 0:
            raise InvalidInput("need at least one target to choose from")
        return int(self.rng.integers(n))

    def record_seu(self, now: float, target: str) -> None:
        self._record(now, "seu", target)

    # -- observability ------------------------------------------------------

    @property
    def fault_counts(self) -> Mapping[str, int]:
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def render_log(self, limit: int | None = None) -> str:
        events = self.events if limit is None else self.events[:limit]
        return "\n".join(event.render() for event in events)

    # -- internals ----------------------------------------------------------

    def _bernoulli(self, probability: float) -> bool:
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return bool(self.rng.random() < probability)

    def _record(
        self, now: float, kind: str, target: str, *, attempt: int | None = None
    ) -> None:
        self.events.append(
            FaultEvent(time_s=now, kind=kind, target=target, attempt=attempt)
        )

    def _record_detail(
        self, now: float, kind: str, target: str, *, detail: str = ""
    ) -> None:
        self.events.append(
            FaultEvent(time_s=now, kind=kind, target=target, detail=detail)
        )

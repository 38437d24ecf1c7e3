"""Configuration scrubbing: SEU detection and repair via readback + PR.

Partially reconfigurable systems routinely pair the readback path with
partial reconfiguration to fight single-event upsets (SEUs): periodically
read frames back, compare against golden signatures, and rewrite any
corrupted frame's region with its partial bitstream.  This module builds
that loop on the :mod:`repro.relocation.memory` substrate:

* :func:`golden_signatures` — per-frame CRC32 signatures of a configured
  region (what a scrubber stores off-chip);
* :func:`inject_upsets` — deterministic fault injection (bit flips in
  random frames) for testing;
* :class:`Scrubber` — scan / detect / repair, with counters.

Repair granularity is the PRR: the scrubber rewrites the region's partial
bitstream (the standard blind-scrub approach), so one scrub pass restores
any number of upsets in that region.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from ..bitgen.generator import PartialBitstream
from ..devices.fabric import Region
from ..devices.frames import BLOCK_TYPE_BRAM_CONTENT, BLOCK_TYPE_CONFIG
from .memory import ConfigMemory

__all__ = ["golden_signatures", "inject_upsets", "ScrubReport", "Scrubber"]


def _frame_crc(words: tuple[int, ...]) -> int:
    data = b"".join(word.to_bytes(4, "big") for word in words)
    return zlib.crc32(data) & 0xFFFFFFFF


def golden_signatures(
    memory: ConfigMemory, region: Region
) -> dict[int, int]:
    """Per-frame CRC32 signatures of *region*, keyed by encoded FAR."""
    signatures: dict[int, int] = {}
    for block_type in (BLOCK_TYPE_CONFIG, BLOCK_TYPE_BRAM_CONTENT):
        for far, words in memory.region_frames(region, block_type):
            signatures[far.encode()] = _frame_crc(words)
    return signatures


def inject_upsets(
    memory: ConfigMemory,
    region: Region,
    *,
    count: int,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
) -> list[int]:
    """Flip *count* random bits in the region's frames; returns the
    encoded FARs of the corrupted frames (duplicates possible).

    Exactly one of ``seed`` / ``rng`` must be given: a seed builds a
    fresh generator (the historical behaviour), while passing the
    experiment's own ``numpy.random.Generator`` lets multi-region fault
    campaigns share one reproducible stream — no module-level RNG state
    anywhere.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if (seed is None) == (rng is None):
        raise ValueError("provide exactly one of seed= or rng=")
    if rng is None:
        rng = np.random.default_rng(seed)
    frames = [
        far
        for block_type in (BLOCK_TYPE_CONFIG, BLOCK_TYPE_BRAM_CONTENT)
        for far, _ in memory.region_frames(region, block_type)
    ]
    hit: list[int] = []
    frame_words = memory.device.family.frame_words
    for _ in range(count):
        far = frames[int(rng.integers(len(frames)))]
        words = list(memory.read_frame(far))
        word_index = int(rng.integers(frame_words))
        bit = int(rng.integers(32))
        words[word_index] ^= 1 << bit
        memory.write_frame(far, tuple(words))
        hit.append(far.encode())
    return hit


@dataclass
class ScrubReport:
    """Outcome of one scrub pass."""

    frames_scanned: int
    corrupted_fars: list[int] = field(default_factory=list)
    repaired: bool = False

    @property
    def upset_detected(self) -> bool:
        return bool(self.corrupted_fars)


@dataclass
class Scrubber:
    """Readback scrubber for one PRR."""

    memory: ConfigMemory
    region: Region
    golden: dict[int, int]
    repair_bitstream: PartialBitstream
    scrub_count: int = 0
    repairs: int = 0

    @classmethod
    def for_region(
        cls,
        memory: ConfigMemory,
        region: Region,
        repair_bitstream: PartialBitstream,
    ) -> "Scrubber":
        """Snapshot the current (known-good) state as golden."""
        if repair_bitstream.region != region:
            raise ValueError("repair bitstream targets a different region")
        return cls(
            memory=memory,
            region=region,
            golden=golden_signatures(memory, region),
            repair_bitstream=repair_bitstream,
        )

    def scan(self) -> ScrubReport:
        """Readback + compare; no repair."""
        self.scrub_count += 1
        corrupted = []
        scanned = 0
        for block_type in (BLOCK_TYPE_CONFIG, BLOCK_TYPE_BRAM_CONTENT):
            for far, words in self.memory.region_frames(self.region, block_type):
                scanned += 1
                if _frame_crc(words) != self.golden[far.encode()]:
                    corrupted.append(far.encode())
        return ScrubReport(frames_scanned=scanned, corrupted_fars=corrupted)

    def scrub(self) -> ScrubReport:
        """Scan and, when upsets are found, rewrite the region."""
        report = self.scan()
        if report.upset_detected:
            self.memory.configure(self.repair_bitstream.to_bytes())
            self.repairs += 1
            report.repaired = True
        return report

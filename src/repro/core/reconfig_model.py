"""Reconfiguration-time estimation from partial bitstream size.

The paper motivates the bitstream-size model by its downstream effect:
"the PRR size/organization's impact on partial bitstream size,
reconfiguration time, and overall PR system performance".  This module
provides the simple analytical step from bytes to seconds:

    t_reconfig = S_bitstream / min(throughput_controller, throughput_media)

optionally degraded by a *busy factor* in [0, 1) modelling shared-ICAP
contention (Claus et al., Section II).  Detailed controller/media dynamics
(prefetching, DMA bursts, overlap) live in :mod:`repro.icap`; prior-work
model variants live in :mod:`repro.baselines`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import InvalidInput

__all__ = [
    "ICAP_VIRTEX5_BYTES_PER_S",
    "ReconfigEstimate",
    "estimate_reconfig_time",
]

#: Theoretical ICAP throughput for Virtex-4/5/6: 32 bits @ 100 MHz.
ICAP_VIRTEX5_BYTES_PER_S: float = 400e6


@dataclass(frozen=True, slots=True)
class ReconfigEstimate:
    """Reconfiguration-time estimate for one partial bitstream."""

    bitstream_bytes: int
    effective_bytes_per_s: float  #: bottleneck throughput after busy factor
    seconds: float

    @property
    def microseconds(self) -> float:
        return self.seconds * 1e6

    @property
    def milliseconds(self) -> float:
        return self.seconds * 1e3


def estimate_reconfig_time(
    bitstream_bytes: int,
    *,
    controller_bytes_per_s: float = ICAP_VIRTEX5_BYTES_PER_S,
    media_bytes_per_s: float | None = None,
    busy_factor: float = 0.0,
) -> ReconfigEstimate:
    """Estimate PRR reconfiguration time.

    Parameters
    ----------
    bitstream_bytes:
        Partial bitstream size (eq. (18) output, or a measured size).
    controller_bytes_per_s:
        Configuration-port throughput (default: Virtex-5 ICAP peak).
    media_bytes_per_s:
        Bitstream storage read throughput; ``None`` means the media is not
        the bottleneck (bitstream preloaded on chip).
    busy_factor:
        Fraction of ICAP cycles lost to contention, in ``[0, 1)`` — the
        Claus et al. shared-resource model.  0 means a dedicated port.
    """
    if bitstream_bytes < 0:
        raise InvalidInput("bitstream_bytes must be non-negative")
    if controller_bytes_per_s <= 0:
        raise InvalidInput("controller throughput must be positive")
    if media_bytes_per_s is not None and media_bytes_per_s <= 0:
        raise InvalidInput("media throughput must be positive")
    if not 0.0 <= busy_factor < 1.0:
        raise InvalidInput("busy_factor must be in [0, 1)")

    effective_controller = controller_bytes_per_s * (1.0 - busy_factor)
    bottleneck = (
        effective_controller
        if media_bytes_per_s is None
        else min(effective_controller, media_bytes_per_s)
    )
    return ReconfigEstimate(
        bitstream_bytes=bitstream_bytes,
        effective_bytes_per_s=bottleneck,
        seconds=bitstream_bytes / bottleneck,
    )

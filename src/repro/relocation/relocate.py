"""Hardware task relocation (HTR) — the authors' ARC'13 work [6].

A PRM's partial bitstream is bound to its PRR's frame addresses.  To
migrate a running task to a *different* PRR ("HTR: on-chip hardware task
relocation for partially reconfigurable FPGAs"), the bitstream's frame
data must be re-addressed to the target region — which is only possible
when the two regions are *compatible*: same height and the same
column-kind sequence, so every frame lands on an identical resource.

:func:`compatible_regions` checks that; :func:`find_compatible_regions`
(or lazily :func:`iter_compatible_regions`) enumerates relocation
targets on a device; :func:`relocate_bitstream`
produces the re-addressed bitstream, preserving every frame's payload
(and therefore the task's logic and captured state).
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ..bitgen.generator import PartialBitstream, generate_partial_bitstream
from ..devices.fabric import Device, Region
from ..devices.frames import FrameAddress
from ..errors import InvalidInput
from .memory import ConfigMemory

__all__ = [
    "RelocationError",
    "compatible_regions",
    "find_compatible_regions",
    "iter_compatible_regions",
    "relocate_bitstream",
]


class RelocationError(InvalidInput):
    """The source bitstream cannot be relocated to the target region."""


def compatible_regions(device: Device, source: Region, target: Region) -> bool:
    """True when a bitstream for *source* can be re-addressed to *target*.

    Requires identical height, identical width and an identical
    column-kind sequence (so frame k of the burst configures the same
    resource kind at the same offset).  Row position may differ freely —
    Virtex-class rows are interchangeable for PRR columns.
    """
    if not (device.is_valid_prr(source) and device.is_valid_prr(target)):
        return False
    if source.height != target.height or source.width != target.width:
        return False
    return device.region_column_kinds(source) == device.region_column_kinds(
        target
    )


def find_compatible_regions(
    device: Device,
    source: Region,
    *,
    include_source: bool = False,
    exclude: Sequence[Region] = (),
) -> list[Region]:
    """All regions of *device* a *source* bitstream could relocate to.

    ``exclude`` is a blacklist of fabric regions (occupied PRRs, columns
    a fabric runtime retired after permanent faults): any candidate
    overlapping one is skipped.  The list is in ``(row, col)`` order;
    :func:`iter_compatible_regions` yields the same regions lazily.
    """
    return list(
        iter_compatible_regions(
            device, source, include_source=include_source, exclude=exclude
        )
    )


def iter_compatible_regions(
    device: Device,
    source: Region,
    *,
    include_source: bool = False,
    exclude: Sequence[Region] = (),
) -> Iterator[Region]:
    """Lazy :func:`find_compatible_regions`: the same regions, in ``(row, col)`` order.

    Candidate columns come from the device's
    :class:`~repro.devices.window_index.ColumnWindowIndex` — the same
    window semantics every placement query uses (column-count multiset
    match with no IOB/CLK column), amortized O(1) per query — then the
    exact column-kind *sequence* check relocation physically requires.
    Callers that want only the first few targets (the defrag planner
    takes the bottom-left one) stop early and skip the overlap checks
    of every later candidate.
    """
    if not device.is_valid_prr(source):
        return
    source_kinds = device.region_column_kinds(source)
    counts = device.region_column_counts(source)
    exclusions = tuple(exclude)
    # feasible_starts prunes to count-matching, blocked-free windows;
    # compatibility additionally needs the exact kind sequence.
    start_cols = [
        col
        for col in device.feasible_window_starts(counts)
        if device.columns[col - 1 : col - 1 + source.width] == source_kinds
    ]
    for row in range(1, device.rows - source.height + 2):
        for col in start_cols:
            candidate = Region(
                row=row, col=col, height=source.height, width=source.width
            )
            if candidate == source and not include_source:
                continue
            if any(candidate.overlaps(banned) for banned in exclusions):
                continue
            yield candidate


def relocate_bitstream(
    device: Device,
    bitstream: PartialBitstream,
    target: Region,
) -> PartialBitstream:
    """Re-address *bitstream* from its region to *target*.

    Applies the source bitstream to a scratch configuration memory, reads
    each frame back, and regenerates the bitstream for the target region
    with the captured payloads — the read-modify-write flow the HTR paper
    implements on-chip.  Raises :class:`RelocationError` on incompatible
    regions.
    """
    source = bitstream.region
    if not compatible_regions(device, source, target):
        raise RelocationError(
            f"region {target} is not relocation-compatible with {source} "
            f"on {device.name}"
        )

    memory = ConfigMemory(device)
    memory.configure(bitstream.to_bytes())

    row_offset = target.row - source.row
    col_offset = target.col - source.col

    def payload_fn(block_type: int, far_word: int) -> list[int]:
        far = FrameAddress.decode(far_word)
        source_far = FrameAddress(
            block_type=far.block_type,
            row=far.row - row_offset,
            major=far.major - col_offset,
            minor=far.minor,
            top=far.top,
        )
        return list(memory.read_frame(source_far))

    return generate_partial_bitstream(
        device,
        target,
        design_name=f"{bitstream.design_name}@relocated",
        payload_fn=payload_fn,
    )

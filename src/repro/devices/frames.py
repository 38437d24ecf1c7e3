"""Configuration frame addressing (FAR) and frame accounting.

A *frame* is the smallest unit of configuration memory ("the minimum unit
of information used to configure/read the FFs' stored values and BRAMs",
Section III.A).  The frame address register (FAR) names a frame by:

* ``block_type`` — 0 for interconnect/configuration frames (CLB, DSP, BRAM
  interconnect, IOB, CLK), 1 for BRAM *content* frames;
* ``top`` — top/bottom half select (kept 0 here: our fabric model numbers
  rows 1..R bottom-up without the split, which does not affect sizes);
* ``row`` — fabric row;
* ``major`` — column index;
* ``minor`` — frame index within the column.

This module provides UG191-style FAR pack/unpack plus per-region frame
accounting used by both the bitstream generator and sanity checks of the
analytical model.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fabric import Device, Region
from .resources import ColumnKind

__all__ = [
    "BLOCK_TYPE_CONFIG",
    "BLOCK_TYPE_BRAM_CONTENT",
    "MAJOR_LIMIT",
    "MAJOR_SHIFT",
    "MINOR_LIMIT",
    "FrameAddress",
    "frames_in_column",
    "region_frame_counts",
    "RegionFrameCounts",
    "iter_region_frame_addresses",
]

#: Block type for interconnect/configuration frames.
BLOCK_TYPE_CONFIG = 0
#: Block type for BRAM content (initialization) frames.
BLOCK_TYPE_BRAM_CONTENT = 1

# UG191-style field widths (Virtex-5): type[23:21] top[20] row[19:15]
# major[14:7] minor[6:0].
_MINOR_BITS = 7
_MAJOR_BITS = 8
_ROW_BITS = 5
_TOP_BITS = 1
_TYPE_BITS = 3

_MINOR_SHIFT = 0
_MAJOR_SHIFT = _MINOR_BITS
_ROW_SHIFT = _MAJOR_SHIFT + _MAJOR_BITS
_TOP_SHIFT = _ROW_SHIFT + _ROW_BITS
_TYPE_SHIFT = _TOP_SHIFT + _TOP_BITS

#: The layout array encoders need: the major field starts at bit
#: ``MAJOR_SHIFT``; a valid FAR has ``major < MAJOR_LIMIT`` and
#: ``minor < MINOR_LIMIT``.
MAJOR_SHIFT = _MAJOR_SHIFT
MAJOR_LIMIT = 1 << _MAJOR_BITS
MINOR_LIMIT = 1 << _MINOR_BITS


@dataclass(frozen=True, slots=True)
class FrameAddress:
    """A decoded frame address.

    ``row`` and ``major`` are 0-based in the encoded word (hardware
    convention) while the :class:`~repro.devices.fabric.Region` API is
    1-based; conversion happens at the call sites that bridge the two.
    """

    block_type: int
    row: int
    major: int
    minor: int
    top: int = 0

    def __post_init__(self) -> None:
        limits = (
            ("block_type", self.block_type, 1 << _TYPE_BITS),
            ("top", self.top, 1 << _TOP_BITS),
            ("row", self.row, 1 << _ROW_BITS),
            ("major", self.major, 1 << _MAJOR_BITS),
            ("minor", self.minor, 1 << _MINOR_BITS),
        )
        for name, value, bound in limits:
            if not 0 <= value < bound:
                raise ValueError(f"{name}={value} outside 0..{bound - 1}")

    def encode(self) -> int:
        """Pack into a 32-bit FAR word."""
        return (
            (self.block_type << _TYPE_SHIFT)
            | (self.top << _TOP_SHIFT)
            | (self.row << _ROW_SHIFT)
            | (self.major << _MAJOR_SHIFT)
            | (self.minor << _MINOR_SHIFT)
        )

    @classmethod
    def decode(cls, word: int) -> "FrameAddress":
        """Unpack a 32-bit FAR word."""
        if not 0 <= word < 1 << 32:
            raise ValueError("FAR word must fit in 32 bits")
        return cls(
            block_type=(word >> _TYPE_SHIFT) & ((1 << _TYPE_BITS) - 1),
            top=(word >> _TOP_SHIFT) & ((1 << _TOP_BITS) - 1),
            row=(word >> _ROW_SHIFT) & ((1 << _ROW_BITS) - 1),
            major=(word >> _MAJOR_SHIFT) & ((1 << _MAJOR_BITS) - 1),
            minor=(word >> _MINOR_SHIFT) & ((1 << _MINOR_BITS) - 1),
        )

    def next_minor(self) -> "FrameAddress":
        """Address of the next frame within the same column."""
        return FrameAddress(
            self.block_type, self.row, self.major, self.minor + 1, self.top
        )


def frames_in_column(device: Device, col: int, block_type: int) -> int:
    """Number of frames of *block_type* in 1-based column *col*, per row."""
    kind = device.column_kind(col)
    if block_type == BLOCK_TYPE_CONFIG:
        return device.family.config_frames(kind)
    if block_type == BLOCK_TYPE_BRAM_CONTENT:
        return device.family.df_bram if kind is ColumnKind.BRAM else 0
    raise ValueError(f"unknown block type {block_type}")


@dataclass(frozen=True, slots=True)
class RegionFrameCounts:
    """Frame totals for one PRR row band (all covered columns, one row)."""

    config_frames: int  #: NCF_CLB + NCF_DSP + NCF_BRAM (eqs. (20)-(22))
    bram_content_frames: int  #: W_BRAM * DF_BRAM (inside eq. (23))

    @property
    def total(self) -> int:
        return self.config_frames + self.bram_content_frames


def region_frame_counts(device: Device, region: Region) -> RegionFrameCounts:
    """Frame totals for one row of *region* (validated as a PRR).

    The analytical model computes the same quantities from W_CLB/W_DSP/
    W_BRAM alone; this walks the actual columns and is used to cross-check.
    """
    counts = device.region_column_counts(region)  # raises on IOB/CLK
    fam = device.family
    config = (
        counts.clb * fam.cf_clb + counts.dsp * fam.cf_dsp + counts.bram * fam.cf_bram
    )
    return RegionFrameCounts(
        config_frames=config,
        bram_content_frames=counts.bram * fam.df_bram,
    )


def iter_region_frame_addresses(
    device: Device, region: Region, block_type: int
):
    """Yield every :class:`FrameAddress` of *block_type* covered by *region*.

    Frames are ordered row-major (bottom row first), then column
    left-to-right, then minor — the order the bitstream generator writes
    them.  For ``BLOCK_TYPE_BRAM_CONTENT`` only BRAM columns contribute.
    """
    for row in region.row_span:
        for col in region.col_span:
            n_frames = frames_in_column(device, col, block_type)
            for minor in range(n_frames):
                yield FrameAddress(
                    block_type=block_type,
                    row=row - 1,
                    major=col - 1,
                    minor=minor,
                )

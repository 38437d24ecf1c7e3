"""Partial bitstream generator.

Writes a word-exact Virtex-5-style partial bitstream for a placed PRR,
following the Fig. 2 structure: initial (sync/header) words, then per PRR
row a configuration block (FAR + CMD=WCFG + FDRI burst over every covered
column's frames + one pipeline-flush frame) and — when the row covers BRAM
columns — a BRAM initialization block (block-type-1 FAR + FDRI burst over
the content frames + flush frame), then the final (CRC/desync) words.

The layout constants (IW=16, FW=14, FAR_FDRI=5 words) are the same
:class:`~repro.devices.family.DeviceFamily` fields the analytical model
uses, so for every PRR::

    len(generate_partial_bitstream(...).to_bytes())
        == core.bitstream_model.bitstream_size_bytes(geometry)

— the validation the paper could not perform against vendor documentation.
Frame payloads are deterministic pseudo-data seeded by the design name
(a real PRM's LUT masks/FF init values), so regeneration is reproducible.

Each FDRI burst is built as one ``(frames + 1) x frame_words`` numpy
``uint32`` array (the last row is the zero flush frame) in a handful of
numpy calls, whatever its size:

* the burst's encoded FARs come from the row's per-column frame counts
  as one array (:func:`_burst_fars`);
* the default payloads are a 32-bit xorshift stream per frame.  xorshift
  is linear over GF(2), so word *k* of a frame is the XOR of four
  byte-indexed rows of a constant ``(4, 256, frame_words)`` table — four
  ``take`` calls and three XORs per burst (:func:`_xorshift_frames`);
* the burst enters the configuration CRC in one
  :meth:`~repro.bitgen.crc.ConfigCrc.update_words` call.

The bitstream is held as its big-endian bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from ..devices.fabric import Device, Region
from ..devices.family import FAMILIES
from ..devices.frames import (
    BLOCK_TYPE_BRAM_CONTENT,
    BLOCK_TYPE_CONFIG,
    MAJOR_LIMIT,
    MAJOR_SHIFT,
    MINOR_LIMIT,
    FrameAddress,
    frames_in_column,
)
from ..errors import InvalidInput
from .crc import ConfigCrc
from .words import (
    BUS_WIDTH_DETECT,
    BUS_WIDTH_SYNC,
    Command,
    ConfigRegister,
    DUMMY_WORD,
    NOOP,
    Opcode,
    SYNC_WORD,
    type1_header,
    type2_header,
    words_from_bytes,
    words_to_bytes,
)

__all__ = [
    "PartialBitstream",
    "generate_partial_bitstream",
    "generate_composite_bitstream",
    "frame_payload",
]

#: Synthetic IDCODE marking our virtual devices.
VIRTUAL_IDCODE = 0x52EB2015


def _xorshift_table(frame_words: int) -> "np.ndarray":
    """The ``(4, 256, frame_words)`` table of :func:`_xorshift_frames`.

    ``table[j, v]`` is the first *frame_words* xorshift32 outputs from
    the state ``v << 8 * j``; built by stepping all 1,024 single-byte
    basis states together.
    """
    state = (
        np.arange(256, dtype=np.uint32)
        << (np.arange(4, dtype=np.uint32)[:, None] * np.uint32(8))
    ).reshape(-1)
    table = np.empty((state.size, frame_words), dtype=np.uint32)
    for step in range(frame_words):
        state ^= state << 13
        state ^= state >> 17
        state ^= state << 5
        table[:, step] = state
    return table.reshape(4, 256, frame_words)


#: Payload tables, one per frame length of the 32-bit-word families.
_XORSHIFT_TABLES = {
    frame_words: _xorshift_table(frame_words)
    for frame_words in sorted(
        {fam.frame_words for fam in FAMILIES.values() if fam.bytes_per_word == 4}
    )
}


def _xorshift_frames(seed: int, fars: "np.ndarray", frame_words: int) -> "np.ndarray":
    """Pseudo-content of many frames: row *i* is the stream keyed by ``fars[i]``.

    *fars* is a ``uint32`` array of encoded frame addresses.

    A 32-bit xorshift stream keyed by (seed, FAR) — stable across runs and
    platforms, which keeps bitstream regeneration reproducible.  Each
    output word is a linear function of the start state, so it is the
    XOR of the table rows picked by the state's four bytes.  A frame
    length no catalog family uses gets its table built for the call.
    """
    state = (
        np.uint32(seed & 0xFFFFFFFF)
        ^ (fars * np.uint32(0x9E3779B1))
        ^ np.uint32(0xDEADBEEF)
    )
    state[state == 0] = 1
    table = _XORSHIFT_TABLES.get(frame_words)
    if table is None:
        table = _xorshift_table(frame_words)
    out = table[0].take(state & 0xFF, axis=0)
    out ^= table[1].take((state >> 8) & 0xFF, axis=0)
    out ^= table[2].take((state >> 16) & 0xFF, axis=0)
    out ^= table[3].take(state >> 24, axis=0)
    return out


def frame_payload(seed: int, far_word: int, frame_words: int) -> list[int]:
    """Deterministic pseudo-content for one frame (see :func:`_xorshift_frames`)."""
    fars = np.array([far_word & 0xFFFFFFFF], dtype=np.uint32)
    return _xorshift_frames(seed, fars, frame_words)[0].tolist()


@dataclass(frozen=True)
class PartialBitstream:
    """A generated partial bitstream, held as its big-endian bytes."""

    design_name: str
    device_name: str
    region: Region
    data: bytes = field(repr=False)

    @property
    def words(self) -> tuple[int, ...]:
        """The 32-bit configuration words, decoded from ``data``."""
        return tuple(words_from_bytes(self.data).tolist())

    def to_bytes(self) -> bytes:
        """Big-endian byte serialization (SelectMAP/ICAP word order)."""
        return self.data

    @property
    def size_bytes(self) -> int:
        return len(self.data)

    def __len__(self) -> int:
        return len(self.data) // 4


def _seed(design_name: str) -> int:
    value = 0
    for ch in design_name:
        value = (value * 131 + ord(ch)) & 0xFFFFFFFF
    return value or 0x5EED


def _header_words(crc: ConfigCrc) -> list[int]:
    """The IW=16 initial words: sync + IDCODE + RCRC + COR."""
    words = [
        DUMMY_WORD,
        BUS_WIDTH_SYNC,
        BUS_WIDTH_DETECT,
        DUMMY_WORD,
        SYNC_WORD,
        NOOP,
    ]
    words.append(type1_header(Opcode.WRITE, ConfigRegister.IDCODE, 1))
    words.append(VIRTUAL_IDCODE)
    crc.update(ConfigRegister.IDCODE, VIRTUAL_IDCODE)
    words.append(type1_header(Opcode.WRITE, ConfigRegister.CMD, 1))
    words.append(int(Command.RCRC))
    crc.reset()
    words.append(NOOP)
    words.append(NOOP)
    words.append(type1_header(Opcode.WRITE, ConfigRegister.COR, 1))
    cor_value = 0x00003FE5
    words.append(cor_value)
    crc.update(ConfigRegister.COR, cor_value)
    words.append(NOOP)
    words.append(NOOP)
    assert len(words) == 16
    return words


def _trailer_words(crc: ConfigCrc) -> list[int]:
    """The FW=14 final words: GRESTORE, DGHIGH, CRC check, DESYNC."""
    words = [type1_header(Opcode.WRITE, ConfigRegister.CMD, 1)]
    words.append(int(Command.GRESTORE))
    crc.update(ConfigRegister.CMD, int(Command.GRESTORE))
    words.append(NOOP)
    words.append(type1_header(Opcode.WRITE, ConfigRegister.CMD, 1))
    words.append(int(Command.DGHIGH))
    crc.update(ConfigRegister.CMD, int(Command.DGHIGH))
    words.append(NOOP)
    words.append(type1_header(Opcode.WRITE, ConfigRegister.CRC, 1))
    words.append(crc.value)
    words.append(type1_header(Opcode.WRITE, ConfigRegister.CMD, 1))
    words.append(int(Command.DESYNC))
    words.extend([NOOP, NOOP, NOOP, NOOP])
    assert len(words) == 14
    return words


#: Maps a (block_type, encoded FAR) to the frame's payload words.
PayloadFn = Callable[[int, int], Sequence[int]]


def _burst_fars(
    device: Device, region: Region, row: int, block_type: int
) -> "np.ndarray":
    """Encoded FARs of one row's data frames, in burst order.

    Minors within a column, then the next covered column to the right;
    columns without frames of *block_type* contribute none.  Built from
    the per-column frame counts as one array.
    """
    majors: list[int] = []
    counts: list[int] = []
    for col in region.col_span:
        n_frames = frames_in_column(device, col, block_type)
        if n_frames:
            majors.append(col - 1)
            counts.append(n_frames)
    if not counts:
        return np.empty(0, dtype=np.uint32)
    # Range-check once: encoding the last frame of the first column that
    # does not fit (else of the first column) raises what checking each
    # column's last frame in turn raised.
    major, n_frames = next(
        (
            (major, n_frames)
            for major, n_frames in zip(majors, counts)
            if major >= MAJOR_LIMIT or n_frames > MINOR_LIMIT
        ),
        (majors[0], counts[0]),
    )
    last = FrameAddress(
        block_type=block_type, row=row - 1, major=major, minor=n_frames - 1
    ).encode()
    row_far = last - (major << MAJOR_SHIFT) - (n_frames - 1)
    # Frame i of the burst is its column's minor-0 FAR plus i less the
    # frame total of the columns to its left.
    starts = [
        (row_far | major << MAJOR_SHIFT) - left
        for major, left in zip(majors, accumulate(counts, initial=0))
    ]
    return (np.repeat(starts, counts) + np.arange(sum(counts))).astype(np.uint32)


def _row_block(
    device: Device,
    region: Region,
    row: int,
    block_type: int,
    payload_fn: PayloadFn | None,
    seed: int,
    crc: ConfigCrc,
) -> list[bytes]:
    """One per-row block: 5-word FAR/FDRI preamble + data + flush frame.

    For ``BLOCK_TYPE_CONFIG`` every covered column contributes its
    configuration frames; for ``BLOCK_TYPE_BRAM_CONTENT`` only BRAM
    columns contribute (their 128 initialization frames each).  Frame
    payloads come from *payload_fn*, or from the xorshift stream of
    *seed* when it is ``None``.
    """
    fam = device.family
    fars = _burst_fars(device, region, row, block_type)
    data_frames = fars.size
    if block_type == BLOCK_TYPE_BRAM_CONTENT and data_frames == 0:
        return []

    start_far = FrameAddress(
        block_type=block_type, row=row - 1, major=region.col - 1, minor=0
    ).encode()

    burst_words = (data_frames + 1) * fam.frame_words  # +1 = flush frame
    words = [type1_header(Opcode.WRITE, ConfigRegister.FAR, 1), start_far]
    crc.update(ConfigRegister.FAR, start_far)
    words.append(type1_header(Opcode.WRITE, ConfigRegister.CMD, 1))
    words.append(int(Command.WCFG))
    crc.update(ConfigRegister.CMD, int(Command.WCFG))
    words.append(type2_header(Opcode.WRITE, burst_words))
    assert len(words) == fam.far_fdri_words, "preamble must equal FAR_FDRI"

    # The last row stays zero: the pipeline flush frame, the "+1" of
    # eqs. (19)/(23).
    burst = np.zeros((data_frames + 1, fam.frame_words), dtype=np.uint32)
    if payload_fn is None:
        burst[:data_frames] = _xorshift_frames(seed, fars, fam.frame_words)
    else:
        for index, far in enumerate(fars.tolist()):
            payload = payload_fn(block_type, far)
            if len(payload) != fam.frame_words:
                raise InvalidInput(
                    f"payload for FAR 0x{far:08X} has {len(payload)} words, "
                    f"expected {fam.frame_words}"
                )
            burst[index] = payload
    crc.update_words(ConfigRegister.FDRI, burst)
    return [words_to_bytes(words), words_to_bytes(burst)]


def _assemble(
    device: Device,
    regions: "list[Region] | tuple[Region, ...]",
    design_name: str,
    payload_fn: PayloadFn | None,
) -> PartialBitstream:
    """Header, then each region's per-row config/BRAM blocks, then trailer."""
    seed = _seed(design_name)
    crc = ConfigCrc()
    chunks = [words_to_bytes(_header_words(crc))]
    for region in regions:
        for row in region.row_span:
            for block_type in (BLOCK_TYPE_CONFIG, BLOCK_TYPE_BRAM_CONTENT):
                chunks.extend(
                    _row_block(
                        device, region, row, block_type, payload_fn, seed, crc
                    )
                )
    chunks.append(words_to_bytes(_trailer_words(crc)))
    return PartialBitstream(
        design_name=design_name,
        device_name=device.name,
        region=regions[0],
        data=b"".join(chunks),
    )


def generate_partial_bitstream(
    device: Device,
    region: Region,
    *,
    design_name: str = "prm",
    payload_fn: PayloadFn | None = None,
) -> PartialBitstream:
    """Generate the partial bitstream configuring *region* on *device*.

    ``payload_fn(block_type, encoded_far) -> words`` supplies each frame's
    content; the default derives deterministic pseudo-content from
    *design_name* (a PRM's LUT masks / FF init values).  Relocation and
    context restore pass captured frames instead
    (:mod:`repro.relocation`).
    """
    if device.family.bytes_per_word != 4:
        raise InvalidInput(
            "the generator emits 32-bit configuration words; family "
            f"{device.family.name!r} uses {device.family.bytes_per_word}-byte "
            "words"
        )
    if not device.is_valid_prr(region):
        raise InvalidInput(f"{region} is not a valid PRR on {device.name}")
    if device.family.initial_words != 16 or device.family.final_words != 14:
        raise InvalidInput(
            "generator header/trailer layouts are built for IW=16/FW=14"
        )

    return _assemble(device, (region,), design_name, payload_fn)


def generate_composite_bitstream(
    device: Device,
    regions: "list[Region] | tuple[Region, ...]",
    *,
    design_name: str = "prm",
    payload_fn: PayloadFn | None = None,
) -> PartialBitstream:
    """Generate one partial bitstream configuring several rectangles.

    Used for non-rectangular (L/T-shaped) PRRs: one header and trailer,
    then the per-row configuration/BRAM blocks of each rectangle in turn —
    which is exactly the structure the composite bitstream model
    (:func:`repro.core.shapes.composite_bitstream_bytes`) charges for.
    The returned object's ``region`` field holds the first rectangle;
    ``words`` covers all of them.
    """
    if not regions:
        raise InvalidInput("at least one region is required")
    if device.family.bytes_per_word != 4:
        raise InvalidInput("the generator emits 32-bit configuration words")
    for i, a in enumerate(regions):
        if not device.is_valid_prr(a):
            raise InvalidInput(f"{a} is not a valid PRR on {device.name}")
        for b in list(regions)[i + 1 :]:
            if a.overlaps(b):
                raise InvalidInput(f"regions {a} and {b} overlap")

    return _assemble(device, regions, design_name, payload_fn)

"""Bitstream parser / disassembler.

Walks a partial bitstream packet by packet — sync detection, packet
decoding, register tracking, CRC re-computation — and reconstructs its
structure: per-row configuration and BRAM-initialization blocks with
their FARs and frame counts.  The words are one ``np.frombuffer(data,
">u4")`` view; each FDRI burst is skipped as a slice and folded into the
CRC with one :meth:`~repro.bitgen.crc.ConfigCrc.update_words` call, so
only packet headers and register writes are read one word at a time.
``section_bytes()`` attributes every byte to the Fig. 2 sections using
the exact keys of
:meth:`repro.core.bitstream_model.BitstreamEstimate.breakdown`, which is
how the model-vs-measured validation is performed term by term.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..devices.frames import BLOCK_TYPE_BRAM_CONTENT, FrameAddress
from .crc import ConfigCrc
from .words import (
    BitstreamParseError,
    Command,
    ConfigRegister,
    NOOP,
    Opcode,
    SYNC_WORD,
    decode_header,
    words_from_bytes,
)

__all__ = ["BitstreamParseError", "FdriBlock", "ParsedBitstream", "parse_bitstream"]


@dataclass(frozen=True, slots=True)
class FdriBlock:
    """One FDRI burst: the FAR it started at and its word count."""

    far: FrameAddress
    data_words: int  #: including the flush frame
    preamble_words: int  #: FAR/CMD/FDRI-header words before the data

    @property
    def total_words(self) -> int:
        return self.preamble_words + self.data_words

    @property
    def is_bram_content(self) -> bool:
        return self.far.block_type == BLOCK_TYPE_BRAM_CONTENT


@dataclass
class ParsedBitstream:
    """Structural decomposition of a parsed partial bitstream."""

    total_words: int
    initial_words: int
    final_words: int
    blocks: list[FdriBlock] = field(default_factory=list)
    commands: list[Command] = field(default_factory=list)
    crc_checked: bool = False
    crc_ok: bool = False

    @property
    def size_bytes(self) -> int:
        return self.total_words * 4

    @property
    def config_blocks(self) -> list[FdriBlock]:
        return [b for b in self.blocks if not b.is_bram_content]

    @property
    def bram_blocks(self) -> list[FdriBlock]:
        return [b for b in self.blocks if b.is_bram_content]

    @property
    def rows(self) -> int:
        """PRR rows = number of configuration (block-type-0) blocks."""
        return len(self.config_blocks)

    def section_bytes(self) -> dict[str, int]:
        """Byte attribution matching ``BitstreamEstimate.breakdown()``."""
        config = sum(b.total_words for b in self.config_blocks) * 4
        bram = sum(b.total_words for b in self.bram_blocks) * 4
        return {
            "initial": self.initial_words * 4,
            "configuration": config,
            "bram_initialization": bram,
            "final": self.final_words * 4,
            "total": self.size_bytes,
        }


def parse_bitstream(data: bytes) -> ParsedBitstream:
    """Parse a partial bitstream produced by the generator.

    Raises :class:`BitstreamParseError` on structural violations (missing
    sync word, truncated bursts, FDRI data without a preceding FAR,
    unknown packets or register addresses).  The configuration CRC is
    re-computed and compared against the CRC register write in the
    trailer.
    """
    try:
        return _parse(data)
    except BitstreamParseError:
        raise
    except ValueError as exc:
        # Any decode-level ValueError (unknown register address, malformed
        # FAR, bad command code) is a corruption symptom.
        raise BitstreamParseError(str(exc)) from exc


def _parse(data: bytes) -> ParsedBitstream:
    words = words_from_bytes(data)
    sync_hits = np.flatnonzero(words == SYNC_WORD)
    if not sync_hits.size:
        raise BitstreamParseError("no sync word found")
    sync_index = int(sync_hits[0])

    crc = ConfigCrc()
    blocks: list[FdriBlock] = []
    commands: list[Command] = []
    crc_checked = False
    crc_ok = False
    desynced_at: int | None = None

    current_far: FrameAddress | None = None
    preamble_count = 0
    first_block_start: int | None = None

    index = sync_index + 1
    while index < len(words):
        word = int(words[index])
        if word == NOOP:
            index += 1
            continue
        try:
            header = decode_header(word)
        except ValueError:
            raise BitstreamParseError(
                f"unexpected word 0x{word:08X} at offset {index}"
            ) from None
        if header.packet_type == 2:
            raise BitstreamParseError(
                f"type-2 packet at offset {index} without owning type-1 FDRI"
            )
        if header.opcode is not Opcode.WRITE:
            index += 1 + header.word_count
            continue

        register = header.register
        payload_start = index + 1
        payload_end = payload_start + header.word_count

        if register is ConfigRegister.FDRI:
            raise BitstreamParseError(
                "type-1 FDRI writes are not used by this format"
            )

        if payload_end > len(words):
            raise BitstreamParseError("truncated packet payload")

        if register is ConfigRegister.FAR:
            if header.word_count != 1:
                raise BitstreamParseError("FAR write must carry one word")
            far_word = int(words[payload_start])
            current_far = FrameAddress.decode(far_word)
            crc.update(ConfigRegister.FAR, far_word)
            if first_block_start is None:
                first_block_start = index
            preamble_count = 2
            index = payload_end
            # expect CMD WCFG then the type-2 FDRI burst
            index = _skip_noops(words, index)
            index, wcfg = _read_cmd(words, index, crc)
            if wcfg is not Command.WCFG:
                raise BitstreamParseError(
                    f"expected WCFG after FAR, got {wcfg.name}"
                )
            commands.append(wcfg)
            preamble_count += 2
            index = _skip_noops(words, index)
            t2 = decode_header(int(words[index]))
            if t2.packet_type != 2 or t2.opcode is not Opcode.WRITE:
                raise BitstreamParseError("expected type-2 FDRI burst after WCFG")
            preamble_count += 1
            burst_start = index + 1
            burst_end = burst_start + t2.word_count
            if burst_end > len(words):
                raise BitstreamParseError("truncated FDRI burst")
            crc.update_words(ConfigRegister.FDRI, words[burst_start:burst_end])
            blocks.append(
                FdriBlock(
                    far=current_far,
                    data_words=t2.word_count,
                    preamble_words=preamble_count,
                )
            )
            index = burst_end
            continue

        if register is ConfigRegister.CMD:
            index, command = _read_cmd(words, index, crc)
            commands.append(command)
            if command is Command.DESYNC:
                desynced_at = index
                break
            continue

        if register is ConfigRegister.CRC:
            if header.word_count != 1:
                raise BitstreamParseError("CRC write must carry one word")
            crc_checked = True
            crc_ok = int(words[payload_start]) == crc.value
            index = payload_end
            continue

        # Other registers (IDCODE, COR, ...): fold into CRC and skip.
        crc.update_words(register, words[payload_start:payload_end])
        index = payload_end

    if desynced_at is None:
        raise BitstreamParseError("bitstream never desynchronized")
    if not blocks:
        raise BitstreamParseError("bitstream contains no FDRI blocks")
    assert first_block_start is not None

    # Everything before the first FAR write is "initial"; everything from
    # the first trailer packet after the last burst is "final".
    last_burst_end = _last_burst_end(blocks, first_block_start)
    return ParsedBitstream(
        total_words=len(words),
        initial_words=first_block_start,
        final_words=len(words) - last_burst_end,
        blocks=blocks,
        commands=commands,
        crc_checked=crc_checked,
        crc_ok=crc_ok,
    )


def _skip_noops(words: "np.ndarray", index: int) -> int:
    while index < len(words) and words[index] == NOOP:
        index += 1
    if index >= len(words):
        raise BitstreamParseError("ran off the end of the bitstream")
    return index


def _read_cmd(
    words: "np.ndarray", index: int, crc: ConfigCrc
) -> tuple[int, Command]:
    header = decode_header(int(words[index]))
    if (
        header.packet_type != 1
        or header.register is not ConfigRegister.CMD
        or header.word_count != 1
    ):
        raise BitstreamParseError(f"expected CMD write at offset {index}")
    if index + 1 >= len(words):
        raise BitstreamParseError("truncated CMD write")
    value = int(words[index + 1])
    try:
        command = Command(value)
    except ValueError:
        raise BitstreamParseError(f"unknown command code {value}") from None
    if command is Command.RCRC:
        crc.reset()
    else:
        crc.update(ConfigRegister.CMD, value)
    return index + 2, command


def _last_burst_end(blocks: list[FdriBlock], first_block_start: int) -> int:
    total = first_block_start
    for block in blocks:
        total += block.total_words
    return total

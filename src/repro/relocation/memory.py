"""Configuration memory (CM) model.

"A frame is the minimum unit of information used to configure/read the
FFs' stored values and BRAMs in the device's configuration memory (CM)"
(Section III.A).  :class:`ConfigMemory` holds the device's frames,
applies partial bitstreams (the ICAP write path) and reads frames back
(the FDRO readback path the authors' context save/restore work [5] uses).

Frame ordering inside an FDRI burst follows the hardware's auto-
increment: minors within a column, then the next column to the right —
exactly the order the generator writes, reproduced here by
:func:`iter_burst_fars`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..bitgen.parser import BitstreamParseError
from ..bitgen.words import (
    Command,
    ConfigRegister,
    NOOP,
    Opcode,
    SYNC_WORD,
    decode_header,
    words_from_bytes,
)
from ..devices.fabric import Device, Region
from ..devices.frames import (
    BLOCK_TYPE_BRAM_CONTENT,
    BLOCK_TYPE_CONFIG,
    FrameAddress,
    frames_in_column,
)

__all__ = ["ConfigMemory", "iter_burst_fars"]


def iter_burst_fars(
    device: Device, start: FrameAddress, n_frames: int
) -> Iterator[FrameAddress]:
    """FARs of an *n_frames* burst starting at *start*, hardware order.

    Walks minors within the start column, then subsequent columns left to
    right in the same row, honouring each column's frame count for the
    burst's block type.
    """
    produced = 0
    major = start.major
    minor = start.minor
    while produced < n_frames:
        if major >= device.num_columns:
            raise ValueError(
                f"burst of {n_frames} frames from {start} runs off the fabric"
            )
        column_frames = frames_in_column(device, major + 1, start.block_type)
        if minor >= column_frames:
            major += 1
            minor = 0
            continue
        yield FrameAddress(
            block_type=start.block_type,
            row=start.row,
            major=major,
            minor=minor,
        )
        produced += 1
        minor += 1


@dataclass
class ConfigMemory:
    """Frame store for one device, keyed by encoded FAR."""

    device: Device
    frames: dict[int, tuple[int, ...]] = field(default_factory=dict)
    configure_count: int = 0

    def write_frame(self, far: FrameAddress, words: tuple[int, ...]) -> None:
        if len(words) != self.device.family.frame_words:
            raise ValueError(
                f"frame at {far} must be {self.device.family.frame_words} words"
            )
        self.frames[far.encode()] = tuple(words)

    def read_frame(self, far: FrameAddress) -> tuple[int, ...]:
        """FDRO readback of one frame (zeros when never configured)."""
        return self.frames.get(
            far.encode(), (0,) * self.device.family.frame_words
        )

    def configure(self, bitstream_bytes: bytes) -> None:
        """Apply a partial bitstream: the ICAP write path.

        Walks the packet stream the same way the device would — FAR write,
        CMD=WCFG, type-2 FDRI burst — and commits each data frame to the
        addressed location.  The trailing flush frame of each burst is
        pipeline padding and is not committed.
        """
        words = words_from_bytes(bitstream_bytes).tolist()
        try:
            index = words.index(SYNC_WORD) + 1
        except ValueError:
            raise BitstreamParseError("no sync word") from None

        frame_words = self.device.family.frame_words
        current_far: FrameAddress | None = None
        while index < len(words):
            word = words[index]
            if word == NOOP:
                index += 1
                continue
            header = decode_header(word)
            if header.packet_type == 2:
                if current_far is None:
                    raise BitstreamParseError("FDRI burst without FAR")
                burst = words[index + 1 : index + 1 + header.word_count]
                if len(burst) != header.word_count:
                    raise BitstreamParseError("truncated burst")
                n_frames = header.word_count // frame_words
                data_frames = n_frames - 1  # last frame is the flush
                fars = list(
                    iter_burst_fars(self.device, current_far, data_frames)
                )
                for frame_index, far in enumerate(fars):
                    offset = frame_index * frame_words
                    self.write_frame(
                        far, tuple(burst[offset : offset + frame_words])
                    )
                current_far = None
                index += 1 + header.word_count
                continue
            payload = words[index + 1 : index + 1 + header.word_count]
            if header.opcode is Opcode.WRITE and header.register is ConfigRegister.FAR:
                current_far = FrameAddress.decode(payload[0])
            if (
                header.opcode is Opcode.WRITE
                and header.register is ConfigRegister.CMD
                and payload
                and payload[0] == Command.DESYNC
            ):
                break
            index += 1 + header.word_count
        self.configure_count += 1

    def region_frames(
        self, region: Region, block_type: int
    ) -> list[tuple[FrameAddress, tuple[int, ...]]]:
        """Readback of every *block_type* frame covered by *region*."""
        out = []
        for row in region.row_span:
            for col in region.col_span:
                for minor in range(
                    frames_in_column(self.device, col, block_type)
                ):
                    far = FrameAddress(
                        block_type=block_type,
                        row=row - 1,
                        major=col - 1,
                        minor=minor,
                    )
                    out.append((far, self.read_frame(far)))
        return out

    def region_is_configured(self, region: Region) -> bool:
        """True when every config frame of *region* has been written."""
        return all(
            far.encode() in self.frames
            for far, _ in self.region_frames(region, BLOCK_TYPE_CONFIG)
        )

    def clear_region(self, region: Region) -> None:
        """Blanking (the AGHIGH/shutdown path): drop the region's frames."""
        for block_type in (BLOCK_TYPE_CONFIG, BLOCK_TYPE_BRAM_CONTENT):
            for far, _ in self.region_frames(region, block_type):
                self.frames.pop(far.encode(), None)

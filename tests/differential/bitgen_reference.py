"""Per-word reference implementation of the bitstream writer and parser.

Test-only oracle for :mod:`repro.bitgen`: the generator, parser,
``frame_payload`` and configuration-memory frame walk exactly as they
were before bursts were built and parsed as numpy arrays — one Python
``int`` and one :meth:`ConfigCrc.update` call per configuration word.
Two array kernels the library replaced by cheaper ones are kept here
too: the xorshift step loop that advanced a whole burst's payloads one
frame word at a time (:func:`xorshift_frames_steps`) and the per-column
FAR builder (:func:`burst_fars_per_column`).  The differential suite and
``benchmarks/test_perf_bitgen.py`` compare the library against them;
nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import numpy as np

from repro.bitgen.crc import ConfigCrc
from repro.bitgen.generator import VIRTUAL_IDCODE
from repro.bitgen.parser import BitstreamParseError, FdriBlock, ParsedBitstream
from repro.bitgen.words import (
    BUS_WIDTH_DETECT,
    BUS_WIDTH_SYNC,
    Command,
    ConfigRegister,
    DUMMY_WORD,
    NOOP,
    Opcode,
    SYNC_WORD,
    decode_header,
    type1_header,
    type2_header,
)
from repro.devices.frames import (
    BLOCK_TYPE_BRAM_CONTENT,
    BLOCK_TYPE_CONFIG,
    FrameAddress,
    frames_in_column,
)
from repro.relocation.memory import iter_burst_fars

# --- generator --------------------------------------------------------------


def _seed(design_name):
    value = 0
    for ch in design_name:
        value = (value * 131 + ord(ch)) & 0xFFFFFFFF
    return value or 0x5EED


def frame_payload(seed, far_word, frame_words):
    state = (seed ^ (far_word * 0x9E3779B1) ^ 0xDEADBEEF) & 0xFFFFFFFF
    if state == 0:
        state = 0x1
    words = []
    for _ in range(frame_words):
        state ^= (state << 13) & 0xFFFFFFFF
        state ^= state >> 17
        state ^= (state << 5) & 0xFFFFFFFF
        words.append(state)
    return words


def xorshift_frames_steps(seed, fars, frame_words):
    """Payloads of many frames (row *i* keyed by ``fars[i]``), one step per word.

    All frames' xorshift states advance together: *frame_words* steps of
    six numpy calls each.
    """
    state = (
        np.uint32(seed & 0xFFFFFFFF)
        ^ (fars * np.uint32(0x9E3779B1))
        ^ np.uint32(0xDEADBEEF)
    )
    state[state == 0] = 1
    out = np.empty((state.size, frame_words), dtype=np.uint32)
    for step in range(frame_words):
        state ^= state << 13
        state ^= state >> 17
        state ^= state << 5
        out[:, step] = state
    return out


def burst_fars_per_column(device, region, row, block_type):
    """Encoded FARs of one row's data frames: a FrameAddress and an arange per column."""
    runs = []
    for col in region.col_span:
        n_frames = frames_in_column(device, col, block_type)
        if n_frames:
            # Encoding the last minor lets FrameAddress range-check the run.
            last = FrameAddress(
                block_type=block_type, row=row - 1, major=col - 1, minor=n_frames - 1
            ).encode()
            runs.append(np.arange(last - n_frames + 1, last + 1, dtype=np.uint32))
    return np.concatenate(runs) if runs else np.empty(0, dtype=np.uint32)


def words_to_bytes(words):
    out = bytearray()
    for word in words:
        out.extend(word.to_bytes(4, "big"))
    return bytes(out)


def _header_words(crc):
    words = [DUMMY_WORD, BUS_WIDTH_SYNC, BUS_WIDTH_DETECT, DUMMY_WORD, SYNC_WORD, NOOP]
    words.append(type1_header(Opcode.WRITE, ConfigRegister.IDCODE, 1))
    words.append(VIRTUAL_IDCODE)
    crc.update(ConfigRegister.IDCODE, VIRTUAL_IDCODE)
    words.append(type1_header(Opcode.WRITE, ConfigRegister.CMD, 1))
    words.append(int(Command.RCRC))
    crc.reset()
    words.extend([NOOP, NOOP])
    words.append(type1_header(Opcode.WRITE, ConfigRegister.COR, 1))
    words.append(0x00003FE5)
    crc.update(ConfigRegister.COR, 0x00003FE5)
    words.extend([NOOP, NOOP])
    return words


def _trailer_words(crc):
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
    return words


def _row_block(device, region, row, block_type, payload_fn, crc):
    fam = device.family
    data_frames = sum(
        frames_in_column(device, col, block_type) for col in region.col_span
    )
    if block_type == BLOCK_TYPE_BRAM_CONTENT and data_frames == 0:
        return []
    start_far = FrameAddress(
        block_type=block_type, row=row - 1, major=region.col - 1, minor=0
    ).encode()
    burst_words = (data_frames + 1) * fam.frame_words
    words = [type1_header(Opcode.WRITE, ConfigRegister.FAR, 1), start_far]
    crc.update(ConfigRegister.FAR, start_far)
    words.append(type1_header(Opcode.WRITE, ConfigRegister.CMD, 1))
    words.append(int(Command.WCFG))
    crc.update(ConfigRegister.CMD, int(Command.WCFG))
    words.append(type2_header(Opcode.WRITE, burst_words))
    for col in region.col_span:
        for minor in range(frames_in_column(device, col, block_type)):
            far = FrameAddress(
                block_type=block_type, row=row - 1, major=col - 1, minor=minor
            ).encode()
            payload = payload_fn(block_type, far)
            if len(payload) != fam.frame_words:
                raise ValueError(
                    f"payload for FAR 0x{far:08X} has {len(payload)} words, "
                    f"expected {fam.frame_words}"
                )
            for word in payload:
                words.append(word)
                crc.update(ConfigRegister.FDRI, word)
    for _ in range(fam.frame_words):
        words.append(0)
        crc.update(ConfigRegister.FDRI, 0)
    return words


def generate_words(device, regions, *, design_name="prm", payload_fn=None):
    """Words of the bitstream configuring *regions* (one or several)."""
    if payload_fn is None:
        seed = _seed(design_name)
        frame_words = device.family.frame_words

        def payload_fn(block_type, far):
            return frame_payload(seed, far, frame_words)

    crc = ConfigCrc()
    words = _header_words(crc)
    for region in regions:
        for row in region.row_span:
            for block_type in (BLOCK_TYPE_CONFIG, BLOCK_TYPE_BRAM_CONTENT):
                words.extend(
                    _row_block(device, region, row, block_type, payload_fn, crc)
                )
    words.extend(_trailer_words(crc))
    return words


def generate_bytes(device, regions, **kwargs):
    return words_to_bytes(generate_words(device, regions, **kwargs))


# --- parser -----------------------------------------------------------------


def _words_from_bytes(data):
    if len(data) % 4:
        raise BitstreamParseError(
            f"bitstream length {len(data)} is not 32-bit word aligned"
        )
    return [
        int.from_bytes(data[offset : offset + 4], "big")
        for offset in range(0, len(data), 4)
    ]


def parse_bitstream(data):
    try:
        return _parse(data)
    except BitstreamParseError:
        raise
    except ValueError as exc:
        raise BitstreamParseError(str(exc)) from exc


def _parse(data):
    words = _words_from_bytes(data)
    try:
        sync_index = words.index(SYNC_WORD)
    except ValueError:
        raise BitstreamParseError("no sync word found") from None

    crc = ConfigCrc()
    blocks = []
    commands = []
    crc_checked = False
    crc_ok = False
    desynced_at = None
    first_block_start = None

    index = sync_index + 1
    while index < len(words):
        word = words[index]
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
            current_far = FrameAddress.decode(words[payload_start])
            crc.update(ConfigRegister.FAR, words[payload_start])
            if first_block_start is None:
                first_block_start = index
            preamble_count = 2
            index = _skip_noops(words, payload_end)
            index, wcfg = _read_cmd(words, index, crc)
            if wcfg is not Command.WCFG:
                raise BitstreamParseError(
                    f"expected WCFG after FAR, got {wcfg.name}"
                )
            commands.append(wcfg)
            preamble_count += 2
            index = _skip_noops(words, index)
            t2 = decode_header(words[index])
            if t2.packet_type != 2 or t2.opcode is not Opcode.WRITE:
                raise BitstreamParseError("expected type-2 FDRI burst after WCFG")
            preamble_count += 1
            burst_start = index + 1
            burst_end = burst_start + t2.word_count
            if burst_end > len(words):
                raise BitstreamParseError("truncated FDRI burst")
            for data_word in words[burst_start:burst_end]:
                crc.update(ConfigRegister.FDRI, data_word)
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
            crc_ok = words[payload_start] == crc.value
            index = payload_end
            continue

        for payload_word in words[payload_start:payload_end]:
            crc.update(register, payload_word)
        index = payload_end

    if desynced_at is None:
        raise BitstreamParseError("bitstream never desynchronized")
    if not blocks:
        raise BitstreamParseError("bitstream contains no FDRI blocks")

    last_burst_end = first_block_start + sum(b.total_words for b in blocks)
    return ParsedBitstream(
        total_words=len(words),
        initial_words=first_block_start,
        final_words=len(words) - last_burst_end,
        blocks=blocks,
        commands=commands,
        crc_checked=crc_checked,
        crc_ok=crc_ok,
    )


def _skip_noops(words, index):
    while index < len(words) and words[index] == NOOP:
        index += 1
    if index >= len(words):
        raise BitstreamParseError("ran off the end of the bitstream")
    return index


def _read_cmd(words, index, crc):
    header = decode_header(words[index])
    if (
        header.packet_type != 1
        or header.register is not ConfigRegister.CMD
        or header.word_count != 1
    ):
        raise BitstreamParseError(f"expected CMD write at offset {index}")
    if index + 1 >= len(words):
        raise BitstreamParseError("truncated CMD write")
    value = words[index + 1]
    try:
        command = Command(value)
    except ValueError:
        raise BitstreamParseError(f"unknown command code {value}") from None
    if command is Command.RCRC:
        crc.reset()
    else:
        crc.update(ConfigRegister.CMD, value)
    return index + 2, command


def payload_crc(data):
    """Verify-after-write CRC: every word, zero-padded, as an FDRI write."""
    crc = ConfigCrc()
    for offset in range(0, len(data), 4):
        word = int.from_bytes(data[offset : offset + 4].ljust(4, b"\0"), "big")
        crc.update(ConfigRegister.FDRI, word)
    return crc.value


# --- configuration memory and relocation -------------------------------------


def configure_frames(device, data):
    """Frames a bitstream commits, keyed by encoded FAR (ICAP write path)."""
    words = [
        int.from_bytes(data[i : i + 4], "big") for i in range(0, len(data), 4)
    ]
    index = words.index(SYNC_WORD) + 1
    frame_words = device.family.frame_words
    frames = {}
    current_far = None
    while index < len(words):
        word = words[index]
        if word == NOOP:
            index += 1
            continue
        header = decode_header(word)
        if header.packet_type == 2:
            burst = words[index + 1 : index + 1 + header.word_count]
            data_frames = header.word_count // frame_words - 1
            for i, far in enumerate(iter_burst_fars(device, current_far, data_frames)):
                offset = i * frame_words
                frames[far.encode()] = tuple(burst[offset : offset + frame_words])
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
    return frames


def relocate_bytes(device, data, source, target, design_name):
    """Bytes of *data* (configuring *source*) re-addressed to *target*."""
    frames = configure_frames(device, data)
    row_offset = target.row - source.row
    col_offset = target.col - source.col
    zeros = (0,) * device.family.frame_words

    def payload_fn(block_type, far_word):
        far = FrameAddress.decode(far_word)
        source_far = FrameAddress(
            block_type=far.block_type,
            row=far.row - row_offset,
            major=far.major - col_offset,
            minor=far.minor,
            top=far.top,
        )
        return list(frames.get(source_far.encode(), zeros))

    return generate_bytes(
        device,
        (target,),
        design_name=f"{design_name}@relocated",
        payload_fn=payload_fn,
    )

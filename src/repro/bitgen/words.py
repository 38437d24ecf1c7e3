"""Bitstream word encodings: packets, registers and commands.

Follows the Virtex-5 configuration packet format (UG191 ch. 6):

* **Type-1 packet header** — ``[31:29]=001``, ``[28:27]`` opcode,
  ``[26:13]`` register address, ``[10:0]`` word count;
* **Type-2 packet header** — ``[31:29]=010``, ``[28:27]`` opcode,
  ``[26:0]`` word count (used for the large FDRI data bursts);
* the 0xAA995566 sync word, bus-width detection words and NOOPs.

One deliberate simplification, applied identically in the generator and
the parser: the zero-count type-1 FDRI header that real bitstreams emit
immediately before a type-2 burst is folded away, so each per-row block is
exactly ``FAR_FDRI = 5`` words of preamble (FAR write, CMD=WCFG write,
type-2 FDRI header) followed by the data words — matching the paper's
eq. (19)/(23) structure term for term.

:func:`words_from_bytes` and :func:`words_to_bytes` are the one
conversion between a bitstream's bytes and its big-endian 32-bit words.
"""

from __future__ import annotations

import enum

import numpy as np

from ..errors import ParseError

__all__ = [
    "DUMMY_WORD",
    "SYNC_WORD",
    "BUS_WIDTH_SYNC",
    "BUS_WIDTH_DETECT",
    "NOOP",
    "Opcode",
    "ConfigRegister",
    "Command",
    "type1_header",
    "type2_header",
    "decode_header",
    "PacketHeader",
    "BitstreamParseError",
    "words_from_bytes",
    "words_to_bytes",
]

DUMMY_WORD = 0xFFFFFFFF
SYNC_WORD = 0xAA995566
BUS_WIDTH_SYNC = 0x000000BB
BUS_WIDTH_DETECT = 0x11220044
#: A type-1 NOOP packet (opcode 00, no payload).
NOOP = 0x20000000


class Opcode(enum.IntEnum):
    """Packet opcodes."""

    NOP = 0
    READ = 1
    WRITE = 2


class ConfigRegister(enum.IntEnum):
    """Configuration register addresses (UG191 Table 6-5)."""

    CRC = 0
    FAR = 1
    FDRI = 2
    FDRO = 3
    CMD = 4
    CTL = 5
    MASK = 6
    STAT = 7
    LOUT = 8
    COR = 9
    MFWR = 10
    CBC = 11
    IDCODE = 12
    AXSS = 13


class Command(enum.IntEnum):
    """CMD register command codes (UG191 Table 6-6)."""

    NULL = 0
    WCFG = 1
    MFW = 2
    DGHIGH = 3
    RCFG = 4
    START = 5
    RCAP = 6
    RCRC = 7
    AGHIGH = 8
    SWITCH = 9
    GRESTORE = 10
    SHUTDOWN = 11
    GCAPTURE = 12
    DESYNC = 13


class BitstreamParseError(ParseError):
    """The byte stream is not a well-formed partial bitstream."""


def words_from_bytes(data: bytes) -> "np.ndarray":
    """Big-endian 32-bit words of *data* as a read-only ``>u4`` array view.

    Raises :class:`BitstreamParseError` when *data* is not word aligned.
    """
    if len(data) % 4:
        raise BitstreamParseError(
            f"bitstream length {len(data)} is not 32-bit word aligned"
        )
    return np.frombuffer(data, dtype=">u4")


def words_to_bytes(words) -> bytes:
    """Big-endian byte serialization of 32-bit words (SelectMAP/ICAP order)."""
    return np.asarray(words, dtype=">u4").tobytes()


_TYPE_SHIFT = 29
_OPCODE_SHIFT = 27
_REGADDR_SHIFT = 13
_REGADDR_MASK = (1 << 14) - 1
_T1_COUNT_MASK = (1 << 11) - 1
_T2_COUNT_MASK = (1 << 27) - 1


def type1_header(
    opcode: Opcode, register: ConfigRegister, word_count: int
) -> int:
    """Encode a type-1 packet header."""
    if not 0 <= word_count <= _T1_COUNT_MASK:
        raise ValueError(f"type-1 word count {word_count} out of range")
    return (
        (1 << _TYPE_SHIFT)
        | (int(opcode) << _OPCODE_SHIFT)
        | (int(register) << _REGADDR_SHIFT)
        | word_count
    )


def type2_header(opcode: Opcode, word_count: int) -> int:
    """Encode a type-2 packet header (register from the preceding type-1)."""
    if not 0 <= word_count <= _T2_COUNT_MASK:
        raise ValueError(f"type-2 word count {word_count} out of range")
    return (2 << _TYPE_SHIFT) | (int(opcode) << _OPCODE_SHIFT) | word_count


class PacketHeader:
    """A decoded packet header."""

    __slots__ = ("packet_type", "opcode", "register", "word_count")

    def __init__(
        self,
        packet_type: int,
        opcode: Opcode,
        register: ConfigRegister | None,
        word_count: int,
    ) -> None:
        self.packet_type = packet_type
        self.opcode = opcode
        self.register = register
        self.word_count = word_count

    def __repr__(self) -> str:
        reg = self.register.name if self.register is not None else "-"
        return (
            f"PacketHeader(T{self.packet_type}, {self.opcode.name}, {reg}, "
            f"wc={self.word_count})"
        )


def decode_header(word: int) -> PacketHeader:
    """Decode a packet header word; raises on non-packet words."""
    packet_type = (word >> _TYPE_SHIFT) & 0b111
    opcode = Opcode((word >> _OPCODE_SHIFT) & 0b11)
    if packet_type == 1:
        register_bits = (word >> _REGADDR_SHIFT) & _REGADDR_MASK
        register = ConfigRegister(register_bits)
        return PacketHeader(1, opcode, register, word & _T1_COUNT_MASK)
    if packet_type == 2:
        return PacketHeader(2, opcode, None, word & _T2_COUNT_MASK)
    raise ValueError(f"word 0x{word:08X} is not a type-1/type-2 packet header")

"""Bitstream compression — the FaRM mechanism, actually implemented.

Duhem et al.'s FaRM controller (ref. [2]) ships *compressed* bitstreams
and decompresses in hardware ahead of the ICAP.  Partial bitstreams
compress well because configuration frames repeat words (unused LUT
masks, zero flush frames, blank BRAM init).  This module implements the
word-level run-length scheme such controllers use:

* a run token ``(MARKER, count, word)`` replaces ``count`` repeats;
* literals pass through; literal MARKER words are escaped as runs of 1.

``compress``/``decompress`` round-trip exactly; :func:`compression_ratio`
feeds the measured ratio into the FaRM cost model, replacing its assumed
constant.
"""

from __future__ import annotations

from .generator import PartialBitstream
from .words import words_from_bytes, words_to_bytes

__all__ = ["compress", "decompress", "compression_ratio"]

#: Escape marker: a type-1 packet word shape that never appears in our
#: streams (reserved opcode 3).
RUN_MARKER = 0x38000000

#: Minimum run length worth encoding (3 words break even: marker+count+word).
_MIN_RUN = 4


def compress(data: bytes) -> bytes:
    """Run-length-compress a word-aligned bitstream."""
    words = words_from_bytes(data).tolist()
    out: list[int] = []
    index = 0
    n = len(words)
    while index < n:
        word = words[index]
        run = 1
        while index + run < n and words[index + run] == word:
            run += 1
        if run >= _MIN_RUN or word == RUN_MARKER:
            out.extend((RUN_MARKER, run, word))
            index += run
        else:
            out.extend(words[index : index + run])
            index += run
    return words_to_bytes(out)


def decompress(data: bytes) -> bytes:
    """Invert :func:`compress`."""
    words = words_from_bytes(data).tolist()
    out: list[int] = []
    index = 0
    while index < len(words):
        word = words[index]
        if word == RUN_MARKER:
            if index + 2 >= len(words):
                raise ValueError("truncated run token")
            count, value = words[index + 1], words[index + 2]
            if count < 1:
                raise ValueError("invalid run length")
            out.extend([value] * count)
            index += 3
        else:
            out.append(word)
            index += 1
    return words_to_bytes(out)


def compression_ratio(bitstream: PartialBitstream | bytes) -> float:
    """compressed/original size ratio in (0, 1+] for a bitstream."""
    data = bitstream.to_bytes() if isinstance(bitstream, PartialBitstream) else bitstream
    if not data:
        raise ValueError("empty bitstream")
    return len(compress(data)) / len(data)

"""Configuration CRC.

Virtex-class devices accumulate a CRC over every (register, word) write
and compare it against the value written to the CRC register at the end of
the bitstream.  We model this with a standard CRC-32 (the exact Xilinx
polynomial is CRC-32C over 36-bit units; using zlib-compatible CRC-32 over
the register-tagged byte stream preserves the protocol property that
matters — any corrupted configuration word fails the final check).

Each write is hashed as a 5-byte record: the register address byte, then
the word big-endian.  :meth:`ConfigCrc.update` folds one record;
:meth:`ConfigCrc.update_words` folds a whole run of writes to one
register (an FDRI burst) by filling a packed ``(register, >u4 word)``
record array with two field assignments and hashing it in one
``zlib.crc32`` call, so both give one value.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["ConfigCrc"]

#: One register write as hashed: address byte + big-endian word, packed.
_RECORD = np.dtype([("register", "u1"), ("word", ">u4")])


class ConfigCrc:
    """Accumulates the configuration CRC the way the device would."""

    def __init__(self) -> None:
        self._crc = 0

    def update(self, register: int, word: int) -> None:
        """Fold one register write into the CRC."""
        payload = bytes(
            (
                register & 0xFF,
                (word >> 24) & 0xFF,
                (word >> 16) & 0xFF,
                (word >> 8) & 0xFF,
                word & 0xFF,
            )
        )
        self._crc = zlib.crc32(payload, self._crc)

    def update_words(self, register: int, words) -> None:
        """Fold a run of writes to one register into the CRC.

        Same value as calling :meth:`update` once per word.  *words* is a
        sequence of ints or an array of any shape (native ``uint32`` or a
        big-endian ``>u4`` view), taken in C order.
        """
        flat = np.ravel(words)
        records = np.empty(flat.size, dtype=_RECORD)
        records["register"] = register & 0xFF
        records["word"] = flat
        self._crc = zlib.crc32(records, self._crc)

    @property
    def value(self) -> int:
        """Current 32-bit CRC value."""
        return self._crc & 0xFFFFFFFF

    def reset(self) -> None:
        """The RCRC command."""
        self._crc = 0

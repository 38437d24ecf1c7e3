"""Configuration CRC.

Virtex-class devices accumulate a CRC over every (register, word) write
and compare it against the value written to the CRC register at the end of
the bitstream.  We model this with a standard CRC-32 (the exact Xilinx
polynomial is CRC-32C over 36-bit units; using zlib-compatible CRC-32 over
the register-tagged byte stream preserves the protocol property that
matters — any corrupted configuration word fails the final check).

:meth:`ConfigCrc.update_words` folds a whole FDRI burst in one
``zlib.crc32`` call over the same interleaved 5-byte records that
:meth:`ConfigCrc.update` hashes one at a time, so both give one value.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["ConfigCrc"]


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

        Same value as calling :meth:`update` once per word: the records
        are the ``(register, big-endian word)`` 5-byte units, hashed in
        one ``zlib.crc32`` call.
        """
        be = np.asarray(words, dtype=">u4")
        records = np.empty((be.size, 5), dtype=np.uint8)
        records[:, 0] = register & 0xFF
        records[:, 1:] = be.reshape(-1, 1).view(np.uint8)
        self._crc = zlib.crc32(records, self._crc)

    @property
    def value(self) -> int:
        """Current 32-bit CRC value."""
        return self._crc & 0xFFFFFFFF

    def reset(self) -> None:
        """The RCRC command."""
        self._crc = 0

"""Partial bitstream size cost model — eqs. (18)–(23) of Section III.C.

"The size of the partial bitstream (S_bitstream) for a PRR with H rows
that contains CLBs, DSPs, and BRAMs is:

    S_bitstream = {IW + H * (NCW_row + NDW_BRAM) + FW} * Bytes_word   (18)

The number of configuration words in a PRR row (NCW_row) is:

    NCW_row = FAR_FDRI + (NCF_CLB + NCF_DSP + NCF_BRAM + 1) * FR_size (19)

where NCF_CLB = W_CLB * CF_CLB (20), NCF_DSP = W_DSP * CF_DSP (21) and
NCF_BRAM = W_BRAM * CF_BRAM (22).  The number of BRAM initialization words
in a PRR row is:

    NDW_BRAM = FAR_FDRI + (W_BRAM * DF_BRAM + 1) * FR_size            (23)
"

The ``+ 1`` inside (19) and (23) is the pipeline-flush frame the FDRI write
emits after the final data frame of each row block; our bitstream generator
(:mod:`repro.bitgen.generator`) writes that frame so parser-measured sizes
match this model word for word.  When the PRR has no BRAM columns, eq. (23)
does not apply and ``NDW_BRAM = 0`` (the formula would otherwise charge a
FAR/FDRI preamble plus flush frame for a nonexistent BRAM block write).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..devices.family import DeviceFamily
from ..devices.resources import ResourceVector
from .prr_model import PRRGeometry

__all__ = [
    "config_frames_per_row",
    "ncw_row",
    "ndw_bram",
    "BitstreamEstimate",
    "estimate_bitstream",
    "bitstream_size_bytes",
    "cached_bitstream_bytes",
    "bitstream_cache_info",
    "clear_bitstream_cache",
    "full_device_bitstream_bytes",
]


def config_frames_per_row(family: DeviceFamily, columns: ResourceVector) -> int:
    """Eqs. (20)–(22): NCF_CLB + NCF_DSP + NCF_BRAM for one PRR row."""
    return (
        columns.clb * family.cf_clb
        + columns.dsp * family.cf_dsp
        + columns.bram * family.cf_bram
    )


def ncw_row(family: DeviceFamily, columns: ResourceVector) -> int:
    """Eq. (19): configuration words in one PRR row."""
    frames = config_frames_per_row(family, columns)
    return family.far_fdri_words + (frames + 1) * family.frame_words


def ndw_bram(family: DeviceFamily, columns: ResourceVector) -> int:
    """Eq. (23): BRAM initialization words in one PRR row (0 if no BRAMs)."""
    if columns.bram == 0:
        return 0
    return (
        family.far_fdri_words
        + (columns.bram * family.df_bram + 1) * family.frame_words
    )


@dataclass(frozen=True, slots=True)
class BitstreamEstimate:
    """Word- and byte-level breakdown of eq. (18) for one PRR.

    All ``*_words`` fields are 32-bit (or family-width) word counts;
    ``total_bytes`` is ``S_bitstream``.
    """

    family_name: str
    rows: int
    columns: ResourceVector
    initial_words: int  #: IW
    final_words: int  #: FW
    config_words_per_row: int  #: NCW_row, eq. (19)
    bram_words_per_row: int  #: NDW_BRAM, eq. (23) (0 without BRAMs)
    bytes_per_word: int  #: Bytes_word

    @property
    def words_per_row(self) -> int:
        return self.config_words_per_row + self.bram_words_per_row

    @property
    def total_words(self) -> int:
        return self.initial_words + self.rows * self.words_per_row + self.final_words

    @property
    def total_bytes(self) -> int:
        """Eq. (18): S_bitstream in bytes."""
        return self.total_words * self.bytes_per_word

    @property
    def header_and_trailer_bytes(self) -> int:
        return (self.initial_words + self.final_words) * self.bytes_per_word

    @property
    def config_bytes(self) -> int:
        return self.rows * self.config_words_per_row * self.bytes_per_word

    @property
    def bram_init_bytes(self) -> int:
        return self.rows * self.bram_words_per_row * self.bytes_per_word

    def breakdown(self) -> dict[str, int]:
        """Per-section byte attribution, used by the Fig. 2 benchmark."""
        return {
            "initial": self.initial_words * self.bytes_per_word,
            "configuration": self.config_bytes,
            "bram_initialization": self.bram_init_bytes,
            "final": self.final_words * self.bytes_per_word,
            "total": self.total_bytes,
        }


def estimate_bitstream(geometry: PRRGeometry) -> BitstreamEstimate:
    """Full eq. (18)–(23) evaluation with per-term breakdown."""
    family = geometry.family
    return BitstreamEstimate(
        family_name=family.name,
        rows=geometry.rows,
        columns=geometry.columns,
        initial_words=family.initial_words,
        final_words=family.final_words,
        config_words_per_row=ncw_row(family, geometry.columns),
        bram_words_per_row=ndw_bram(family, geometry.columns),
        bytes_per_word=family.bytes_per_word,
    )


def bitstream_size_bytes(geometry: PRRGeometry) -> int:
    """Eq. (18): the headline S_bitstream number, in bytes."""
    return estimate_bitstream(geometry).total_bytes


@lru_cache(maxsize=65536)
def cached_bitstream_bytes(geometry: PRRGeometry) -> int:
    """Memoized :func:`bitstream_size_bytes`.

    The explorer's design objectives (``PRRAssignment.bitstream_bytes``,
    summed per partition and compared in Pareto filtering) re-ask the
    same geometry's byte count thousands of times, as does the
    ``objective="bitstream"`` ranking of
    :func:`~repro.core.placement_search.rank_candidates`; geometries are
    immutable, so the answer is cached per geometry instead of
    rebuilding a :class:`BitstreamEstimate` on every read.
    """
    return estimate_bitstream(geometry).total_bytes


def bitstream_cache_info():
    """Hit/miss statistics of the per-geometry byte-count cache."""
    return cached_bitstream_bytes.cache_info()


def clear_bitstream_cache() -> None:
    """Drop memoized byte counts (used by equivalence tests)."""
    cached_bitstream_bytes.cache_clear()


def full_device_bitstream_bytes(device) -> int:
    """Size of a *full* device bitstream, for non-PR baselines.

    Extends the eq. (18) structure to every column of the device —
    including the IOB and CLK columns PRRs may not contain — plus the BRAM
    content frames of all BRAM columns.  Used by the multitasking
    simulator's full-reconfiguration baseline (Section I: "full
    reconfiguration ... halts the entire FPGA's execution" and transfers
    the whole configuration memory).
    """
    family = device.family
    config_frames = sum(
        family.config_frames(kind) for kind in device.columns
    )
    bram_cols = sum(1 for kind in device.columns if kind.name == "BRAM")
    words_per_row = family.far_fdri_words + (config_frames + 1) * family.frame_words
    if bram_cols:
        words_per_row += (
            family.far_fdri_words
            + (bram_cols * family.df_bram + 1) * family.frame_words
        )
    total_words = (
        family.initial_words + device.rows * words_per_row + family.final_words
    )
    return total_words * family.bytes_per_word

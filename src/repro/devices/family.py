"""Device-family constants: Tables II and IV of the paper.

A :class:`DeviceFamily` bundles every family-dependent constant used by the
two cost models:

* the *fabric geometry* constants of Table I / Table II — resources per
  column per row (``clb_per_col``/``dsp_per_col``/``bram_per_col``) and
  LUT/FF counts per CLB (``luts_per_clb``/``ffs_per_clb``);
* the *bitstream* constants of Table III / Table IV — configuration frames
  per column kind (``cf_clb``/``cf_dsp``/``cf_bram``), BRAM initialization
  frames per column (``df_bram``), frame size in words (``frame_words``),
  header/trailer word counts (``initial_words``/``final_words``), the
  per-row FAR/FDRI preamble (``far_fdri_words``) and the word width in
  bytes (``bytes_per_word``).

The numeric cells of the paper's Tables II and IV did not survive the
source-text conversion; values here are taken from the public configuration
user guides the paper cites (UG071 for Virtex-4, UG191 for Virtex-5, UG360
for Virtex-6) and cross-checked against the paper's prose ("For Virtex-5
devices ... CLB, DSP, BRAM, IOB, and CLK columns have 36, 28, 30, 54, and 4
configuration frames ... Each BRAM column requires 128 data frames ... a CLB
column has 20 CLBs, a DSP column has 8 DSPs, and a BRAM column has 4
BRAMs").  ``initial_words``/``final_words``/``far_fdri_words`` are fixed to
UG191-consistent packet layouts; the same constants drive both the
analytical model and the bitstream generator, so model-vs-generated
validation is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .resources import ColumnKind, ResourceVector

__all__ = [
    "DeviceFamily",
    "VIRTEX4",
    "VIRTEX5",
    "VIRTEX6",
    "SERIES7",
    "SPARTAN6",
    "FAMILIES",
    "get_family",
]


#: The :class:`DeviceFamily` field holding each column kind's CF count.
_CONFIG_FRAME_FIELDS = {
    ColumnKind.CLB: "cf_clb",
    ColumnKind.DSP: "cf_dsp",
    ColumnKind.BRAM: "cf_bram",
    ColumnKind.IOB: "cf_iob",
    ColumnKind.CLK: "cf_clk",
}


@dataclass(frozen=True, slots=True)
class DeviceFamily:
    """All family-dependent constants used by the cost models.

    Instances are immutable; the module-level singletons (:data:`VIRTEX5`
    etc.) should normally be used.  Creating a custom instance is the
    paper's "portability" story: port the models to a new family by
    supplying its constants.
    """

    name: str
    # ---- Table II: fabric geometry -----------------------------------
    clb_per_col: int  #: CLB_col — CLBs in a column per fabric row
    dsp_per_col: int  #: DSP_col — DSPs in a column per fabric row
    bram_per_col: int  #: BRAM_col — BRAMs in a column per fabric row
    luts_per_clb: int  #: LUT_CLB — LUTs per CLB
    ffs_per_clb: int  #: FF_CLB — FFs per CLB
    # ---- Table IV: bitstream constants --------------------------------
    cf_clb: int  #: CF_CLB — configuration frames per CLB column
    cf_dsp: int  #: CF_DSP — configuration frames per DSP column
    cf_bram: int  #: CF_BRAM — configuration frames per BRAM column (interconnect)
    df_bram: int  #: DF_BRAM — BRAM content initialization frames per column
    frame_words: int  #: FR_size — configuration frame size in words
    initial_words: int  #: IW — sync/header words at the start of a partial bitstream
    final_words: int  #: FW — desync/trailer words at the end
    far_fdri_words: int  #: FAR_FDRI — per-row FAR + FDRI preamble words
    bytes_per_word: int  #: Bytes_word — 4 for Virtex/7-series, 2 for Spartan-3/6
    # ---- informational -------------------------------------------------
    cf_iob: int = 54  #: configuration frames per IOB column (not in PRRs)
    cf_clk: int = 4  #: configuration frames per CLK column (not in PRRs)
    supports_2d_pr: bool = True  #: family supports two-dimensional PR
    notes: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        for attr in (
            "clb_per_col",
            "dsp_per_col",
            "bram_per_col",
            "luts_per_clb",
            "ffs_per_clb",
            "cf_clb",
            "cf_dsp",
            "cf_bram",
            "df_bram",
            "frame_words",
            "initial_words",
            "final_words",
            "far_fdri_words",
            "bytes_per_word",
        ):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive")

    # -- geometry helpers --------------------------------------------------

    @property
    def per_column_resources(self) -> ResourceVector:
        """Resources contributed by one column of each kind per fabric row."""
        return ResourceVector(
            clb=self.clb_per_col, dsp=self.dsp_per_col, bram=self.bram_per_col
        )

    def resources_per_column(self, kind: ColumnKind) -> int:
        """Resource count per fabric row for one column of *kind*."""
        table = {
            ColumnKind.CLB: self.clb_per_col,
            ColumnKind.DSP: self.dsp_per_col,
            ColumnKind.BRAM: self.bram_per_col,
        }
        try:
            return table[kind]
        except KeyError:
            raise ValueError(f"{kind} columns carry no PRR resources") from None

    def config_frames(self, kind: ColumnKind) -> int:
        """Configuration (interconnect) frames for one column of *kind*."""
        return getattr(self, _CONFIG_FRAME_FIELDS[kind])

    @property
    def frame_bytes(self) -> int:
        """Size of one configuration frame in bytes."""
        return self.frame_words * self.bytes_per_word

    # -- CLB <-> LUT/FF conversions -----------------------------------------

    def clbs_for_lut_ff_pairs(self, lut_ff_pairs: int) -> int:
        """Eq. (1): ``CLB_req = ceil(LUT_FF_req / LUT_CLB)``."""
        if lut_ff_pairs < 0:
            raise ValueError("lut_ff_pairs must be non-negative")
        return -(-lut_ff_pairs // self.luts_per_clb)

    def luts_in_clbs(self, clbs: int) -> int:
        """Eq. (10): LUTs available in *clbs* CLBs."""
        return clbs * self.luts_per_clb

    def ffs_in_clbs(self, clbs: int) -> int:
        """Eq. (9): FFs available in *clbs* CLBs."""
        return clbs * self.ffs_per_clb


#: Virtex-4 (UG071): 41-word frames; a row spans 16 CLBs; 4-input LUT slices.
VIRTEX4 = DeviceFamily(
    name="virtex4",
    clb_per_col=16,
    dsp_per_col=8,
    bram_per_col=4,
    luts_per_clb=8,
    ffs_per_clb=8,
    cf_clb=22,
    cf_dsp=21,
    cf_bram=20,
    df_bram=64,
    frame_words=41,
    initial_words=16,
    final_words=14,
    far_fdri_words=5,
    bytes_per_word=4,
    cf_iob=30,
    cf_clk=2,
    notes="16 CLBs per column per row; 18Kb BRAMs; DSP48.",
)

#: Virtex-5 (UG191): the paper's primary family.
VIRTEX5 = DeviceFamily(
    name="virtex5",
    clb_per_col=20,
    dsp_per_col=8,
    bram_per_col=4,
    luts_per_clb=8,
    ffs_per_clb=8,
    cf_clb=36,
    cf_dsp=28,
    cf_bram=30,
    df_bram=128,
    frame_words=41,
    initial_words=16,
    final_words=14,
    far_fdri_words=5,
    bytes_per_word=4,
    cf_iob=54,
    cf_clk=4,
    notes="20 CLBs per column per row; 36Kb BRAMs; DSP48E; 41x32-bit frames.",
)

#: Virtex-6 (UG360): taller rows (40 CLBs), 8 FFs per slice (16 per CLB).
VIRTEX6 = DeviceFamily(
    name="virtex6",
    clb_per_col=40,
    dsp_per_col=16,
    bram_per_col=8,
    luts_per_clb=8,
    ffs_per_clb=16,
    cf_clb=36,
    cf_dsp=28,
    cf_bram=28,
    df_bram=128,
    frame_words=81,
    initial_words=16,
    final_words=14,
    far_fdri_words=5,
    bytes_per_word=4,
    cf_iob=44,
    cf_clk=4,
    notes="40 CLBs per column per row; 36Kb BRAMs; DSP48E1; 81x32-bit frames.",
)

#: 7 series / Zynq-7000 (UG470): 50-CLB rows, 101-word frames.
SERIES7 = DeviceFamily(
    name="series7",
    clb_per_col=50,
    dsp_per_col=20,
    bram_per_col=10,
    luts_per_clb=8,
    ffs_per_clb=16,
    cf_clb=36,
    cf_dsp=28,
    cf_bram=28,
    df_bram=128,
    frame_words=101,
    initial_words=16,
    final_words=14,
    far_fdri_words=5,
    bytes_per_word=4,
    cf_iob=42,
    cf_clk=4,
    notes="50 CLBs per column per row; includes Zynq-7000 PL fabric.",
)

#: Spartan-6 (UG380): 16-bit configuration words; PR support is limited
#: (difference-based only) — kept for the Bytes_word portability story.
SPARTAN6 = DeviceFamily(
    name="spartan6",
    clb_per_col=16,
    dsp_per_col=4,
    bram_per_col=4,
    luts_per_clb=8,
    ffs_per_clb=16,
    cf_clb=31,
    cf_dsp=25,
    cf_bram=24,
    df_bram=72,
    frame_words=65,
    initial_words=16,
    final_words=14,
    far_fdri_words=5,
    bytes_per_word=2,
    cf_iob=30,
    cf_clk=2,
    supports_2d_pr=False,
    notes="16-bit configuration words (Bytes_word = 2).",
)

FAMILIES: dict[str, DeviceFamily] = {
    family.name: family
    for family in (VIRTEX4, VIRTEX5, VIRTEX6, SERIES7, SPARTAN6)
}


def get_family(name: str) -> DeviceFamily:
    """Look up a registered family by (case-insensitive) name.

    >>> get_family("Virtex5").clb_per_col
    20
    """
    key = name.lower().replace("-", "").replace("_", "")
    if key not in FAMILIES:
        raise KeyError(
            f"unknown device family {name!r}; known: {sorted(FAMILIES)}"
        )
    return FAMILIES[key]

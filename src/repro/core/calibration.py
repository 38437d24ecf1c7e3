"""Regression calibration: fit family constants from measured bitstreams.

The paper derives Table IV constants from vendor documentation.  For a
family without such documentation, the eq. (18) model is *linear* in the
PRR geometry, so its constants can be recovered from a handful of
measured partial bitstream sizes by least squares:

    words = c0 + c1*H + c2*(H*W_CLB) + c3*(H*W_DSP) + c4*(H*W_BRAM)
                 + c5*(H*[W_BRAM > 0])

with

    c0 = IW + FW                     c1 = FAR_FDRI + FR_size
    c2 = CF_CLB * FR_size            c3 = CF_DSP * FR_size
    c4 = (CF_BRAM + DF_BRAM) * FR_size
    c5 = FAR_FDRI + FR_size          (the BRAM block's preamble + flush)

**Identifiability**: total sizes only determine ``CF_BRAM + DF_BRAM`` —
the interconnect and content frames of a BRAM column are inseparable
without looking *inside* the bitstream.  Supplying per-section
measurements (the parser's configuration/BRAM-init split) separates them.
``FR_size`` and ``Bytes_word`` are physical constants observable from any
single frame readback, so the fit takes them as givens.

The Ablation P benchmark recovers the Virtex-5 constants exactly from
generated bitstreams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..devices.resources import ResourceVector
from ..errors import InvalidInput

__all__ = ["SizeSample", "FittedConstants", "fit_family_constants"]


@dataclass(frozen=True, slots=True)
class SizeSample:
    """One measured partial bitstream.

    ``bram_init_bytes`` is optional: when provided (from the parser's
    section attribution or a vendor tool's report) it separates CF_BRAM
    from DF_BRAM.
    """

    rows: int
    columns: ResourceVector
    total_bytes: int
    bram_init_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.rows < 1:
            raise InvalidInput("rows must be >= 1")
        if self.total_bytes <= 0:
            raise InvalidInput("total_bytes must be positive")


@dataclass(frozen=True, slots=True)
class FittedConstants:
    """Recovered family constants and fit quality."""

    header_trailer_words: int  #: IW + FW
    far_fdri_words: int  #: FAR_FDRI
    cf_clb: int
    cf_dsp: int
    cf_bram_plus_df: int  #: CF_BRAM + DF_BRAM (always identifiable)
    cf_bram: int | None  #: separated only with section samples
    df_bram: int | None
    max_residual_words: float  #: worst absolute fit error, in words

    @property
    def exact(self) -> bool:
        """True when the linear model explains every sample to < 0.5 word."""
        return self.max_residual_words < 0.5


def _require_rank(matrix: np.ndarray, needed: int, what: str) -> None:
    rank = np.linalg.matrix_rank(matrix)
    if rank < needed:
        raise InvalidInput(
            f"samples do not span the model ({what}): need geometries "
            f"varying independently in H, W_CLB, W_DSP, W_BRAM and "
            f"BRAM-presence (rank {rank} < {needed})"
        )


def fit_family_constants(
    samples: Sequence[SizeSample],
    *,
    frame_words: int,
    bytes_per_word: int,
) -> FittedConstants:
    """Least-squares recovery of the eq. (18) constants from samples.

    Requires geometrically diverse samples (the design matrix must have
    full column rank); raises :class:`~repro.errors.InvalidInput` otherwise.
    """
    if len(samples) < 6:
        raise InvalidInput("need at least 6 samples to identify 6 coefficients")
    if frame_words <= 0 or bytes_per_word <= 0:
        raise InvalidInput("frame_words and bytes_per_word must be positive")

    rows_list = []
    targets = []
    for sample in samples:
        h = sample.rows
        c = sample.columns
        rows_list.append(
            [1.0, h, h * c.clb, h * c.dsp, h * c.bram, h * (1.0 if c.bram else 0.0)]
        )
        targets.append(sample.total_bytes / bytes_per_word)
    design = np.asarray(rows_list, dtype=float)
    target = np.asarray(targets, dtype=float)
    _require_rank(design, 6, "total sizes")

    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    residuals = design @ coef - target
    max_residual = float(np.max(np.abs(residuals)))

    c0, c1, c2, c3, c4, c5 = coef
    header_trailer = round(c0)
    far_fdri = round(c1) - frame_words
    cf_clb = round(c2 / frame_words)
    cf_dsp = round(c3 / frame_words)
    cf_bram_plus_df = round(c4 / frame_words)

    cf_bram = df_bram = None
    section_samples = [s for s in samples if s.bram_init_bytes is not None]
    if section_samples:
        # bram_init_words = H * (FAR_FDRI + (W_BRAM * DF + 1) * FR)
        #                 = H*(FAR_FDRI + FR) + (H*W_BRAM)*(DF*FR)
        rows2 = []
        target2 = []
        for sample in section_samples:
            if sample.columns.bram == 0:
                continue
            rows2.append([sample.rows, sample.rows * sample.columns.bram])
            target2.append(sample.bram_init_bytes / bytes_per_word)
        if len(rows2) >= 2:
            design2 = np.asarray(rows2, dtype=float)
            _require_rank(design2, 2, "BRAM sections")
            coef2, *_ = np.linalg.lstsq(
                design2, np.asarray(target2, dtype=float), rcond=None
            )
            df_bram = round(coef2[1] / frame_words)
            cf_bram = cf_bram_plus_df - df_bram

    return FittedConstants(
        header_trailer_words=header_trailer,
        far_fdri_words=far_fdri,
        cf_clb=cf_clb,
        cf_dsp=cf_dsp,
        cf_bram_plus_df=cf_bram_plus_df,
        cf_bram=cf_bram,
        df_bram=df_bram,
        max_residual_words=max_residual,
    )

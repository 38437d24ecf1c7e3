"""Tests for regression calibration of family constants."""

import pytest

from repro.bitgen import generate_partial_bitstream, parse_bitstream
from repro.core.calibration import (
    FittedConstants,
    SizeSample,
    fit_family_constants,
)
from repro.core.bitstream_model import estimate_bitstream
from repro.core.prr_model import PRRGeometry
from repro.devices.catalog import XC5VLX110T
from repro.devices.family import VIRTEX5, VIRTEX6
from repro.devices.resources import ResourceVector
from repro.errors import InvalidInput

#: Geometrically diverse AND placeable on the LX110T (so the same list
#: serves the model-only and generated-bitstream fits).
GEOMETRIES = [
    (1, ResourceVector(clb=1)),
    (2, ResourceVector(clb=3)),
    (1, ResourceVector(clb=2, dsp=1)),
    (1, ResourceVector(clb=2, bram=1)),
    (4, ResourceVector(clb=5, bram=1)),
    (1, ResourceVector(clb=17, dsp=1, bram=2)),
    (2, ResourceVector(clb=2, bram=1)),
    (3, ResourceVector(clb=17, dsp=1, bram=2)),
]


def model_samples(family, with_sections=False):
    samples = []
    for rows, columns in GEOMETRIES:
        est = estimate_bitstream(PRRGeometry(family, rows, columns))
        samples.append(
            SizeSample(
                rows=rows,
                columns=columns,
                total_bytes=est.total_bytes,
                bram_init_bytes=(
                    est.bram_init_bytes if with_sections else None
                ),
            )
        )
    return samples


class TestFitFromModelSizes:
    @pytest.mark.parametrize("family", [VIRTEX5, VIRTEX6], ids=lambda f: f.name)
    def test_recovers_constants_exactly(self, family):
        fitted = fit_family_constants(
            model_samples(family),
            frame_words=family.frame_words,
            bytes_per_word=family.bytes_per_word,
        )
        assert fitted.exact
        assert fitted.header_trailer_words == (
            family.initial_words + family.final_words
        )
        assert fitted.far_fdri_words == family.far_fdri_words
        assert fitted.cf_clb == family.cf_clb
        assert fitted.cf_dsp == family.cf_dsp
        assert fitted.cf_bram_plus_df == family.cf_bram + family.df_bram

    def test_sections_separate_bram_constants(self):
        fitted = fit_family_constants(
            model_samples(VIRTEX5, with_sections=True),
            frame_words=41,
            bytes_per_word=4,
        )
        assert fitted.cf_bram == VIRTEX5.cf_bram
        assert fitted.df_bram == VIRTEX5.df_bram

    def test_without_sections_bram_split_unknown(self):
        fitted = fit_family_constants(
            model_samples(VIRTEX5), frame_words=41, bytes_per_word=4
        )
        assert fitted.cf_bram is None and fitted.df_bram is None


class TestFitFromGeneratedBitstreams:
    def test_recovers_from_measured_bitstreams(self):
        """The real use case: measured bytes in, constants out."""
        samples = []
        used = 0
        for rows, columns in GEOMETRIES:
            region = _find_region(rows, columns)
            if region is None:
                continue
            bitstream = generate_partial_bitstream(XC5VLX110T, region)
            parsed = parse_bitstream(bitstream.to_bytes())
            samples.append(
                SizeSample(
                    rows=rows,
                    columns=columns,
                    total_bytes=bitstream.size_bytes,
                    bram_init_bytes=parsed.section_bytes()[
                        "bram_initialization"
                    ],
                )
            )
            used += 1
        assert used >= 6
        fitted = fit_family_constants(samples, frame_words=41, bytes_per_word=4)
        assert fitted.exact
        assert (fitted.cf_clb, fitted.cf_dsp) == (36, 28)
        assert (fitted.cf_bram, fitted.df_bram) == (30, 128)


def _find_region(rows, columns):
    from repro.devices.fabric import Region

    if rows > XC5VLX110T.rows:
        return None
    col = XC5VLX110T.find_column_window(columns)
    if col is None:
        return None
    return Region(row=1, col=col, height=rows, width=columns.total)


class TestValidation:
    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least 6"):
            fit_family_constants(
                model_samples(VIRTEX5)[:4], frame_words=41, bytes_per_word=4
            )

    def test_degenerate_samples_rejected(self):
        flat = [
            SizeSample(rows=1, columns=ResourceVector(clb=1), total_bytes=1000)
        ] * 8
        with pytest.raises(ValueError, match="rank"):
            fit_family_constants(flat, frame_words=41, bytes_per_word=4)

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            SizeSample(rows=0, columns=ResourceVector(clb=1), total_bytes=1)
        with pytest.raises(ValueError):
            SizeSample(rows=1, columns=ResourceVector(clb=1), total_bytes=0)

    def test_bad_physical_constants(self):
        with pytest.raises(ValueError):
            fit_family_constants(
                model_samples(VIRTEX5), frame_words=0, bytes_per_word=4
            )

    def test_fitted_constants_dataclass(self):
        fitted = FittedConstants(
            header_trailer_words=30,
            far_fdri_words=5,
            cf_clb=36,
            cf_dsp=28,
            cf_bram_plus_df=158,
            cf_bram=None,
            df_bram=None,
            max_residual_words=0.1,
        )
        assert fitted.exact


def test_invalid_inputs_raise_invalid_input():
    flat = [SizeSample(rows=1, columns=ResourceVector(clb=1), total_bytes=1000)] * 8
    calls = [
        lambda: SizeSample(rows=0, columns=ResourceVector(clb=1), total_bytes=1),
        lambda: SizeSample(rows=1, columns=ResourceVector(clb=1), total_bytes=0),
        lambda: fit_family_constants(
            model_samples(VIRTEX5)[:4], frame_words=41, bytes_per_word=4
        ),
        lambda: fit_family_constants(
            model_samples(VIRTEX5), frame_words=0, bytes_per_word=4
        ),
        lambda: fit_family_constants(flat, frame_words=41, bytes_per_word=4),
    ]
    for call in calls:
        with pytest.raises(InvalidInput):
            call()

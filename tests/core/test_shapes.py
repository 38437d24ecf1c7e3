"""Tests for non-rectangular (L/T-shaped) PRRs."""

import pytest

from repro.bitgen import generate_composite_bitstream, parse_bitstream
from repro.core.placement_search import find_prr
from repro.core.shapes import (
    CompositePRR,
    composite_bitstream_bytes,
    find_lshape_prr,
)
from repro.devices.catalog import XC5VLX110T
from repro.devices.fabric import Region
from repro.devices.resources import ColumnKind
from repro.errors import InvalidInput

from tests.conftest import paper_requirements


def clb_region(row, height, width=1, index=0):
    col = XC5VLX110T.columns_of_kind(ColumnKind.CLB)[index]
    return Region(row=row, col=col, height=height, width=width)


class TestCompositePRR:
    def test_needs_parts(self):
        with pytest.raises(ValueError):
            CompositePRR(device=XC5VLX110T, parts=())

    def test_rejects_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            CompositePRR(
                device=XC5VLX110T,
                parts=(clb_region(1, 2), clb_region(2, 2)),
            )

    def test_rejects_invalid_part(self):
        with pytest.raises(ValueError):
            CompositePRR(
                device=XC5VLX110T,
                parts=(Region(row=1, col=1, height=1, width=1),),
            )

    def test_size_sums_parts(self):
        composite = CompositePRR(
            device=XC5VLX110T,
            parts=(clb_region(1, 2, 2), clb_region(3, 1, 1)),
        )
        assert composite.size == 5

    def test_availability_sums_parts(self):
        composite = CompositePRR(
            device=XC5VLX110T,
            parts=(clb_region(1, 2, 2), clb_region(3, 1, 1)),
        )
        assert composite.available.clb == (4 + 1) * 20
        assert composite.luts_available == 5 * 20 * 8

    def test_rectangular_flag(self):
        assert CompositePRR(XC5VLX110T, (clb_region(1, 1),)).is_rectangular
        assert not CompositePRR(
            XC5VLX110T, (clb_region(1, 1), clb_region(2, 1))
        ).is_rectangular


class TestCompositeBitstream:
    def test_single_part_matches_rectangular_model(self):
        from repro.core import bitstream_size_bytes

        placed = find_prr(XC5VLX110T, paper_requirements("sdram", "virtex5"))
        composite = CompositePRR(XC5VLX110T, (placed.region,))
        assert composite_bitstream_bytes(composite) == bitstream_size_bytes(
            placed.geometry
        )

    def test_model_matches_generated(self):
        composite = CompositePRR(
            device=XC5VLX110T,
            parts=(clb_region(1, 3, 2), clb_region(4, 1, 1)),
        )
        bitstream = generate_composite_bitstream(
            XC5VLX110T, composite.parts, design_name="lshape"
        )
        assert bitstream.size_bytes == composite_bitstream_bytes(composite)
        parsed = parse_bitstream(bitstream.to_bytes())
        assert parsed.crc_ok
        assert parsed.rows == 4  # 3 + 1 config blocks

    def test_generator_rejects_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            generate_composite_bitstream(
                XC5VLX110T, [clb_region(1, 2), clb_region(2, 2)]
            )

    def test_generator_rejects_empty(self):
        with pytest.raises(ValueError):
            generate_composite_bitstream(XC5VLX110T, [])


class TestLShapeSearch:
    def test_fir_v5_lshape_improves(self):
        """The Section IV claim quantified: the L shape beats the
        rectangle on area, RU and bitstream size for FIR/V5."""
        prm = paper_requirements("fir", "virtex5")
        rect, lshape = find_lshape_prr(XC5VLX110T, prm)
        assert rect.is_rectangular
        assert not lshape.is_rectangular
        assert lshape.size < rect.size
        assert lshape.fits(prm)
        assert lshape.utilization(prm).clb > rect.utilization(prm).clb
        assert composite_bitstream_bytes(lshape) < composite_bitstream_bytes(
            rect
        )

    def test_fir_v5_exact_shape(self):
        prm = paper_requirements("fir", "virtex5")
        _, lshape = find_lshape_prr(XC5VLX110T, prm)
        assert lshape.size == 13  # 15 -> 13 cells
        assert round(lshape.utilization(prm).clb * 100) == 91

    def test_single_row_prms_have_no_lshape(self):
        prm = paper_requirements("sdram", "virtex5")
        rect, lshape = find_lshape_prr(XC5VLX110T, prm)
        assert lshape is rect

    def test_lshape_never_loses_resources(self):
        for workload in ("fir", "mips", "sdram"):
            prm = paper_requirements(workload, "virtex5")
            _, lshape = find_lshape_prr(XC5VLX110T, prm)
            assert lshape.fits(prm)


def test_invalid_composites_raise_invalid_input():
    for parts in (
        (),
        (clb_region(1, 2), clb_region(2, 2)),
        (Region(row=1, col=1, height=1, width=1),),
    ):
        with pytest.raises(InvalidInput):
            CompositePRR(device=XC5VLX110T, parts=parts)

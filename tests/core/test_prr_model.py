"""Unit tests for the PRR size/organization cost model (eqs. (1)-(12))."""

import pytest

from repro.core.params import PRMRequirements
from repro.core.prr_model import (
    InfeasibleGeometryError,
    PRRGeometry,
    clb_requirement,
    group_columns,
    merge_geometries,
    min_rows_for_dsps,
    prr_geometry_for_rows,
)
from repro.devices.family import VIRTEX5, VIRTEX6
from repro.devices.resources import ResourceVector
from repro.errors import InvalidInput

from tests.conftest import paper_requirements


class TestEq1:
    def test_paper_clb_requirements(self):
        assert clb_requirement(paper_requirements("fir", "virtex5"), VIRTEX5) == 163
        assert clb_requirement(paper_requirements("mips", "virtex5"), VIRTEX5) == 328
        assert clb_requirement(paper_requirements("sdram", "virtex5"), VIRTEX5) == 42
        assert clb_requirement(paper_requirements("fir", "virtex6"), VIRTEX6) == 184
        assert clb_requirement(paper_requirements("mips", "virtex6"), VIRTEX6) == 405
        assert clb_requirement(paper_requirements("sdram", "virtex6"), VIRTEX6) == 49

    def test_ceiling_behaviour(self):
        prm = PRMRequirements("x", 9, 9, 0)
        assert clb_requirement(prm, VIRTEX5) == 2  # ceil(9/8)


class TestMinRowsForDsps:
    def test_single_column_eq4(self):
        # FIR/V5 needs H >= ceil(32/8) = 4 on the one DSP column.
        prm = paper_requirements("fir", "virtex5")
        assert min_rows_for_dsps(prm, VIRTEX5, single_dsp_column=True) == 4

    def test_multi_column_unconstrained(self):
        prm = paper_requirements("fir", "virtex6")
        assert min_rows_for_dsps(prm, VIRTEX6, single_dsp_column=False) == 1

    def test_no_dsps(self):
        prm = paper_requirements("sdram", "virtex5")
        assert min_rows_for_dsps(prm, VIRTEX5, single_dsp_column=True) == 1


class TestGeometryForRows:
    def test_fir_v5_h5(self):
        geometry = prr_geometry_for_rows(
            paper_requirements("fir", "virtex5"), VIRTEX5, 5, single_dsp_column=True
        )
        assert geometry.columns == ResourceVector(2, 1, 0)
        assert geometry.width == 3
        assert geometry.size == 15

    def test_fir_v5_h4_feasible_but_larger(self):
        geometry = prr_geometry_for_rows(
            paper_requirements("fir", "virtex5"), VIRTEX5, 4, single_dsp_column=True
        )
        assert geometry.columns == ResourceVector(3, 1, 0)
        assert geometry.size == 16  # > 15, hence the flow prefers H=5

    def test_fir_v5_h3_infeasible_by_eq4(self):
        with pytest.raises(InfeasibleGeometryError, match="needs H >= 4"):
            prr_geometry_for_rows(
                paper_requirements("fir", "virtex5"),
                VIRTEX5,
                3,
                single_dsp_column=True,
            )

    def test_mips_v5_h1(self):
        geometry = prr_geometry_for_rows(
            paper_requirements("mips", "virtex5"), VIRTEX5, 1, single_dsp_column=True
        )
        assert geometry.columns == ResourceVector(17, 1, 2)
        assert geometry.size == 20

    def test_mips_v6_h1_uses_eq3(self):
        geometry = prr_geometry_for_rows(
            paper_requirements("mips", "virtex6"), VIRTEX6, 1, single_dsp_column=False
        )
        assert geometry.columns == ResourceVector(11, 1, 1)

    def test_fir_v6_needs_two_dsp_columns(self):
        geometry = prr_geometry_for_rows(
            paper_requirements("fir", "virtex6"), VIRTEX6, 1, single_dsp_column=False
        )
        assert geometry.columns.dsp == 2  # ceil(27/16)

    def test_zero_requirement_kinds_get_zero_columns(self):
        geometry = prr_geometry_for_rows(
            paper_requirements("sdram", "virtex5"), VIRTEX5, 1
        )
        assert geometry.columns == ResourceVector(3, 0, 0)

    def test_rows_validation(self):
        with pytest.raises(ValueError):
            prr_geometry_for_rows(
                paper_requirements("sdram", "virtex5"), VIRTEX5, 0
            )

    def test_empty_requirements_rejected(self):
        with pytest.raises(ValueError):
            prr_geometry_for_rows([], VIRTEX5, 1)


class TestAvailability:
    """Eqs. (8)-(12) against the paper's Table V availability cells."""

    def test_fir_v5(self):
        geometry = prr_geometry_for_rows(
            paper_requirements("fir", "virtex5"), VIRTEX5, 5, single_dsp_column=True
        )
        assert geometry.available == ResourceVector(200, 40, 0)
        assert geometry.ffs_available == 1600
        assert geometry.luts_available == 1600

    def test_mips_v5(self):
        geometry = prr_geometry_for_rows(
            paper_requirements("mips", "virtex5"), VIRTEX5, 1, single_dsp_column=True
        )
        assert geometry.available == ResourceVector(340, 8, 8)

    def test_mips_v6_ff_avail_doubles(self):
        geometry = prr_geometry_for_rows(
            paper_requirements("mips", "virtex6"), VIRTEX6, 1
        )
        assert geometry.available.clb == 440
        assert geometry.ffs_available == 7040  # 16 FFs per CLB on Virtex-6
        assert geometry.luts_available == 3520

    def test_fits(self):
        prm = paper_requirements("fir", "virtex5")
        good = prr_geometry_for_rows(prm, VIRTEX5, 5, single_dsp_column=True)
        assert good.fits(prm)
        small = PRRGeometry(VIRTEX5, rows=1, columns=ResourceVector(1, 0, 0))
        assert not small.fits(prm)


class TestSharedPRRMerge:
    def test_merge_takes_elementwise_max(self):
        fir = prr_geometry_for_rows(
            paper_requirements("fir", "virtex6"), VIRTEX6, 1
        )
        mips = prr_geometry_for_rows(
            paper_requirements("mips", "virtex6"), VIRTEX6, 1
        )
        merged = merge_geometries([fir, mips])
        assert merged.columns == ResourceVector(11, 2, 1)

    def test_merge_requires_same_rows(self):
        a = PRRGeometry(VIRTEX5, 1, ResourceVector(1, 0, 0))
        b = PRRGeometry(VIRTEX5, 2, ResourceVector(1, 0, 0))
        with pytest.raises(ValueError, match="common H"):
            merge_geometries([a, b])

    def test_merge_requires_same_family(self):
        a = PRRGeometry(VIRTEX5, 1, ResourceVector(1, 0, 0))
        b = PRRGeometry(VIRTEX6, 1, ResourceVector(1, 0, 0))
        with pytest.raises(ValueError, match="family"):
            merge_geometries([a, b])

    def test_merge_empty(self):
        with pytest.raises(ValueError):
            merge_geometries([])

    def test_multi_prm_geometry_equals_merge(self):
        prms = [
            paper_requirements("fir", "virtex6"),
            paper_requirements("mips", "virtex6"),
            paper_requirements("sdram", "virtex6"),
        ]
        direct = prr_geometry_for_rows(prms, VIRTEX6, 1)
        merged = merge_geometries(
            [prr_geometry_for_rows(prm, VIRTEX6, 1) for prm in prms]
        )
        assert direct.columns == merged.columns


class TestGeometryValidation:
    def test_needs_a_row(self):
        with pytest.raises(ValueError):
            PRRGeometry(VIRTEX5, 0, ResourceVector(1, 0, 0))

    def test_needs_a_column(self):
        with pytest.raises(ValueError):
            PRRGeometry(VIRTEX5, 1, ResourceVector())


def test_invalid_inputs_raise_invalid_input():
    one_clb = ResourceVector(1, 0, 0)
    prm = paper_requirements("sdram", "virtex5")
    calls = [
        lambda: PRRGeometry(VIRTEX5, 0, one_clb),
        lambda: PRRGeometry(VIRTEX5, 1, ResourceVector()),
        lambda: prr_geometry_for_rows(prm, VIRTEX5, 0),
        lambda: prr_geometry_for_rows([], VIRTEX5, 1),
        lambda: group_columns([], VIRTEX5, 3),
        lambda: merge_geometries([]),
        lambda: merge_geometries(
            [PRRGeometry(VIRTEX5, 1, one_clb), PRRGeometry(VIRTEX5, 2, one_clb)]
        ),
        lambda: merge_geometries(
            [PRRGeometry(VIRTEX5, 1, one_clb), PRRGeometry(VIRTEX6, 1, one_clb)]
        ),
    ]
    for call in calls:
        with pytest.raises(InvalidInput):
            call()

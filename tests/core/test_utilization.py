"""Unit tests for RU / internal fragmentation (eqs. (13)-(17))."""

import pytest

from repro.core.params import PRMRequirements
from repro.core.prr_model import PRRGeometry, prr_geometry_for_rows
from repro.core.utilization import utilization
from repro.devices.family import VIRTEX5
from repro.devices.resources import ResourceVector
from repro.errors import InvalidInput

from tests.conftest import paper_requirements


class TestUtilizationMath:
    def test_fir_v5_fractions(self):
        prm = paper_requirements("fir", "virtex5")
        geometry = prr_geometry_for_rows(prm, VIRTEX5, 5, single_dsp_column=True)
        ru = utilization(prm, geometry)
        assert ru.clb == pytest.approx(163 / 200)
        assert ru.ff == pytest.approx(394 / 1600)
        assert ru.lut == pytest.approx(1150 / 1600)
        assert ru.dsp == pytest.approx(32 / 40)
        assert ru.bram == 0.0

    def test_zero_requirement_is_zero_ru(self):
        prm = paper_requirements("sdram", "virtex5")
        geometry = prr_geometry_for_rows(prm, VIRTEX5, 1)
        ru = utilization(prm, geometry)
        assert ru.dsp == 0.0 and ru.bram == 0.0

    def test_requirement_without_capacity_raises(self):
        prm = PRMRequirements("x", 8, 8, 0, dsps=1)
        geometry = PRRGeometry(VIRTEX5, 1, ResourceVector(1, 0, 0))
        with pytest.raises(ValueError, match="zero availability"):
            utilization(prm, geometry)

    def test_as_percentages_rounds(self):
        prm = paper_requirements("mips", "virtex5")
        geometry = prr_geometry_for_rows(prm, VIRTEX5, 1, single_dsp_column=True)
        pct = utilization(prm, geometry).as_percentages()
        # 328/340 = 96.47% -> 96 (the paper printed 97; ±1 rounding).
        assert pct == {
            "RU_CLB": 96,
            "RU_FF": 59,
            "RU_LUT": 56,
            "RU_DSP": 50,
            "RU_BRAM": 75,
        }

    def test_internal_fragmentation_complements_ru(self):
        prm = paper_requirements("fir", "virtex5")
        geometry = prr_geometry_for_rows(prm, VIRTEX5, 5, single_dsp_column=True)
        ru = utilization(prm, geometry)
        frag = ru.internal_fragmentation
        assert frag["CLB"] == pytest.approx(1 - ru.clb)
        assert frag["DSP"] == pytest.approx(0.2)

    def test_worst_primary(self):
        prm = paper_requirements("fir", "virtex5")
        geometry = prr_geometry_for_rows(prm, VIRTEX5, 5, single_dsp_column=True)
        ru = utilization(prm, geometry)
        assert ru.worst_primary == pytest.approx(163 / 200)

    def test_ru_at_most_one_for_fitting_prm(self):
        for workload in ("fir", "mips", "sdram"):
            prm = paper_requirements(workload, "virtex5")
            rows = 5 if workload == "fir" else 1
            geometry = prr_geometry_for_rows(
                prm, VIRTEX5, rows, single_dsp_column=True
            )
            ru = utilization(prm, geometry)
            for value in (ru.clb, ru.ff, ru.lut, ru.dsp, ru.bram):
                assert 0.0 <= value <= 1.0


def test_zero_availability_raises_invalid_input():
    prm = PRMRequirements("x", 8, 8, 0, dsps=1)
    geometry = PRRGeometry(VIRTEX5, 1, ResourceVector(1, 0, 0))
    with pytest.raises(InvalidInput, match="zero availability"):
        utilization(prm, geometry)

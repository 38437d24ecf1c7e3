"""Tests for the automatic multi-PRR floorplanner (future-work feature)."""

import pytest

from repro.core.floorplanner import (
    FloorplanError,
    floorplan,
    render_floorplan,
)
from repro.core.params import PRMRequirements
from repro.devices.catalog import XC5VLX110T, XC6VLX75T
from repro.errors import InvalidInput

from tests.conftest import paper_requirements


@pytest.fixture(scope="module")
def v5_prms():
    return [
        paper_requirements("fir", "virtex5"),
        paper_requirements("mips", "virtex5"),
        paper_requirements("sdram", "virtex5"),
    ]


class TestFloorplan:
    def test_three_dedicated_prrs(self, v5_prms):
        plan = floorplan(XC5VLX110T, v5_prms)
        assert len(plan.prrs) == 3
        assert plan.group_names == ("fir", "mips", "sdram")

    def test_prrs_disjoint(self, v5_prms):
        plan = floorplan(XC5VLX110T, v5_prms)
        for i, a in enumerate(plan.prrs):
            for b in plan.prrs[i + 1 :]:
                assert not a.region.overlaps(b.region)

    def test_each_prr_fits_its_group(self, v5_prms):
        plan = floorplan(XC5VLX110T, v5_prms)
        for prm, prr in zip(v5_prms, plan.prrs):
            assert prr.geometry.fits(prm)

    def test_shared_groups_supported(self, v5_prms):
        fir, mips, sdram = v5_prms
        plan = floorplan(XC5VLX110T, [[fir, sdram], mips])
        assert len(plan.prrs) == 2
        assert plan.group_names[0] == "fir+sdram"

    def test_static_budget_enforced(self, v5_prms):
        eligible = (
            sum(1 for k in XC5VLX110T.columns if k.reconfigurable)
            * XC5VLX110T.rows
        )
        with pytest.raises(FloorplanError):
            floorplan(XC5VLX110T, v5_prms, static_min_cells=eligible)

    def test_static_cells_accounting(self, v5_prms):
        plan = floorplan(XC5VLX110T, v5_prms)
        eligible = (
            sum(1 for k in XC5VLX110T.columns if k.reconfigurable)
            * XC5VLX110T.rows
        )
        assert plan.static_cells == eligible - plan.total_prr_cells

    def test_infeasible_demand(self):
        monster = PRMRequirements("monster", 10**6, 10**6, 0)
        with pytest.raises(FloorplanError):
            floorplan(XC5VLX110T, [monster])

    def test_empty_groups_rejected(self):
        with pytest.raises(ValueError):
            floorplan(XC5VLX110T, [])

    def test_fragmentation_bounded(self, v5_prms):
        plan = floorplan(XC5VLX110T, v5_prms)
        assert 0.0 <= plan.static_fragmentation() <= 1.0

    def test_optimize_static_no_worse_than_greedy(self, v5_prms):
        greedy = floorplan(XC5VLX110T, v5_prms, optimize_static=False)
        optimized = floorplan(XC5VLX110T, v5_prms, optimize_static=True)
        assert (
            optimized.total_prr_cells,
            optimized.static_fragmentation(),
        ) <= (greedy.total_prr_cells, greedy.static_fragmentation())

    def test_v6_device(self):
        prms = [
            paper_requirements("fir", "virtex6"),
            paper_requirements("sdram", "virtex6"),
        ]
        plan = floorplan(XC6VLX75T, prms)
        assert len(plan.prrs) == 2

    def test_total_bitstream_bytes(self, v5_prms):
        plan = floorplan(XC5VLX110T, v5_prms)
        assert plan.total_partial_bitstream_bytes == sum(
            prr.bitstream_bytes for prr in plan.prrs
        )


class TestRender:
    def test_render_marks_each_prr(self, v5_prms):
        plan = floorplan(XC5VLX110T, v5_prms)
        art = render_floorplan(plan)
        lines = art.splitlines()
        assert len(lines) == XC5VLX110T.rows + 1  # rows + legend
        body = "\n".join(lines[:-1])
        for mark in "012":
            assert mark in body
        assert "0=fir" in lines[-1]

    def test_render_cell_count(self, v5_prms):
        plan = floorplan(XC5VLX110T, v5_prms)
        art = render_floorplan(plan).splitlines()[:-1]
        marked = sum(row.count("0") + row.count("1") + row.count("2") for row in art)
        assert marked == plan.total_prr_cells

    def test_summary(self, v5_prms):
        plan = floorplan(XC5VLX110T, v5_prms)
        assert "static frag" in plan.summary()


def test_empty_groups_raise_invalid_input():
    with pytest.raises(InvalidInput):
        floorplan(XC5VLX110T, [])

"""Unit tests for the Fig. 1 placement search flow."""

import dataclasses

import pytest

from repro.core.params import PRMRequirements
from repro.core.placement_search import (
    PlacedPRR,
    PlacementNotFoundError,
    find_prr,
    iter_feasible_placements,
    search_with_trace,
)
from repro.core.prr_model import prr_geometry_for_rows
from repro.devices.catalog import XC5VLX110T, XC6VLX75T
from repro.devices.fabric import Region
from repro.errors import InvalidInput

from tests.conftest import PAPER_GEOMETRY, paper_requirements


class TestPaperPlacements:
    @pytest.mark.parametrize("workload", ["fir", "mips", "sdram"])
    def test_lx110t_geometry(self, workload):
        prm = paper_requirements(workload, "virtex5")
        placed = find_prr(XC5VLX110T, prm)
        g = placed.geometry
        assert (
            g.rows,
            g.columns.clb,
            g.columns.dsp,
            g.columns.bram,
        ) == PAPER_GEOMETRY[(workload, "xc5vlx110t")]

    @pytest.mark.parametrize("workload", ["fir", "mips", "sdram"])
    def test_lx75t_geometry(self, workload):
        prm = paper_requirements(workload, "virtex6")
        placed = find_prr(XC6VLX75T, prm)
        g = placed.geometry
        assert (
            g.rows,
            g.columns.clb,
            g.columns.dsp,
            g.columns.bram,
        ) == PAPER_GEOMETRY[(workload, "xc6vlx75t")]

    def test_fir_v5_prefers_h5_over_h4(self):
        """The headline Fig. 1 behaviour: H=4 is feasible (size 16) but H=5
        is smaller (size 15)."""
        prm = paper_requirements("fir", "virtex5")
        placements = {p.geometry.rows: p for p in iter_feasible_placements(XC5VLX110T, prm)}
        assert 4 in placements and 5 in placements
        assert placements[4].size == 16
        assert placements[5].size == 15
        assert find_prr(XC5VLX110T, prm).geometry.rows == 5

    def test_objectives_agree_on_paper_cases(self):
        for workload, family in (
            ("fir", "virtex5"),
            ("mips", "virtex5"),
            ("sdram", "virtex5"),
        ):
            prm = paper_requirements(workload, family)
            by_size = find_prr(XC5VLX110T, prm, objective="size")
            by_bytes = find_prr(XC5VLX110T, prm, objective="bitstream")
            assert by_size.geometry == by_bytes.geometry


class TestPlacementMechanics:
    def test_region_matches_geometry(self):
        prm = paper_requirements("mips", "virtex5")
        placed = find_prr(XC5VLX110T, prm)
        assert placed.region.height == placed.geometry.rows
        assert placed.region.width == placed.geometry.width
        assert XC5VLX110T.is_valid_prr(placed.region)

    def test_bottom_most_row_selected(self):
        prm = paper_requirements("sdram", "virtex5")
        placed = find_prr(XC5VLX110T, prm)
        assert placed.region.row == 1

    def test_forbidden_regions_respected(self):
        prm = paper_requirements("sdram", "virtex5")
        first = find_prr(XC5VLX110T, prm)
        second = find_prr(XC5VLX110T, prm, forbidden=[first.region])
        assert not second.region.overlaps(first.region)

    def test_max_rows_cap(self):
        prm = paper_requirements("fir", "virtex5")
        # DSP demand needs H >= 4; capping below that leaves nothing.
        with pytest.raises(PlacementNotFoundError):
            find_prr(XC5VLX110T, prm, max_rows=3)

    def test_impossible_demand_raises(self):
        monster = PRMRequirements("monster", 10**6, 10**6, 0)
        with pytest.raises(PlacementNotFoundError, match="monster"):
            find_prr(XC5VLX110T, monster)

    def test_placed_prr_validates_consistency(self):
        prm = paper_requirements("sdram", "virtex5")
        placed = find_prr(XC5VLX110T, prm)
        with pytest.raises(ValueError):
            PlacedPRR(
                device=placed.device,
                geometry=placed.geometry,
                region=Region(
                    row=placed.region.row,
                    col=placed.region.col,
                    height=placed.region.height + 1,
                    width=placed.region.width,
                ),
            )

    @pytest.mark.parametrize("mismatch", ["height", "width", "column mix"])
    def test_mismatched_region_raises_invalid_input(self, mismatch):
        prm = paper_requirements("fir", "virtex5")
        placed = find_prr(XC5VLX110T, prm)
        region = placed.region
        if mismatch == "height":
            region = dataclasses.replace(region, height=region.height + 1)
        elif mismatch == "width":
            region = dataclasses.replace(region, width=region.width + 1)
        else:
            region = next(
                candidate
                for col in range(1, XC5VLX110T.num_columns - region.width + 2)
                if XC5VLX110T.is_valid_prr(
                    candidate := dataclasses.replace(region, col=col)
                )
                and XC5VLX110T.region_column_counts(candidate)
                != placed.geometry.columns
            )
        with pytest.raises(InvalidInput, match=mismatch):
            PlacedPRR(device=placed.device, geometry=placed.geometry, region=region)

    def test_shared_prr_placement(self):
        prms = [
            paper_requirements("fir", "virtex6"),
            paper_requirements("sdram", "virtex6"),
        ]
        placed = find_prr(XC6VLX75T, prms)
        # Shared PRR must dominate both individual column demands.
        fir_geo = prr_geometry_for_rows(
            prms[0], XC6VLX75T.family, placed.geometry.rows
        )
        assert placed.geometry.columns.dominates(fir_geo.columns)

    def test_utilization_for_convenience(self):
        prm = paper_requirements("fir", "virtex5")
        placed = find_prr(XC5VLX110T, prm)
        assert placed.utilization_for(prm).as_percentages()["RU_DSP"] == 80


class TestSearchTrace:
    def test_trace_covers_all_rows(self):
        prm = paper_requirements("fir", "virtex5")
        trace = search_with_trace(XC5VLX110T, prm)
        assert len(trace.steps) == XC5VLX110T.rows

    def test_trace_marks_eq4_infeasible_rows(self):
        prm = paper_requirements("fir", "virtex5")
        trace = search_with_trace(XC5VLX110T, prm)
        for rows, geometry, placed in trace.steps:
            if rows < 4:
                assert geometry is None  # single-DSP-column rule
            else:
                assert geometry is not None and placed

    def test_trace_render_mentions_selection(self):
        prm = paper_requirements("sdram", "virtex6")
        text = search_with_trace(XC6VLX75T, prm).render()
        assert "selected" in text and "H=1" in text


class TestObjectiveTieBreaking:
    """A fabricated device where "size" and "bitstream" disagree.

    On a 4-row Virtex-5 fabric with a single central DSP column, the
    single-DSP-column rule (eq. 4) knocks out H=1; H=2 and H=3 both land
    on PRR size 6, but H=3 swaps a 36-frame CLB column for the 28-frame
    DSP column mix, so its bitstream is smaller.  The size objective
    breaks the size tie towards smaller H (H=2), the bitstream objective
    picks H=3 — different geometries from identical inputs.
    """

    @pytest.fixture(scope="class")
    def tiebreak_case(self):
        from repro.devices.catalog import make_device
        from repro.devices.family import VIRTEX5

        device = make_device(
            "tiebreak", VIRTEX5, rows=4, layout="I C*4 D C*4 I"
        )
        prm = PRMRequirements(
            "tie", lut_ff_pairs=328, luts=328, ffs=0, dsps=16
        )
        return device, prm

    def test_objectives_select_different_geometries(self, tiebreak_case):
        device, prm = tiebreak_case
        by_size = find_prr(device, prm, objective="size")
        by_bytes = find_prr(device, prm, objective="bitstream")
        assert by_size.geometry != by_bytes.geometry
        assert by_size.geometry.rows == 2
        assert by_bytes.geometry.rows == 3

    def test_each_objective_is_optimal_for_itself(self, tiebreak_case):
        device, prm = tiebreak_case
        placements = list(iter_feasible_placements(device, prm))
        by_size = find_prr(device, prm, objective="size")
        by_bytes = find_prr(device, prm, objective="bitstream")
        assert by_size.size == min(p.size for p in placements)
        assert by_bytes.bitstream_bytes == min(
            p.bitstream_bytes for p in placements
        )
        assert by_size.bitstream_bytes > by_bytes.bitstream_bytes
        assert by_size.size == by_bytes.size  # the tie the objectives split


class TestCachedVersusUncached:
    """The byte-count cache must not change any Table V search result."""

    PAPER_CASES = [
        (workload, device)
        for workload in ("fir", "mips", "sdram")
        for device in (XC5VLX110T, XC6VLX75T)
    ]

    @pytest.mark.parametrize(
        "workload,device",
        PAPER_CASES,
        ids=[f"{w}@{d.name}" for w, d in PAPER_CASES],
    )
    def test_same_placed_prr_and_trace(self, workload, device):
        from repro.core.bitstream_model import clear_bitstream_cache

        family = {"xc5vlx110t": "virtex5", "xc6vlx75t": "virtex6"}[device.name]
        prm = paper_requirements(workload, family)

        clear_bitstream_cache()
        cold_placed = find_prr(device, prm, objective="bitstream")
        clear_bitstream_cache()
        cold_trace = search_with_trace(device, prm, objective="bitstream")

        # Warm caches, then repeat: results must be identical objects
        # value-wise, including every recorded Fig. 1 step.
        warm_placed = find_prr(device, prm, objective="bitstream")
        warm_trace = search_with_trace(device, prm, objective="bitstream")

        assert warm_placed == cold_placed == cold_trace.selected
        assert warm_placed == find_prr(device, prm)  # the objectives agree
        assert warm_trace.steps == cold_trace.steps
        assert warm_trace.selected == cold_trace.selected
        assert warm_trace.render() == cold_trace.render()

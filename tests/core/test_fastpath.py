"""Unit tests for the fast-path machinery: window index, occupancy, caches.

Every fast path must be behavior-identical to the naive path it replaces;
these tests assert that equivalence directly.
"""

import random
import traceback

import pytest

from repro.core.fastpath import (
    GroupBounds,
    RegionOccupancy,
    group_lower_bounds,
)
from repro.core.placement_search import PlacementNotFoundError, find_prr
from repro.core.prr_model import InfeasibleGeometryError, prr_geometry_for_rows
from repro.devices import DEVICES, VIRTEX5, ResourceVector
from repro.devices.catalog import synthetic_device
from repro.devices.fabric import Region
from repro.devices.window_index import ColumnWindowIndex

from tests.conftest import paper_requirements
from tests.differential.explorer_reference import PlacementCache
from tests.differential.placement_reference import find_column_window_naive


def random_synthetic_devices(seed=7, count=8):
    rng = random.Random(seed)
    devices = []
    for index in range(count):
        runs = tuple(rng.randint(1, 9) for _ in range(rng.randint(2, 6)))
        boundaries = max(len(runs) - 2, 0)
        dsp = tuple(
            sorted(rng.sample(range(boundaries + 1), rng.randint(0, min(2, boundaries + 1))))
        )
        bram = tuple(
            sorted(rng.sample(range(boundaries + 1), rng.randint(0, min(2, boundaries + 1))))
        )
        devices.append(
            synthetic_device(
                rows=rng.randint(1, 8),
                clb_runs=runs,
                dsp_positions=dsp,
                bram_positions=bram,
                name=f"synthetic{index}",
            )
        )
    return devices


class TestColumnWindowIndex:
    @pytest.mark.parametrize("device", DEVICES.values(), ids=lambda d: d.name)
    def test_matches_naive_on_catalog(self, device):
        for clb in range(5):
            for dsp in range(3):
                for bram in range(3):
                    if clb + dsp + bram == 0:
                        continue
                    req = ResourceVector(clb=clb, dsp=dsp, bram=bram)
                    for start in (1, 2, device.num_columns // 2, device.num_columns):
                        assert device.find_column_window(req, start_col=start) == (
                            find_column_window_naive(device, req, start_col=start)
                        ), (device.name, req, start)

    def test_matches_naive_on_random_layouts(self):
        rng = random.Random(11)
        for device in random_synthetic_devices():
            for _ in range(30):
                req = ResourceVector(
                    clb=rng.randint(0, 6), dsp=rng.randint(0, 2), bram=rng.randint(0, 2)
                )
                if req.total == 0:
                    continue
                start = rng.randint(1, device.num_columns)
                assert device.find_column_window(req, start_col=start) == (
                    find_column_window_naive(device, req, start_col=start)
                )

    def test_feasible_starts_sorted_and_exact(self):
        device = DEVICES["xc5vlx110t"]
        req = ResourceVector(clb=3)
        starts = device.feasible_window_starts(req)
        assert list(starts) == sorted(starts)
        for col in starts:
            region = Region(row=1, col=col, height=1, width=req.total)
            assert device.region_column_counts(region) == req
        # every non-listed start must not match
        listed = set(starts)
        for col in range(1, device.num_columns - req.total + 2):
            if col in listed:
                continue
            try:
                counts = device.region_column_counts(
                    Region(row=1, col=col, height=1, width=req.total)
                )
            except ValueError:
                continue  # covers IOB/CLK
            assert counts != req

    def test_zero_requirement_rejected(self):
        device = DEVICES["xc5vlx110t"]
        with pytest.raises(ValueError, match="at least one column"):
            device.find_column_window(ResourceVector())
        with pytest.raises(ValueError, match="at least one column"):
            find_column_window_naive(device, ResourceVector())

    def test_window_counts_prefix_sums(self):
        device = DEVICES["xc6vlx75t"]
        index = device.window_index
        for start in (2, 5, 10):
            width = 4
            region = Region(row=1, col=start, height=1, width=width)
            try:
                expected = device.region_column_counts(region)
            except ValueError:
                with pytest.raises(ValueError):
                    index.window_counts(start, width)
                continue
            assert index.window_counts(start, width) == expected

    def test_window_counts_bounds_checked(self):
        index = ColumnWindowIndex(DEVICES["xc5vlx110t"].columns)
        with pytest.raises(ValueError):
            index.window_counts(0, 3)
        with pytest.raises(ValueError):
            index.window_counts(60, 10)

    def test_index_cached_per_device(self):
        device = DEVICES["xc5vlx110t"]
        assert device.window_index is device.window_index

    def test_wider_than_fabric_returns_none(self):
        device = DEVICES["xc5vlx50t"]
        req = ResourceVector(clb=device.num_columns + 5)
        assert device.find_column_window(req) is None
        assert find_column_window_naive(device, req) is None


class TestRegionOccupancy:
    def test_matches_bruteforce_on_random_sets(self):
        rng = random.Random(3)
        for _ in range(50):
            regions = [
                Region(
                    row=rng.randint(1, 8),
                    col=rng.randint(1, 40),
                    height=rng.randint(1, 4),
                    width=rng.randint(1, 10),
                )
                for _ in range(rng.randint(0, 12))
            ]
            occupancy = RegionOccupancy(regions)
            for _ in range(20):
                candidate = Region(
                    row=rng.randint(1, 8),
                    col=rng.randint(1, 40),
                    height=rng.randint(1, 4),
                    width=rng.randint(1, 10),
                )
                expected = any(candidate.overlaps(r) for r in regions)
                assert occupancy.overlaps(candidate) == expected

    def test_incremental_add(self):
        occupancy = RegionOccupancy()
        a = Region(row=1, col=5, height=2, width=3)
        assert not occupancy.overlaps(a)
        occupancy.add(a)
        assert occupancy.overlaps(Region(row=2, col=6, height=1, width=1))
        assert not occupancy.overlaps(Region(row=3, col=5, height=1, width=3))
        assert len(occupancy) == 1 and occupancy.regions == (a,)

    def test_key_is_order_insensitive(self):
        a = Region(row=1, col=2, height=1, width=2)
        b = Region(row=3, col=9, height=2, width=1)
        assert RegionOccupancy([a, b]).key() == RegionOccupancy([b, a]).key()


class TestGroupGeometry:
    def test_member_order_does_not_change_geometry(self):
        fir = paper_requirements("fir", "virtex6")
        mips = paper_requirements("mips", "virtex6")
        family = DEVICES["xc6vlx75t"].family
        a = prr_geometry_for_rows([fir, mips], family, 1)
        b = prr_geometry_for_rows([mips, fir], family, 1)
        assert a == b

    def test_infeasible_raises_fresh_error_without_growing_traceback(self):
        prm = paper_requirements("fir", "virtex5")
        errors, depths = [], []
        for _ in range(6):
            with pytest.raises(InfeasibleGeometryError, match="needs H >=") as info:
                prr_geometry_for_rows(prm, VIRTEX5, 1, single_dsp_column=True)
            errors.append(info.value)
            depths.append(len(traceback.extract_tb(info.value.__traceback__)))
        assert len(set(depths)) == 1, f"traceback depth grows across calls: {depths}"
        assert len({id(e) for e in errors}) == len(errors)
        assert len({str(e) for e in errors}) == 1


class TestPlacementCache:
    def test_cached_equals_uncached(self):
        device = DEVICES["xc5vlx110t"]
        cache = PlacementCache()
        prm = paper_requirements("mips", "virtex5")
        direct = find_prr(device, prm)
        cached = cache.find_prr(device, [prm], forbidden=RegionOccupancy())
        again = cache.find_prr(device, [prm], forbidden=RegionOccupancy())
        assert cached == direct and again == direct
        assert cache.hits == 1 and cache.misses == 1

    def test_not_found_cached(self):
        device = DEVICES["xc5vlx110t"]
        cache = PlacementCache()
        from repro.core.params import PRMRequirements

        monster = PRMRequirements("monster", 10**6, 10**6, 0)
        for _ in range(2):
            with pytest.raises(PlacementNotFoundError, match="monster"):
                cache.find_prr(device, [monster], forbidden=RegionOccupancy())
        assert cache.hits == 1 and cache.misses == 1

    def test_infeasible_hits_pin_no_growing_traceback(self):
        device = DEVICES["xc5vlx110t"]
        cache = PlacementCache()
        from repro.core.params import PRMRequirements

        monster = PRMRequirements("monster", 10**6, 10**6, 0)
        errors, depths = [], []
        for _ in range(6):
            with pytest.raises(PlacementNotFoundError, match="monster") as info:
                cache.find_prr(device, [monster], forbidden=RegionOccupancy())
            errors.append(info.value)
            depths.append(len(traceback.extract_tb(info.value.__traceback__)))
        assert cache.hits == 5 and cache.misses == 1
        assert len(set(depths[1:])) == 1, f"traceback depth grows across hits: {depths}"
        assert len({id(e) for e in errors}) == len(errors)
        assert len({str(e) for e in errors}) == 1

    def test_forbidden_set_distinguished(self):
        device = DEVICES["xc5vlx110t"]
        cache = PlacementCache()
        prm = paper_requirements("sdram", "virtex5")
        free = cache.find_prr(device, [prm], forbidden=RegionOccupancy())
        blocked = cache.find_prr(
            device, [prm], forbidden=RegionOccupancy([free.region])
        )
        assert not blocked.region.overlaps(free.region)
        assert cache.misses == 2


class TestGroupBounds:
    def test_bounds_are_admissible_for_paper_cases(self):
        for device_name, family in (("xc5vlx110t", "virtex5"), ("xc6vlx75t", "virtex6")):
            device = DEVICES[device_name]
            for workload in ("fir", "mips", "sdram"):
                prm = paper_requirements(workload, family)
                bounds = group_lower_bounds(device, [prm])
                assert isinstance(bounds, GroupBounds)
                placed = find_prr(device, prm)
                assert bounds.min_size <= placed.size
                assert bounds.min_bytes <= placed.bitstream_bytes

    def test_group_bounds_dominate_members(self):
        device = DEVICES["xc6vlx75t"]
        fir = paper_requirements("fir", "virtex6")
        mips = paper_requirements("mips", "virtex6")
        merged = group_lower_bounds(device, [fir, mips])
        for member in ([fir], [mips]):
            solo = group_lower_bounds(device, member)
            assert merged.min_size >= solo.min_size
            assert merged.min_bytes >= solo.min_bytes

    def test_infeasible_group_returns_none(self):
        from repro.core.params import PRMRequirements

        device = DEVICES["xc5vlx110t"]  # single DSP column, 8 rows
        impossible = PRMRequirements(
            "dsphog", lut_ff_pairs=100, luts=100, ffs=0, dsps=8 * 8 + 1
        )
        assert group_lower_bounds(device, [impossible]) is None

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="at least one PRM"):
            group_lower_bounds(DEVICES["xc5vlx110t"], [])

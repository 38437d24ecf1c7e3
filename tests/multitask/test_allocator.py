"""Online PRR allocation and defragmentation on :class:`FabricRuntime`.

The runtime is the one online allocator: ``admit`` places a PRR for a
demand around the live modules, ``retire`` frees it, and an admission
that fails (or finds the fabric too fragmented) runs a defrag pass of
compatibility-checked migrations first unless ``auto_defrag`` is off.
"""

import pytest

from repro.core.params import PRMRequirements
from repro.devices.catalog import XC5VLX110T
from repro.fabric import AdmissionError, FabricConfig, FabricRuntime

from tests.conftest import paper_requirements

NO_DEFRAG = FabricConfig(auto_defrag=False)


def small_prm(name, pairs=300):
    return PRMRequirements(name, pairs, pairs * 3 // 4, pairs // 2)


class TestAllocateFree:
    def test_allocate_places_validly(self):
        runtime = FabricRuntime(XC5VLX110T)
        module = runtime.admit("a", small_prm("a"))
        assert XC5VLX110T.is_valid_prr(module.region)

    def test_allocations_disjoint(self):
        runtime = FabricRuntime(XC5VLX110T)
        regions = [
            runtime.admit(f"t{i}", small_prm(f"t{i}")).region for i in range(4)
        ]
        for i, a in enumerate(regions):
            for b in regions[i + 1 :]:
                assert not a.overlaps(b)

    def test_duplicate_name_rejected(self):
        runtime = FabricRuntime(XC5VLX110T)
        runtime.admit("a", small_prm("a"))
        with pytest.raises(ValueError, match="already admitted"):
            runtime.admit("a", small_prm("a"))

    def test_free_unknown_rejected(self):
        with pytest.raises(ValueError, match="ghost"):
            FabricRuntime(XC5VLX110T).retire("ghost")

    def test_free_releases_space(self):
        runtime = FabricRuntime(XC5VLX110T)
        module = runtime.admit("a", small_prm("a"))
        runtime.retire("a")
        assert not runtime.modules
        again = runtime.admit("b", small_prm("b"))
        assert again.region == module.region  # bottom-left reuse

    def test_paper_prms_allocate_together(self):
        runtime = FabricRuntime(XC5VLX110T)
        for workload in ("fir", "mips", "sdram"):
            runtime.admit(workload, paper_requirements(workload, "virtex5"))
        assert len(runtime.modules) == 3
        runtime.check_invariants()

    def test_impossible_demand_fails(self):
        runtime = FabricRuntime(XC5VLX110T)
        with pytest.raises(AdmissionError):
            runtime.admit("monster", PRMRequirements("m", 10**6, 10**6, 0))
        assert runtime.admission_failures == 1


class TestFragmentationAndDefrag:
    """Scenario device: one row of 12 interchangeable CLB columns, so
    external fragmentation is purely horizontal and every position is
    relocation-compatible (as in a homogeneous PRR slot architecture)."""

    @staticmethod
    def _toy():
        from repro.devices import VIRTEX5, make_device

        return make_device("toy_alloc", VIRTEX5, rows=1, layout="I C*12 I")

    #: Width-2 tenant: 2 cols x 20 CLBs x 8 pairs = 320 sites.
    TENANT = PRMRequirements("tenant", 300, 225, 150)
    #: Width-4 demand: needs 4 contiguous CLB columns.
    WIDE = PRMRequirements("wide", 640, 480, 320)

    def _fill_then_hole(self, defragment):
        """Six width-2 tenants fill the row; retiring alternating tenants
        leaves three width-2 holes — no width-4 window survives."""
        runtime = FabricRuntime(
            self._toy(), config=None if defragment else NO_DEFRAG
        )
        for i in range(6):
            runtime.admit(f"t{i}", self.TENANT)
        for i in range(0, 6, 2):
            runtime.retire(f"t{i}")
        return runtime

    def test_fragmentation_metric_in_range(self):
        runtime = self._fill_then_hole(defragment=False)
        # 6 free cells, largest free rectangle is 2 wide -> frag = 2/3.
        assert runtime.fragmentation_index() == pytest.approx(2 / 3)

    def test_without_defrag_fails(self):
        plain = self._fill_then_hole(defragment=False)
        with pytest.raises(AdmissionError):
            plain.admit("wide", self.WIDE)
        assert plain.admission_failures == 1
        assert plain.migrations == 0

    def test_defrag_compacts_and_recovers(self):
        runtime = self._fill_then_hole(defragment=True)
        before = runtime.fragmentation_index()
        module = runtime.admit("wide", self.WIDE)
        assert module.region.width == 4
        assert runtime.migrations > 0
        assert runtime.fragmentation_index() < before

    def test_compaction_keeps_allocations_disjoint(self):
        runtime = self._fill_then_hole(defragment=True)
        runtime.admit("wide", self.WIDE)
        regions = runtime.occupied_regions()
        for i, a in enumerate(regions):
            for b in regions[i + 1 :]:
                assert not a.overlaps(b)
        runtime.check_invariants()

    def test_moves_counted_per_allocation(self):
        runtime = self._fill_then_hole(defragment=True)
        runtime.admit("wide", self.WIDE)
        moved = [e.detail.split(":")[0] for e in runtime.events if e.kind == "migrate"]
        assert moved and set(moved) <= set(runtime.modules)
        assert len(moved) == runtime.migrations

"""FabricRuntime: admission, defrag, migration rollback, fault retirement."""

import pytest

from repro.core import PRMRequirements
from repro.core.floorplanner import floorplan
from repro.devices import XC5VLX110T, synthetic_device
from repro.errors import InvalidInput
from repro.fabric import (
    AdmissionError,
    FabricConfig,
    FabricRuntime,
    MigrationStep,
    plan_defrag_pass,
)
from repro.faults import FaultInjector

# One fabric row of 12 contiguous CLB columns: every module is a 1xW
# strip, so placements and holes are easy to reason about.
ROW = synthetic_device(rows=1, clb_runs=(12,), name="rowdev")


def clb_demand(name: str, columns: int) -> PRMRequirements:
    """Demand sized to exactly *columns* CLB columns on ROW (H=1)."""
    per_col = ROW.family.clb_per_col * ROW.family.luts_per_clb
    cells = columns * per_col
    return PRMRequirements(name, cells, cells, cells)


class TestAdmission:
    def test_admit_places_and_counts(self):
        rt = FabricRuntime(ROW)
        module = rt.admit("a", clb_demand("a", 3))
        assert module.region.width == 3
        assert rt.admissions == 1
        rt.check_invariants()

    def test_duplicate_name_rejected(self):
        rt = FabricRuntime(ROW)
        rt.admit("a", clb_demand("a", 2))
        with pytest.raises(InvalidInput):
            rt.admit("a", clb_demand("a", 2))

    def test_admission_failure_raises_typed_error(self):
        rt = FabricRuntime(ROW)
        with pytest.raises(AdmissionError):
            rt.admit("huge", clb_demand("huge", 13))
        assert rt.admission_failures == 1

    def test_retire_frees_the_region(self):
        rt = FabricRuntime(ROW)
        rt.admit("a", clb_demand("a", 12))
        rt.retire("a")
        assert rt.module_names() == frozenset()
        rt.admit("b", clb_demand("b", 12))
        rt.check_invariants()

    def test_retire_unknown_module_rejected(self):
        rt = FabricRuntime(ROW)
        with pytest.raises(InvalidInput):
            rt.retire("ghost")

    def test_admit_group_on_empty_fabric_matches_static_floorplan(self):
        groups = [[clb_demand(f"m{i}", 2 + i)] for i in range(3)]
        names = [f"m{i}" for i in range(3)]
        plan = floorplan(XC5VLX110T, groups)
        rt = FabricRuntime(XC5VLX110T)
        modules = rt.admit_group(list(zip(names, groups)))
        assert [m.region for m in modules] == [p.region for p in plan.prrs]
        snapshot = rt.floorplan_snapshot()
        assert snapshot.group_names == tuple(names)
        rt.check_invariants()


class TestDefrag:
    def test_fragmented_admission_recovers_via_defrag(self):
        rt = FabricRuntime(ROW)
        rt.admit("a", clb_demand("a", 4))
        rt.admit("b", clb_demand("b", 4))
        rt.admit("c", clb_demand("c", 4))
        rt.retire("a")
        rt.retire("c")
        # Free space is 4 + 4 split around b; a width-6 demand needs
        # defrag to slide b left first.
        module = rt.admit("wide", clb_demand("wide", 6))
        assert module.region.width == 6
        assert rt.migrations >= 1
        rt.check_invariants()

    def test_no_defrag_config_fails_fragmented_admission(self):
        rt = FabricRuntime(ROW, config=FabricConfig(auto_defrag=False))
        rt.admit("a", clb_demand("a", 4))
        rt.admit("b", clb_demand("b", 4))
        rt.admit("c", clb_demand("c", 4))
        rt.retire("a")
        rt.retire("c")
        with pytest.raises(AdmissionError):
            rt.admit("wide", clb_demand("wide", 6))
        rt.check_invariants()

    def test_defrag_compacts_bottom_left(self):
        rt = FabricRuntime(ROW)
        rt.admit("a", clb_demand("a", 3))
        rt.admit("b", clb_demand("b", 3))
        rt.retire("a")
        before = rt.get("b").region
        result = rt.defrag()
        after = rt.get("b").region
        assert result.moved == ("b",)
        assert (after.row, after.col) < (before.row, before.col)
        rt.check_invariants()

    def test_movable_predicate_pins_modules(self):
        rt = FabricRuntime(ROW)
        rt.admit("a", clb_demand("a", 3))
        rt.admit("b", clb_demand("b", 3))
        rt.retire("a")
        result = rt.defrag(movable=lambda name: False)
        assert result.moved == ()

    def test_planner_never_targets_region_overlapping_source(self):
        steps = plan_defrag_pass(
            ROW,
            {"a": __import__("repro.devices", fromlist=["Region"]).Region(
                row=1, col=3, height=1, width=3
            )},
        )
        for step in steps:
            assert not step.target.overlaps(step.source)


class TestMigrationRollback:
    def _fragmented_runtime(self, **config) -> FabricRuntime:
        rt = FabricRuntime(ROW, **config)
        rt.admit("a", clb_demand("a", 3))
        rt.admit("b", clb_demand("b", 3))
        rt.retire("a")
        return rt

    def test_verify_failure_rolls_back_model_mode(self):
        # fault_rate=1.0: every transfer fails verify -> every migration
        # attempt exhausts its retries and rolls back.
        injector = FaultInjector.from_rates(seed=1, fault_rate=1.0)
        rt = self._fragmented_runtime(injector=injector)
        before = rt.get("b").region
        result = rt.defrag()
        assert result.moved == ()
        assert result.rollbacks >= 1
        assert rt.rollbacks >= 1
        assert rt.get("b").region == before
        rt.check_invariants()

    def test_verify_failure_rolls_back_crc_mode(self):
        injector = FaultInjector.from_rates(seed=1, fault_rate=1.0)
        rt = self._fragmented_runtime(
            config=FabricConfig(verify="crc"), injector=injector
        )
        before = rt.get("b").region
        result = rt.defrag()
        assert result.moved == ()
        assert rt.rollbacks >= 1
        assert rt.get("b").region == before
        # The source image survived the rolled-back migration intact.
        rt.check_invariants()

    def test_crc_mode_migration_moves_configuration(self):
        rt = self._fragmented_runtime(config=FabricConfig(verify="crc"))
        source = rt.get("b").region
        result = rt.defrag()
        assert result.moved == ("b",)
        target = rt.get("b").region
        assert target != source
        assert rt.memory.region_is_configured(target)
        assert not rt.memory.region_is_configured(source)
        rt.check_invariants()


class TestCrashRecovery:
    @pytest.mark.parametrize("phase", ["copy", "verify", "activate", "free"])
    def test_crash_at_phase_never_loses_module(self, phase):
        rt = FabricRuntime(ROW, config=FabricConfig(verify="crc"))
        rt.admit("a", clb_demand("a", 3))
        rt.admit("b", clb_demand("b", 3))
        rt.retire("a")

        def crash(p: str, step: MigrationStep) -> None:
            if p == phase:
                raise RuntimeError("power cut")

        rt.crash_hook = crash
        with pytest.raises(RuntimeError):
            rt.defrag()
        rt.crash_hook = None
        outcome = rt.recover()
        assert outcome in ("completed", "aborted")
        # The module is intact no matter where the crash landed.
        assert rt.module_names() == frozenset({"b"})
        rt.check_invariants()
        if phase == "free":
            assert outcome == "completed"
        else:
            assert outcome == "aborted"

    def test_recover_without_crash_is_noop(self):
        rt = FabricRuntime(ROW)
        assert rt.recover() is None

    def test_next_admit_runs_recovery_automatically(self):
        rt = FabricRuntime(ROW, config=FabricConfig(verify="crc"))
        rt.admit("a", clb_demand("a", 3))
        rt.admit("b", clb_demand("b", 3))
        rt.retire("a")
        rt.crash_hook = lambda p, step: (_ for _ in ()).throw(
            RuntimeError("crash")
        ) if p == "activate" else None
        with pytest.raises(RuntimeError):
            rt.defrag()
        rt.crash_hook = None
        rt.admit("c", clb_demand("c", 3))
        assert rt.module_names() == frozenset({"b", "c"})
        rt.check_invariants()


class TestPermanentFaults:
    def test_retire_column_blacklists_and_migrates(self):
        rt = FabricRuntime(ROW)
        module = rt.admit("a", clb_demand("a", 3))
        struck = module.region.col
        evicted = rt.retire_column(struck)
        assert evicted == []
        assert struck in rt.retired_columns
        assert struck not in rt.get("a").region.col_span
        assert rt.migrations == 1
        rt.check_invariants()

    def test_evicting_unreplaceable_module_keeps_compacted_frames(self):
        # Regression (hypothesis counterexample): a fault strikes a wide
        # module's column on a full fabric; _replace_module clears its
        # frames, the defrag pass compacts a neighbor *into* that old
        # footprint, and re-placement still fails.  The final eviction
        # must not clear the stale region again — that would wipe the
        # neighbor's freshly configured frames.
        device = synthetic_device(rows=1, clb_runs=(10,), name="packed-row")
        per_col = device.family.clb_per_col * device.family.luts_per_clb

        def demand(name, cols):
            return PRMRequirements(name, cols * per_col, cols * per_col,
                                   cols * per_col)

        rt = FabricRuntime(device, config=FabricConfig(verify="crc"))
        rt.admit("wide", demand("wide", 2))
        for i in range(5):
            rt.admit(f"m{i}", demand(f"m{i}", 1))
        rt.admit("tail", demand("tail", 2))
        struck = rt.get("wide").region.col
        evicted = rt.retire_column(struck)
        assert evicted == ["wide"]
        assert rt.module_names() == {"m0", "m1", "m2", "m3", "m4", "tail"}
        rt.check_invariants()  # every surviving region still configured

    def test_retire_column_twice_is_idempotent(self):
        rt = FabricRuntime(ROW)
        rt.retire_column(3)
        assert rt.retire_column(3) == []
        assert rt.columns_retired == 1

    def test_out_of_range_column_rejected(self):
        rt = FabricRuntime(ROW)
        with pytest.raises(InvalidInput):
            rt.retire_column(0)

    def test_eviction_only_when_capacity_truly_shrank(self):
        rt = FabricRuntime(ROW)
        rt.admit("hi", clb_demand("hi", 6), priority=2)
        rt.admit("lo", clb_demand("lo", 6), priority=0)
        # Full fabric, no retired columns: admission fails without
        # touching the admitted modules even though eviction is allowed.
        with pytest.raises(AdmissionError):
            rt.admit("new", clb_demand("new", 3), priority=1,
                     can_evict=lambda name: True)
        assert rt.module_names() == frozenset({"hi", "lo"})
        # Retire a column under "lo": capacity shrank, nothing can host
        # a 6-wide module any more, so the displaced low-priority module
        # is evicted while the high-priority one survives.
        struck = rt.get("lo").region.col
        evicted = rt.retire_column(struck, can_evict=lambda name: True)
        assert evicted == ["lo"]
        assert rt.module_names() == frozenset({"hi"})
        rt.check_invariants()

    def test_displaced_high_priority_evicts_lower(self):
        rt = FabricRuntime(ROW)
        rt.admit("hi", clb_demand("hi", 6), priority=2)
        rt.admit("lo", clb_demand("lo", 6), priority=0)
        struck = rt.get("hi").region.col
        evicted = rt.retire_column(struck, can_evict=lambda name: True)
        # The high-priority module displaces the low-priority one.
        assert evicted == ["lo"]
        assert rt.module_names() == frozenset({"hi"})
        assert struck not in rt.get("hi").region.col_span
        rt.check_invariants()

    def test_displaced_module_evicted_by_another_is_not_replaced(self):
        # Regression (hypothesis counterexample): one column strikes two
        # stacked modules; re-placing the higher-priority one evicts the
        # other, which must then be skipped rather than re-placed.
        device = synthetic_device(rows=2, clb_runs=(4,), name="two-rows")
        per_col = device.family.clb_per_col * device.family.luts_per_clb
        demand = PRMRequirements("strip", 4 * per_col, 4 * per_col, 4 * per_col)
        rt = FabricRuntime(device)
        hi = rt.admit("hi", demand, priority=1)
        lo = rt.admit("lo", demand, priority=0)
        assert hi.region.col_span == lo.region.col_span
        struck = hi.region.col
        evicted = rt.retire_column(struck, can_evict=lambda name: True)
        assert evicted == ["lo"] and rt.evictions == 1
        assert struck not in rt.get("hi").region.col_span
        rt.check_invariants()

    def test_quarantine_streak_escalates_to_retirement(self):
        rt = FabricRuntime(ROW, config=FabricConfig(escalation_streak=2))
        assert rt.note_quarantine(4) is False
        assert 4 not in rt.retired_columns
        assert rt.note_quarantine(4) is True
        assert 4 in rt.retired_columns
        # Already permanent: further quarantines do not re-escalate.
        assert rt.note_quarantine(4) is False

    def test_blacklisted_columns_never_receive_placements(self):
        rt = FabricRuntime(ROW)
        for col in (2, 3, 4):
            rt.retire_column(col)
        module = rt.admit("a", clb_demand("a", 3))
        assert not set(module.region.col_span) & rt.retired_columns
        rt.check_invariants()

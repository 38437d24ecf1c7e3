"""Self-healing fabric runtime: a live floorplan that survives churn.

The static :func:`repro.core.floorplanner.floorplan` answers "where do
these PRRs go" once.  :class:`FabricRuntime` keeps that answer healthy
over a run's lifetime:

* **dynamic admission/retirement** — modules arrive and leave; each
  admission re-runs the Fig. 1 placement search against the currently
  occupied regions and the permanent-fault blacklist;
* **fragmentation tracking** — the free-cell grid's largest free
  rectangle and fragmentation index (:mod:`repro.devices.freespace`)
  gate a defragmentation pass whenever admission fails;
* **defragmentation with transactional migration** — each planned move
  (:mod:`repro.fabric.defrag`) executes as *copy → CRC verify → activate
  → free*: the target image is staged (re-addressed via
  :func:`repro.relocation.relocate_bitstream` in ``verify="crc"`` mode),
  verified with the configuration CRC
  (:func:`repro.faults.reliable.payload_crc`, i.e.
  :class:`repro.bitgen.crc.ConfigCrc` semantics), and only then
  committed; a verify failure rolls back to the source region, and a
  crash at *any* phase boundary leaves a transaction record
  :meth:`FabricRuntime.recover` completes or aborts — a module is never
  lost mid-migration;
* **permanent-fault retirement** — columns struck by a
  :class:`repro.faults.models.PermanentColumnFault` (or escalated by a
  :class:`repro.faults.degraded.QuarantineEscalation` streak) join a
  blacklist; displaced modules are re-floorplanned around it, and
  lowest-priority modules are evicted only when capacity truly shrank.

All time is model time passed by the caller (``now=``); the runtime
holds no wall clock and no unseeded randomness — with the same call
sequence and the same injector seed, every counter and placement is
bit-identical.

**Layout table.**  Three of the questions an admission asks are pure
functions of the live *layout* — the set of occupied regions plus the
retired columns — and the immutable device: the fragmentation index,
the Fig. 1 placement of a demand group (a :class:`PlacedPRR` or
``None``), and the steps of one defrag pass.  A churning job stream of a
few modules keeps revisiting the same few layouts, so each runtime keeps
one table that answers each question once per layout:

* fragmentation index — keyed by the layout;
* placement — keyed by the layout and the demand group;
* a group's ranked Fig. 1 candidates — keyed by the group alone, so a
  placement miss re-derives no geometry;
* defrag-pass steps (a tuple) — keyed by the *named* placements, the
  retired columns and the movable set, since step order breaks ties by
  module name and only movable modules move.

The live regions, bare and named, are kept in sets updated where the
layout changes (install, remove, migration activation, column
retirement); a key is rebuilt from them only after such a change, as a
set copy that re-hashes no region.  :class:`FabricConfig` is not an
input to any answer, so no entry ever goes stale.  The table is cleared
whenever it reaches :data:`LAYOUT_TABLE_CAP` entries, which bounds it
on streams whose layouts rarely repeat.  It lives on the instance: a
fresh runtime starts cold, and answers never leak between runtimes.
Stored answers are immutable (frozen :class:`PlacedPRR`, tuples of
frozen :class:`~repro.fabric.defrag.MigrationStep`), so sharing one
between callers is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from ..bitgen.generator import PartialBitstream, generate_partial_bitstream
from ..core.floorplanner import Floorplan, floorplan
from ..core.params import PRMRequirements
from ..core.placement_search import PlacedPRR, place_ranked, rank_candidates
from ..devices.fabric import Device, Region
from ..devices.freespace import (
    fragmentation_index,
    free_cell_grid,
    largest_free_rectangle,
)
from ..errors import InfeasiblePlacement, InvalidInput
from ..faults.degraded import QuarantineEscalation
from ..faults.injector import FaultInjector
from ..faults.reliable import payload_crc
from ..obs import trace as _obs
from ..relocation.memory import ConfigMemory
from ..relocation.relocate import relocate_bitstream
from .defrag import MigrationStep, plan_defrag_pass

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "AdmissionError",
    "DefragResult",
    "FabricConfig",
    "FabricEvent",
    "FabricModule",
    "FabricRuntime",
]

#: Predicate the scheduler supplies: may this module be moved/evicted now?
ModulePredicate = Callable[[str], bool]

#: Entries a runtime's layout table holds before it is cleared.
LAYOUT_TABLE_CAP = 4096

#: Table-miss marker (``None`` is a stored answer: "no placement").
_MISSING = object()


class AdmissionError(InfeasiblePlacement):
    """No healthy region can host the module, even after defrag/evict."""


@dataclass(frozen=True, slots=True)
class FabricConfig:
    """Tuning knobs of one :class:`FabricRuntime`."""

    #: ``"model"`` — migration verify is a Bernoulli outcome from the
    #: injector (fast, what soak benchmarks use); ``"crc"`` — real
    #: bitstreams live in a :class:`~repro.relocation.memory.ConfigMemory`,
    #: migrations re-address actual frames and the verify stage
    #: re-accumulates the configuration CRC over the received bytes.
    verify: str = "model"
    port_bytes_per_s: float = 400e6  #: ICAP throughput for time accounting
    migration_attempts: int = 3  #: verify retries before rolling back
    #: Run a defrag pass automatically when admission fails or the
    #: fragmentation index exceeds ``defrag_threshold``.
    auto_defrag: bool = True
    defrag_threshold: float = 0.5
    max_defrag_passes: int = 4  #: compaction passes per defrag() call
    #: Quarantine-streak escalation: quarantines of the same column
    #: before it is retired as permanently damaged.
    escalation_streak: int = 2

    def __post_init__(self) -> None:
        if self.verify not in ("model", "crc"):
            raise InvalidInput(
                f"verify must be 'model' or 'crc', got {self.verify!r}"
            )
        if self.port_bytes_per_s <= 0:
            raise InvalidInput("port_bytes_per_s must be positive")
        if self.migration_attempts < 1:
            raise InvalidInput("migration_attempts must be >= 1")
        if not 0.0 <= self.defrag_threshold <= 1.0:
            raise InvalidInput("defrag_threshold must be in [0, 1]")
        if self.max_defrag_passes < 1:
            raise InvalidInput("max_defrag_passes must be >= 1")
        if self.escalation_streak < 1:
            raise InvalidInput("escalation_streak must be >= 1")


@dataclass(frozen=True, slots=True)
class FabricEvent:
    """One entry of the runtime's structured event log."""

    time_s: float
    kind: str  #: admit | admit_failed | retire | evict | migrate | rollback | defrag | column_retired | recover
    detail: str

    def render(self) -> str:
        return f"t={self.time_s * 1e3:9.3f}ms {self.kind:15} {self.detail}"


@dataclass
class FabricModule:
    """One live module: its demand group and current placement."""

    name: str
    group: tuple[PRMRequirements, ...]
    placement: PlacedPRR
    priority: int = 0
    admitted_s: float = 0.0
    bitstream: PartialBitstream | None = None  #: golden image (crc mode)

    @property
    def region(self) -> Region:
        return self.placement.region

    @property
    def bitstream_bytes(self) -> int:
        return self.placement.bitstream_bytes


@dataclass(frozen=True, slots=True)
class DefragResult:
    """Outcome of one :meth:`FabricRuntime.defrag` call."""

    moved: tuple[str, ...]
    rollbacks: int

    @property
    def migrations(self) -> int:
        return len(self.moved)


@dataclass
class _MigrationTxn:
    """In-flight migration record; drives :meth:`FabricRuntime.recover`.

    ``phase`` is the last *committed* phase: ``"copy"`` and
    ``"verified"`` mean the module still lives at the source (abort on
    recovery), ``"activated"`` means the target committed and only the
    source free is outstanding (complete on recovery).
    """

    step: MigrationStep
    phase: str = "copy"
    staged_bitstream: PartialBitstream | None = None
    staged_payload: bytes | None = None


class FabricRuntime:
    """Live multi-PRR floorplan with defrag, rollback and fault retirement.

    The scheduler-facing surface is :meth:`admit` / :meth:`retire` /
    :meth:`retire_column` plus the fragmentation queries; everything
    else (defrag planning, transactional migration, escalation) happens
    behind them.  ``movable``/``can_evict`` predicates let the caller
    veto touching busy modules.
    """

    def __init__(
        self,
        device: Device,
        *,
        config: FabricConfig | None = None,
        injector: FaultInjector | None = None,
    ) -> None:
        self.device = device
        self.config = config if config is not None else FabricConfig()
        self.injector = injector
        self.memory = (
            ConfigMemory(device) if self.config.verify == "crc" else None
        )
        self.escalation = QuarantineEscalation(self.config.escalation_streak)
        #: Test seam: called at each migration phase boundary with
        #: ``(phase, step)``; raising simulates a crash mid-migration.
        self.crash_hook: Callable[[str, MigrationStep], None] | None = None
        self._modules: dict[str, FabricModule] = {}
        self._retired_columns: set[int] = set()
        self._blacklist: tuple[Region, ...] = ()  #: see blacklist_regions()
        self._in_flight: _MigrationTxn | None = None
        self.events: list[FabricEvent] = []
        # Lifetime counters (mirrored to fabric.* metrics when obs is on).
        self.admissions = 0
        self.admission_failures = 0
        self.retirements = 0
        self.evictions = 0
        self.defrag_passes = 0
        self.migrations = 0
        self.rollbacks = 0
        self.columns_retired = 0
        self.port_seconds_total = 0.0  #: model seconds of ICAP traffic
        #: Layout-pure answers and the live-region sets their keys are
        #: copied from (see the module docstring); a ``None`` key means
        #: "changed since last built".
        self._layout_table: dict[tuple, Any] = {}
        self._occupied: set[Region] = set()
        self._named: set[tuple[str, Region]] = set()
        self._layout_key: tuple[frozenset[Region], frozenset[int]] | None = None
        self._named_key: frozenset[tuple[str, Region]] | None = None

    # -- queries -------------------------------------------------------------

    @property
    def modules(self) -> Mapping[str, FabricModule]:
        return self._modules

    def get(self, name: str) -> FabricModule | None:
        return self._modules.get(name)

    def module_names(self) -> frozenset[str]:
        return frozenset(self._modules)

    @property
    def retired_columns(self) -> frozenset[int]:
        return frozenset(self._retired_columns)

    def occupied_regions(self, *, exclude: str | None = None) -> list[Region]:
        return [
            m.region
            for name, m in sorted(self._modules.items())
            if name != exclude
        ]

    def blacklist_regions(self) -> tuple[Region, ...]:
        """Retired columns as full-height width-1 forbidden regions."""
        return self._blacklist

    def free_grid(self) -> "np.ndarray":
        return free_cell_grid(
            self.device, self.occupied_regions(), self._retired_columns
        )

    def fragmentation_index(self) -> float:
        key = ("fragmentation", self._layout())
        index = self._layout_table.get(key, _MISSING)
        if index is _MISSING:
            index = self._remember(key, fragmentation_index(self.free_grid()))
        return index

    def largest_free_rectangle(self) -> int:
        return largest_free_rectangle(self.free_grid())

    def floorplan_snapshot(self) -> Floorplan:
        """The live layout as a static :class:`Floorplan` (render-able)."""
        return Floorplan(
            device=self.device,
            prrs=tuple(m.placement for m in self._modules.values()),
            group_names=tuple(self._modules),
        )

    def stats(self) -> dict[str, float]:
        """Counter snapshot (deterministic; what the CLI prints)."""
        return {
            "modules": len(self._modules),
            "admissions": self.admissions,
            "admission_failures": self.admission_failures,
            "retirements": self.retirements,
            "evictions": self.evictions,
            "defrag_passes": self.defrag_passes,
            "migrations": self.migrations,
            "rollbacks": self.rollbacks,
            "columns_retired": self.columns_retired,
            "fragmentation": round(self.fragmentation_index(), 4),
        }

    def check_invariants(self) -> None:
        """Assert the runtime's safety invariants (test hook).

        No two placements overlap, no placement touches a retired
        column, every placement is a valid PRR, the layout table's live
        region sets mirror the placements, and in ``crc`` mode every
        module's region is fully configured.
        """
        regions = [(name, m.region) for name, m in sorted(self._modules.items())]
        assert self._named == set(regions), "layout table out of step"
        assert self._occupied == {region for _, region in regions}
        for index, (name, region) in enumerate(regions):
            assert self.device.is_valid_prr(region), f"{name}: invalid PRR {region}"
            overlap = self._retired_columns.intersection(region.col_span)
            assert not overlap, f"{name}: placed on retired column(s) {sorted(overlap)}"
            for other, other_region in regions[index + 1 :]:
                assert not region.overlaps(other_region), (
                    f"{name} overlaps {other}"
                )
        if self.memory is not None:
            for name, module in sorted(self._modules.items()):
                assert module.bitstream is not None, f"{name}: no golden image"
                assert self.memory.region_is_configured(module.region), (
                    f"{name}: region {module.region} not configured"
                )

    # -- admission / retirement ----------------------------------------------

    def admit(
        self,
        name: str,
        requirements: PRMRequirements | Sequence[PRMRequirements],
        *,
        priority: int = 0,
        now: float = 0.0,
        movable: ModulePredicate | None = None,
        can_evict: ModulePredicate | None = None,
    ) -> FabricModule:
        """Place a new module, defragmenting (and, after permanent faults,
        evicting lower-priority modules) as needed.

        Raises :class:`AdmissionError` when no healthy region can host
        the demand even after recovery actions.
        """
        if self._in_flight is not None:
            self.recover(now=now)
        if name in self._modules:
            raise InvalidInput(f"module {name!r} is already admitted")
        group = self._normalize(requirements)
        with _obs.trace_span("fabric.admit", module=name):
            if (
                self.config.auto_defrag
                and self._modules
                and self.fragmentation_index() > self.config.defrag_threshold
            ):
                self.defrag(now=now, movable=movable)
            placement = self._try_place(group)
            if placement is None and self.config.auto_defrag:
                self.defrag(now=now, movable=movable)
                placement = self._try_place(group)
            # Evict only when capacity truly shrank (columns retired).
            while (
                placement is None
                and can_evict is not None
                and self._retired_columns
            ):
                if not self._evict_one(priority, can_evict, now):
                    break
                if self.config.auto_defrag:
                    self.defrag(now=now, movable=movable)
                placement = self._try_place(group)
            if placement is None:
                self.admission_failures += 1
                self._counter("fabric.admission_failures")
                self._event(now, "admit_failed", name)
                raise AdmissionError(
                    f"cannot admit module {name!r} on {self.device.name}",
                    module=name,
                    fragmentation=round(self.fragmentation_index(), 4),
                )
            module = FabricModule(
                name=name,
                group=group,
                placement=placement,
                priority=priority,
                admitted_s=now,
            )
            self._install(module, now)
            return module

    def admit_group(
        self,
        named_groups: Sequence[
            tuple[str, PRMRequirements | Sequence[PRMRequirements]]
        ],
        *,
        now: float = 0.0,
    ) -> list[FabricModule]:
        """Admit several modules at once.

        On an empty, healthy fabric this delegates to the static
        floorplanner, so a fault-free, churn-free runtime reproduces
        :func:`repro.core.floorplanner.floorplan` exactly.  Otherwise
        (or after faults) the modules are admitted one by one around the
        existing layout and blacklist.
        """
        items = [(name, self._normalize(group)) for name, group in named_groups]
        if not self._modules and not self._retired_columns:
            plan = floorplan(self.device, [group for _, group in items])
            modules = []
            for (name, group), prr in zip(items, plan.prrs):
                if name in self._modules:
                    raise InvalidInput(f"duplicate module name {name!r}")
                module = FabricModule(
                    name=name, group=group, placement=prr, admitted_s=now
                )
                self._install(module, now)
                modules.append(module)
            return modules
        return [self.admit(name, group, now=now) for name, group in items]

    def retire(self, name: str, *, now: float = 0.0) -> FabricModule:
        """Remove a module deliberately, freeing its region."""
        module = self._modules.get(name)
        if module is None:
            raise InvalidInput(f"no module named {name!r} is admitted")
        self._remove(module, now, kind="retire", detail=str(module.region))
        self.retirements += 1
        self._publish_fragmentation()
        return module

    # -- permanent faults -----------------------------------------------------

    def retire_column(
        self,
        col: int,
        *,
        now: float = 0.0,
        movable: ModulePredicate | None = None,
        can_evict: ModulePredicate | None = None,
    ) -> list[str]:
        """Blacklist a permanently-damaged column and re-floorplan.

        Modules placed over the column are re-placed from their golden
        bitstreams onto healthy regions (defragmenting for space); when
        nothing can host one — capacity truly shrank — the lowest-
        priority module gives way, or the displaced module itself is
        evicted.  Returns the names of evicted modules.
        """
        if not 1 <= col <= self.device.num_columns:
            raise InvalidInput(
                f"column {col} out of range 1..{self.device.num_columns}"
            )
        if col in self._retired_columns:
            return []
        with _obs.trace_span("fabric.retire_column", column=col):
            self._retired_columns.add(col)
            self._blacklist = tuple(
                Region(row=1, col=retired, height=self.device.rows, width=1)
                for retired in sorted(self._retired_columns)
            )
            self._layout_changed()
            self.columns_retired += 1
            self._counter("fabric.columns_retired")
            self._event(now, "column_retired", f"col{col}")
            before = set(self._modules)
            displaced = [
                m
                for _, m in sorted(self._modules.items())
                if col in m.region.col_span
            ]
            # Highest priority first: it gets first pick of the space.
            for module in sorted(displaced, key=lambda m: (-m.priority, m.name)):
                if module.name not in self._modules:
                    continue  # evicted to make room for an earlier one
                if not self._replace_module(
                    module, now, movable=movable, can_evict=can_evict
                ):
                    # _replace_module already cleared the module's frames
                    # before defragmenting; by now another module may have
                    # been compacted into that footprint, so clearing the
                    # stale region again would wipe live configuration.
                    self._remove(
                        module,
                        now,
                        kind="evict",
                        detail="capacity shrank",
                        clear_memory=False,
                    )
                    self.evictions += 1
                    self._counter("fabric.evictions")
            self._publish_fragmentation()
            # Re-placement may itself have evicted lower-priority modules
            # to make room; report every module the fault cost us.
            return sorted(before - set(self._modules))

    def note_quarantine(
        self,
        col: int,
        *,
        now: float = 0.0,
        movable: ModulePredicate | None = None,
        can_evict: ModulePredicate | None = None,
    ) -> bool:
        """Record one quarantine of a fabric column.

        After ``config.escalation_streak`` quarantines of the same
        column the damage is treated as permanent
        (:class:`~repro.faults.degraded.QuarantineEscalation`) and the
        column is retired.  Returns True when that escalation fired.
        """
        if not self.escalation.record(col):
            return False
        if self.injector is not None:
            self.injector.record_permanent(
                now, f"col{col}", detail="quarantine-streak escalation"
            )
        self.retire_column(col, now=now, movable=movable, can_evict=can_evict)
        return True

    # -- defragmentation ------------------------------------------------------

    def defrag(
        self,
        *,
        now: float = 0.0,
        movable: ModulePredicate | None = None,
    ) -> DefragResult:
        """Compact live modules bottom-left (up to ``max_defrag_passes``).

        Each move runs the transactional copy → verify → activate → free
        protocol; verify failures roll the module back to its source and
        the pass replans around it.
        """
        with _obs.trace_span("fabric.defrag", modules=len(self._modules)):
            if self._in_flight is not None:
                self.recover(now=now)
            self.defrag_passes += 1
            self._counter("fabric.defrag_passes")
            moved: list[str] = []
            rollbacks = 0
            for _ in range(self.config.max_defrag_passes):
                movable_set = (
                    frozenset(n for n in self._modules if movable(n))
                    if movable is not None
                    else None
                )
                steps = self._plan_defrag_pass(movable_set)
                if not steps:
                    break
                progressed = False
                for step in steps:
                    if self._migrate(self._modules[step.name], step, now):
                        moved.append(step.name)
                        progressed = True
                    else:
                        rollbacks += 1
                        break  # replan around the module that stayed put
                if not progressed:
                    break
            self._event(
                now, "defrag", f"moved={len(moved)} rollbacks={rollbacks}"
            )
            self._publish_fragmentation()
            return DefragResult(moved=tuple(moved), rollbacks=rollbacks)

    # -- transactional migration ----------------------------------------------

    def recover(self, *, now: float = 0.0) -> str | None:
        """Finish or abort a migration interrupted mid-transaction.

        Idempotent; returns ``"completed"`` when the crashed migration
        had already activated its target (only the source free was
        outstanding), ``"aborted"`` when it had not (the module never
        left its source), ``None`` with nothing in flight.  Either way
        the module survives — a crashed migration never loses a module.
        """
        txn = self._in_flight
        if txn is None:
            return None
        self._in_flight = None
        if txn.phase == "activated":
            self._free_source(txn.step)
            self.migrations += 1
            self._counter("fabric.migrations")
            self._event(
                now,
                "recover",
                f"{txn.step.name}: completed migration to {txn.step.target}",
            )
            return "completed"
        self.rollbacks += 1
        self._counter("fabric.rollbacks")
        self._event(
            now,
            "recover",
            f"{txn.step.name}: aborted migration, stays @ {txn.step.source}",
        )
        return "aborted"

    def _migrate(
        self, module: FabricModule, step: MigrationStep, now: float
    ) -> bool:
        """Execute one move as copy → CRC verify → activate → free.

        Returns True when the module now lives at ``step.target``; False
        when verify retries were exhausted (module rolled back to the
        source) or the step no longer applies.  The crash hook fires at
        each phase boundary; an exception from it propagates with the
        transaction record set so :meth:`recover` can repair the state.
        """
        config = self.config
        # Re-validate against live state: an earlier rollback in the same
        # plan can leave a stale step.
        conflicts = self.occupied_regions(exclude=module.name)
        conflicts.extend(self.blacklist_regions())
        if (
            module.region != step.source
            or step.target.overlaps(step.source)
            or any(step.target.overlaps(region) for region in conflicts)
        ):
            return False
        hook = self.crash_hook
        txn = _MigrationTxn(step=step)
        self._in_flight = txn
        if hook is not None:
            hook("copy", step)
        # Copy: stage the target-addressed image (real frames in crc mode).
        staged: PartialBitstream | None = None
        payload: bytes | None = None
        expected = 0
        if self.memory is not None:
            assert module.bitstream is not None
            staged = relocate_bitstream(self.device, module.bitstream, step.target)
            payload = staged.to_bytes()
            expected = payload_crc(payload)
        txn.staged_bitstream = staged
        txn.staged_payload = payload
        if hook is not None:
            hook("verify", step)
        transfer_bytes = module.bitstream_bytes
        verified = False
        for attempt in range(1, config.migration_attempts + 1):
            self.port_seconds_total += transfer_bytes / config.port_bytes_per_s
            if self.memory is not None:
                received = payload
                if self.injector is not None:
                    received, _flips = self.injector.corrupt_bytes(
                        payload, now, f"migrate:{module.name}", attempt=attempt
                    )
                if payload_crc(received) == expected:
                    verified = True
                    break
            else:
                if self.injector is None:
                    verified = True
                    break
                outcome = self.injector.transfer_outcome(
                    now, f"migrate:{module.name}", attempt=attempt
                )
                if outcome.ok:
                    verified = True
                    break
        if not verified:
            self._in_flight = None
            self.rollbacks += 1
            self._counter("fabric.rollbacks")
            self._event(
                now,
                "rollback",
                f"{module.name}: verify failed, stays @ {step.source}",
            )
            return False
        txn.phase = "verified"
        if hook is not None:
            hook("activate", step)
        # Activate: the atomic commit — the verified image goes live and
        # the module's placement flips to the target.
        if self.memory is not None:
            self.memory.configure(payload)
            module.bitstream = staged
        self._vacate(module.name, step.source)
        module.placement = PlacedPRR(
            device=self.device,
            geometry=module.placement.geometry,
            region=step.target,
        )
        self._occupy(module.name, step.target)
        txn.phase = "activated"
        if hook is not None:
            hook("free", step)
        self._free_source(step)
        self._in_flight = None
        self.migrations += 1
        self._counter("fabric.migrations")
        self._event(now, "migrate", f"{module.name}: {step.source} -> {step.target}")
        return True

    def _free_source(self, step: MigrationStep) -> None:
        if self.memory is not None:
            self.memory.clear_region(step.source)

    # -- internals ------------------------------------------------------------

    @staticmethod
    def _normalize(
        requirements: PRMRequirements | Sequence[PRMRequirements],
    ) -> tuple[PRMRequirements, ...]:
        if isinstance(requirements, PRMRequirements):
            return (requirements,)
        group = tuple(requirements)
        if not group:
            raise InvalidInput("a module needs at least one PRM requirement")
        return group

    def _try_place(
        self, group: tuple[PRMRequirements, ...]
    ) -> PlacedPRR | None:
        key = ("place", self._layout(), group)
        placement = self._layout_table.get(key, _MISSING)
        if placement is not _MISSING:
            return placement
        ranked = self._layout_table.get(("rank", group))
        if ranked is None:
            ranked = self._remember(
                ("rank", group), rank_candidates(self.device, group)
            )
        forbidden = self.occupied_regions()
        forbidden.extend(self.blacklist_regions())
        return self._remember(key, place_ranked(self.device, ranked, forbidden))

    def _plan_defrag_pass(
        self, movable: frozenset[str] | None
    ) -> tuple[MigrationStep, ...]:
        named = self._named_key
        if named is None:
            named = self._named_key = frozenset(self._named)
        key = ("plan", named, self._layout()[1], movable)
        steps = self._layout_table.get(key, _MISSING)
        if steps is _MISSING:
            steps = self._remember(
                key,
                tuple(
                    plan_defrag_pass(
                        self.device,
                        {n: m.region for n, m in self._modules.items()},
                        self.blacklist_regions(),
                        movable=movable,
                    )
                ),
            )
        return steps

    def _layout(self) -> tuple[frozenset[Region], frozenset[int]]:
        """The current layout's key: occupied regions and retired columns."""
        key = self._layout_key
        if key is None:
            key = self._layout_key = (
                frozenset(self._occupied),
                frozenset(self._retired_columns),
            )
        return key

    def _occupy(self, name: str, region: Region) -> None:
        self._occupied.add(region)
        self._named.add((name, region))
        self._layout_changed()

    def _vacate(self, name: str, region: Region) -> None:
        self._occupied.discard(region)
        self._named.discard((name, region))
        self._layout_changed()

    def _layout_changed(self) -> None:
        self._layout_key = None
        self._named_key = None

    def _remember(self, key: tuple, answer: Any) -> Any:
        """Store one layout-pure *answer*, clearing a full table first."""
        table = self._layout_table
        if len(table) >= LAYOUT_TABLE_CAP:
            table.clear()
        table[key] = answer
        return answer

    def _install(self, module: FabricModule, now: float) -> None:
        if self.memory is not None:
            module.bitstream = generate_partial_bitstream(
                self.device, module.region, design_name=module.name
            )
            self.memory.configure(module.bitstream.to_bytes())
        self._modules[module.name] = module
        self._occupy(module.name, module.region)
        self.admissions += 1
        self.port_seconds_total += (
            module.bitstream_bytes / self.config.port_bytes_per_s
        )
        self._counter("fabric.admissions")
        self._event(now, "admit", f"{module.name} @ {module.region}")
        self._publish_fragmentation()

    def _remove(
        self,
        module: FabricModule,
        now: float,
        *,
        kind: str,
        detail: str = "",
        clear_memory: bool = True,
    ) -> None:
        # A fault-displaced module is already out of the map, and another
        # module may have been compacted into its stale region since.
        if self._modules.pop(module.name, None) is not None:
            self._vacate(module.name, module.region)
        if clear_memory and self.memory is not None:
            self.memory.clear_region(module.region)
        self._event(now, kind, f"{module.name} {detail}".strip())

    def _evict_one(
        self, max_priority: int, can_evict: ModulePredicate, now: float
    ) -> bool:
        """Evict the lowest-priority evictable module (<= *max_priority*)."""
        candidates = [
            m
            for _, m in sorted(self._modules.items())
            if m.priority <= max_priority and can_evict(m.name)
        ]
        if not candidates:
            return False
        victim = min(candidates, key=lambda m: (m.priority, m.name))
        self._remove(victim, now, kind="evict", detail="capacity shrank")
        self.evictions += 1
        self._counter("fabric.evictions")
        return True

    def _replace_module(
        self,
        module: FabricModule,
        now: float,
        *,
        movable: ModulePredicate | None,
        can_evict: ModulePredicate | None,
    ) -> bool:
        """Re-floorplan one fault-displaced module onto healthy fabric."""
        # Its current region sits on dead silicon: free it first so the
        # search (and any defrag) can use the healthy remainder.
        self._modules.pop(module.name)
        self._vacate(module.name, module.region)
        if self.memory is not None:
            self.memory.clear_region(module.region)
        placement = self._try_place(module.group)
        if placement is None and self.config.auto_defrag:
            self.defrag(now=now, movable=movable)
            placement = self._try_place(module.group)
        while placement is None and can_evict is not None:
            if not self._evict_one(module.priority, can_evict, now):
                break
            placement = self._try_place(module.group)
        if placement is None:
            # Caller records the eviction; keep the module out of the map.
            return False
        module.placement = placement
        self._install(module, now)
        self.admissions -= 1  # _install counts admissions; this is a move
        self.migrations += 1
        self._counter("fabric.migrations")
        self._event(
            now, "migrate", f"{module.name}: fault-displaced -> {placement.region}"
        )
        return True

    def _event(self, now: float, kind: str, detail: str) -> None:
        self.events.append(FabricEvent(time_s=now, kind=kind, detail=detail))

    def _counter(self, name: str, amount: float = 1) -> None:
        if not _obs.enabled:
            return
        registry = _obs.metrics()
        if registry is not None:
            registry.counter(name).inc(amount)

    def _publish_fragmentation(self) -> None:
        if not _obs.enabled:
            return
        registry = _obs.metrics()
        if registry is not None:
            registry.gauge("fabric.fragmentation").set(self.fragmentation_index())

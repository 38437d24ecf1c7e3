"""Defragmentation planning: compact live modules bottom-left.

Van der Veen et al. style module-layout defragmentation, adapted to the
column-window fabric model: a module may only move to a region with the
identical column-kind sequence (the HTR relocation constraint), so the
planner walks :func:`repro.relocation.iter_compatible_regions` for each
module's legal targets — with the occupied regions and the permanent-
fault blacklist excluded — and greedily moves every movable module to
the most bottom-left compatible hole.  One plan is a single pass; the
runtime executes passes until a pass moves nothing (fixed point).

Planning is pure (no runtime state, no RNG): given the same placements
it always yields the same steps, which keeps defragmentation inside the
determinism contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Mapping, Sequence

from ..devices.fabric import Device, Region
from ..relocation.relocate import iter_compatible_regions

__all__ = ["MigrationStep", "plan_defrag_pass"]


@dataclass(frozen=True, slots=True)
class MigrationStep:
    """One planned module move: relocate *name* from *source* to *target*."""

    name: str
    source: Region
    target: Region


def plan_defrag_pass(
    device: Device,
    placements: Mapping[str, Region],
    blacklist: Sequence[Region] = (),
    *,
    movable: AbstractSet[str] | None = None,
) -> list[MigrationStep]:
    """Plan one greedy compaction pass over *placements*.

    Modules are visited bottom-left first (already-compact modules are
    anchors for the rest); each movable module is assigned the most
    bottom-left compatible free region strictly better than its current
    spot.  ``movable=None`` means every module may move; otherwise only
    the named ones (the scheduler passes the idle set — a running module
    cannot be relocated mid-execution).

    Returns the steps in execution order.  The plan simulates its own
    moves, so later steps can target space earlier steps vacate.
    """
    current = dict(placements)
    order = sorted(current, key=lambda n: (current[n].row, current[n].col, n))
    steps: list[MigrationStep] = []
    banned = tuple(blacklist)
    for name in order:
        if movable is not None and name not in movable:
            continue
        source = current[name]
        exclude = [r for other, r in current.items() if other != name]
        exclude.extend(banned)
        # Targets come in (row, col) order, so the first one that does
        # not overlap its own source is the bottom-left choice, and none
        # at or past the source's own (row, col) is an improvement.
        for target in iter_compatible_regions(device, source, exclude=exclude):
            if (target.row, target.col) >= (source.row, source.col):
                break
            # A target overlapping its own source cannot be migrated
            # safely: the copy -> verify -> activate -> free protocol
            # frees the source frames after activation, which would wipe
            # part of the just-activated target.
            if target.overlaps(source):
                continue
            steps.append(MigrationStep(name=name, source=source, target=target))
            current[name] = target
            break
    return steps

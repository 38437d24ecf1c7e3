"""Runtime PRR allocation with relocation-based defragmentation.

Hardware multitasking systems that create and destroy PRRs at run time
fragment the fabric: freed regions leave holes that no longer fit new
tasks even when total free capacity suffices.  This module provides:

* :class:`PRRAllocator` — an online allocator over a device: allocate a
  PRR for a PRM (via the Fig. 1 flow with occupied regions forbidden),
  free it, and measure external fragmentation;
* relocation-based **defragmentation**: when an allocation fails, compact
  live PRRs toward the bottom-left using compatibility-checked moves
  (each move is a real relocation the :mod:`repro.relocation` machinery
  could execute), then retry.

The Ablation I benchmark shows the allocator with defragmentation
sustaining allocation streams that the plain allocator fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.params import PRMRequirements
from ..core.placement_search import (
    PlacementNotFoundError,
    find_prr,
)
from ..devices.fabric import Device, Region
from ..devices.freespace import fragmentation_index, free_cell_grid
from ..errors import InfeasiblePlacement
from ..relocation.relocate import compatible_regions

__all__ = ["Allocation", "AllocationFailed", "PRRAllocator"]


class AllocationFailed(InfeasiblePlacement):
    """No PRR fits, even after defragmentation (when enabled)."""


@dataclass
class Allocation:
    """One live PRR allocation."""

    name: str
    prm: PRMRequirements
    region: Region
    moves: int = 0  #: times this allocation has been relocated


@dataclass
class PRRAllocator:
    """Online PRR allocator for one device."""

    device: Device
    defragment: bool = True
    allocations: dict[str, Allocation] = field(default_factory=dict)
    relocation_count: int = 0
    failed_allocations: int = 0

    # -- allocation ---------------------------------------------------------

    def occupied_regions(self) -> list[Region]:
        return [allocation.region for allocation in self.allocations.values()]

    def allocate(self, name: str, prm: PRMRequirements) -> Allocation:
        """Allocate a PRR for *prm*; defragment and retry on failure."""
        if name in self.allocations:
            raise ValueError(f"allocation {name!r} already exists")
        try:
            placed = find_prr(self.device, prm, forbidden=self.occupied_regions())
        except PlacementNotFoundError:
            if not self.defragment or not self._compact():
                self.failed_allocations += 1
                raise AllocationFailed(
                    f"no PRR fits {prm.name!r} on {self.device.name} "
                    f"({len(self.allocations)} live allocations)"
                ) from None
            try:
                placed = find_prr(
                    self.device, prm, forbidden=self.occupied_regions()
                )
            except PlacementNotFoundError:
                self.failed_allocations += 1
                raise AllocationFailed(
                    f"no PRR fits {prm.name!r} even after defragmentation"
                ) from None
        allocation = Allocation(name=name, prm=prm, region=placed.region)
        self.allocations[name] = allocation
        return allocation

    def free(self, name: str) -> None:
        try:
            del self.allocations[name]
        except KeyError:
            raise KeyError(f"no allocation named {name!r}") from None

    # -- defragmentation -----------------------------------------------------

    def _compact(self) -> bool:
        """Slide live PRRs toward the bottom-left via compatible moves.

        Processes allocations bottom-left first; each is moved to the
        lowest/left-most compatible free region.  Returns True when at
        least one PRR moved (so a retry is worthwhile).
        """
        moved_any = False
        ordered = sorted(
            self.allocations.values(),
            key=lambda a: (a.region.row, a.region.col),
        )
        for allocation in ordered:
            target = self._best_target(allocation)
            if target is not None:
                allocation.region = target
                allocation.moves += 1
                self.relocation_count += 1
                moved_any = True
        return moved_any

    def _best_target(self, allocation: Allocation) -> Region | None:
        """The lowest/left-most compatible free region strictly better
        (lower row, then lower col) than the current one."""
        source = allocation.region
        others = [
            a.region for a in self.allocations.values() if a is not allocation
        ]
        for row in range(1, source.row + 1):
            for col in range(1, self.device.num_columns - source.width + 2):
                if (row, col) >= (source.row, source.col):
                    break
                candidate = Region(
                    row=row, col=col, height=source.height, width=source.width
                )
                if not compatible_regions(self.device, source, candidate):
                    continue
                if any(candidate.overlaps(other) for other in others):
                    continue
                return candidate
        return None

    # -- metrics ---------------------------------------------------------------

    @property
    def live_cells(self) -> int:
        return sum(a.region.size for a in self.allocations.values())

    def external_fragmentation(self) -> float:
        """1 - (largest placeable free rectangle / total free cells) over
        PRR-eligible columns."""
        return fragmentation_index(
            free_cell_grid(self.device, self.occupied_regions())
        )

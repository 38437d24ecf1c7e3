"""Automatic multi-PRR floorplanning — the paper's stated future work.

"Our future work will use our cost models as part of the floorplanning
stage in the PR design flow" (Section V).  This module is that stage:
given the PRM groups of a partitioning, it sizes each PRR with the
eq. (1)–(6) model, searches joint non-overlapping placements with the
Fig. 1 flow, reserves a static-region budget, and scores floorplans by
total PR area and static-region contiguity.

The search enumerates placement orders for the PRR demands (largest
first by default, with backtracking over all orders when greedy fails)
and for each order places PRRs bottom-up/left-most with the existing
window scan.  For the paper-scale problems (≤ ~6 PRRs) this is exact
enough: the placement grid is coarse (rows × column windows) and the
per-PRR candidate sets are small.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..devices.fabric import Device, Region
from ..devices.freespace import fragmentation_index, free_cell_grid
from ..devices.resources import ResourceVector
from ..errors import InfeasiblePlacement, InvalidInput
from .bitstream_model import bitstream_size_bytes
from .params import PRMRequirements
from .fastpath import RegionOccupancy
from .placement_search import (
    Candidate,
    PlacedPRR,
    place_ranked,
    rank_candidates,
)

__all__ = ["Floorplan", "FloorplanError", "floorplan", "render_floorplan"]


class FloorplanError(InfeasiblePlacement):
    """No joint placement of all PRRs exists on the device.

    Carries the search's post-mortem so callers (and the CLI error path)
    can see *why*:

    * ``unplaceable`` — name of the demand the best order could not
      place (``None`` when every demand placed but the static-region
      budget failed);
    * ``best_partial`` — ``(name, PlacedPRR)`` pairs of the deepest
      partial placement any order reached;
    * ``candidate_counts`` — per-demand count of feasible single-PRR
      placements on the otherwise-empty fabric: a zero means the demand
      alone is unplaceable, small numbers mean tight packing.
    """

    def __init__(
        self,
        message: str = "",
        *,
        unplaceable: str | None = None,
        best_partial: Sequence[tuple[str, PlacedPRR]] = (),
        candidate_counts: Mapping[str, int] | None = None,
        **details,
    ) -> None:
        super().__init__(
            message,
            unplaceable=unplaceable,
            placed=len(best_partial),
            **details,
        )
        self.unplaceable = unplaceable
        self.best_partial = tuple(best_partial)
        self.candidate_counts = dict(candidate_counts or {})

    def render_diagnostics(self) -> str:
        """Multi-line report for humans (the CLI renders this)."""
        lines = []
        if self.unplaceable is not None:
            lines.append(f"first unplaceable demand: {self.unplaceable}")
        if self.best_partial:
            placed = ", ".join(
                f"{name} H={prr.geometry.rows} W={prr.geometry.width} "
                f"@ (row {prr.region.row}, col {prr.region.col})"
                for name, prr in self.best_partial
            )
            lines.append(f"best partial placement ({len(self.best_partial)}): {placed}")
        else:
            lines.append("best partial placement: none")
        if self.candidate_counts:
            counts = ", ".join(
                f"{name}={count}"
                for name, count in sorted(self.candidate_counts.items())
            )
            lines.append(f"per-demand candidate placements: {counts}")
        return "\n".join(lines)


@dataclass(frozen=True)
class Floorplan:
    """A complete floorplan: one placed PRR per PRM group."""

    device: Device
    prrs: tuple[PlacedPRR, ...]
    group_names: tuple[str, ...]

    @property
    def total_prr_cells(self) -> int:
        """Fabric cells (row x column) committed to PR."""
        return sum(prr.size for prr in self.prrs)

    @property
    def static_cells(self) -> int:
        """Cells left to the static region (PRR-eligible columns only)."""
        eligible = sum(
            1 for kind in self.device.columns if kind.reconfigurable
        ) * self.device.rows
        return eligible - self.total_prr_cells

    @property
    def total_partial_bitstream_bytes(self) -> int:
        return sum(bitstream_size_bytes(prr.geometry) for prr in self.prrs)

    def static_fragmentation(self) -> float:
        """Fraction of static cells NOT in the largest free rectangle.

        0.0 means the static region is one contiguous rectangle (ideal for
        timing and routing); values near 1.0 mean the PRRs shredded it.
        """
        return fragmentation_index(
            free_cell_grid(self.device, [prr.region for prr in self.prrs])
        )

    def summary(self) -> str:
        parts = [
            f"{name}: H={prr.geometry.rows} W={prr.geometry.width} "
            f"@ (row {prr.region.row}, col {prr.region.col})"
            for name, prr in zip(self.group_names, self.prrs)
        ]
        return (
            f"floorplan on {self.device.name}: "
            + " | ".join(parts)
            + f" | PR cells={self.total_prr_cells}"
            + f" static frag={self.static_fragmentation():.2f}"
        )


def floorplan(
    device: Device,
    groups: Sequence[Sequence[PRMRequirements] | PRMRequirements],
    *,
    static_min_cells: int = 0,
    optimize_static: bool = True,
    max_orders: int = 24,
    forbidden: Sequence[Region] = (),
) -> Floorplan:
    """Floorplan one PRR per PRM group on *device*.

    Parameters
    ----------
    groups:
        One entry per PRR: a single :class:`PRMRequirements` or a sequence
        sharing the PRR.
    static_min_cells:
        Minimum fabric cells (over PRR-eligible columns) that must remain
        for the static region.
    optimize_static:
        When True, all placement orders (up to ``max_orders``) are tried
        and the floorplan minimizing (total PR cells, static
        fragmentation) is returned; when False the first feasible
        greedy-order floorplan wins.
    forbidden:
        Fabric regions no PRR may cover — reserved static logic or
        columns a fabric runtime has retired after permanent faults.

    Raises :class:`FloorplanError` (with diagnostics attached) when no
    joint placement satisfies the constraints.
    """
    normalized: list[list[PRMRequirements]] = [
        [g] if isinstance(g, PRMRequirements) else list(g) for g in groups
    ]
    if not normalized:
        raise InvalidInput("at least one PRM group is required")
    names = tuple("+".join(p.name for p in group) for group in normalized)
    forbidden = tuple(forbidden)
    # Ranked once per group; every placement order and the diagnostics reuse it.
    ranked = [rank_candidates(device, group) for group in normalized]

    indices = list(range(len(normalized)))
    # Largest demand first is the strongest greedy order; then the rest.
    greedy = sorted(
        indices,
        key=lambda i: -max(p.lut_ff_pairs for p in normalized[i]),
    )
    orders = [greedy]
    if optimize_static:
        for order in itertools.permutations(indices):
            order = list(order)
            if order != greedy:
                orders.append(order)
            if len(orders) >= max_orders:
                break

    best: Floorplan | None = None
    best_key: tuple[int, float] | None = None
    best_partial: list[tuple[str, PlacedPRR]] = []
    first_failed: str | None = None
    diag_recorded = False
    budget_failed = False
    for order in orders:
        candidate, partial, failed = _place_in_order(
            device, ranked, names, order, forbidden
        )
        if not diag_recorded or len(partial) > len(best_partial):
            best_partial = partial
            first_failed = failed
            diag_recorded = True
        if candidate is None:
            continue
        if candidate.static_cells < static_min_cells:
            budget_failed = True
            continue
        key = (candidate.total_prr_cells, candidate.static_fragmentation())
        if best_key is None or key < best_key:
            best, best_key = candidate, key
        if not optimize_static:
            break
    if best is None:
        counts = {
            name: _count_candidate_windows(device, candidates, forbidden)
            for name, candidates in zip(names, ranked)
        }
        reason = (
            "static-region budget unsatisfied"
            if budget_failed and first_failed is None
            else "no joint placement"
        )
        raise FloorplanError(
            f"no feasible floorplan for {len(normalized)} PRRs on "
            f"{device.name} ({reason}, static_min_cells={static_min_cells})",
            unplaceable=first_failed,
            best_partial=best_partial,
            candidate_counts=counts,
        )
    return best


def _count_candidate_windows(
    device: Device,
    ranked: Sequence[Candidate],
    forbidden: Sequence[Region] = (),
) -> int:
    """Count every placement window a demand group could occupy alone.

    Unlike the placement search (which stops at the first window per
    geometry), this enumerates all ``(H, row, start-column)`` windows
    that avoid *forbidden* — the per-demand candidate count the
    :class:`FloorplanError` diagnostics report.  Zero means the demand
    is unplaceable even on the otherwise-empty fabric.
    """
    occupancy = RegionOccupancy(forbidden)
    count = 0
    for _, rows, clb, dsp, bram in ranked:
        starts = device.feasible_window_starts(
            ResourceVector(clb=clb, dsp=dsp, bram=bram)
        )
        width = clb + dsp + bram
        for row in range(1, device.rows - rows + 2):
            for col in starts:
                region = Region(row=row, col=col, height=rows, width=width)
                if not occupancy.overlaps(region):
                    count += 1
    return count


def _place_in_order(
    device: Device,
    ranked: list[tuple[Candidate, ...]],
    names: tuple[str, ...],
    order: list[int],
    forbidden: tuple[Region, ...] = (),
) -> tuple[Floorplan | None, list[tuple[str, PlacedPRR]], str | None]:
    """Place one order; also report the partial placement it reached.

    Returns ``(floorplan_or_None, [(name, prr), ...], failed_name)`` —
    the second and third slots feed :class:`FloorplanError` diagnostics.
    """
    placed: dict[int, PlacedPRR] = {}
    occupancy = RegionOccupancy(forbidden)
    partial: list[tuple[str, PlacedPRR]] = []
    for index in order:
        prr = place_ranked(device, ranked[index], occupancy)
        if prr is None:
            return None, partial, names[index]
        placed[index] = prr
        occupancy.add(prr.region)
        partial.append((names[index], prr))
    ordered = tuple(placed[i] for i in range(len(ranked)))
    return Floorplan(device=device, prrs=ordered, group_names=names), partial, None


def render_floorplan(plan: Floorplan) -> str:
    """ASCII rendering: rows top-down, one character per cell.

    ``.`` static-eligible cell, ``#`` IOB/CLK column, digits/letters mark
    each PRR's cells.
    """
    markers = "0123456789abcdefghijklmnopqrstuvwxyz"
    device = plan.device
    grid = [
        [
            "." if device.columns[c].reconfigurable else "#"
            for c in range(device.num_columns)
        ]
        for _ in range(device.rows)
    ]
    for index, prr in enumerate(plan.prrs):
        mark = markers[index % len(markers)]
        for row in prr.region.row_span:
            for col in prr.region.col_span:
                grid[row - 1][col - 1] = mark
    lines = ["".join(row) for row in reversed(grid)]  # top row first
    legend = ", ".join(
        f"{markers[i % len(markers)]}={name}"
        for i, name in enumerate(plan.group_names)
    )
    return "\n".join(lines) + f"\n[{legend}]"

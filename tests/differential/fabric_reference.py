"""Test-only references for the live-fabric admission path.

These are the pre-vectorization implementations, kept as oracles for the
differential suite (``test_fabric_vs_reference.py``) and the perf gate
(``benchmarks/test_perf_fabric.py``).  Nothing under ``src/`` imports
this module.

* :func:`free_cell_grid` / :func:`largest_rectangle` /
  :func:`fragmentation_index` — list-of-lists grid with the classic
  per-row histogram sweep;
* :func:`find_prr` — the Fig. 1 search that builds one validated
  placement per feasible H and takes the minimum;
* :func:`plan_defrag_pass` — the planner that lists every compatible
  region of a module before taking the bottom-left one;
* :class:`KeepNothingRuntime` — a :class:`~repro.fabric.FabricRuntime`
  whose layout table never stores, so every fragmentation, placement
  and defrag-plan question is answered from scratch.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Mapping, Sequence

from repro.core.placement_search import (
    PlacedPRR,
    PlacementNotFoundError,
    iter_feasible_placements,
)
from repro.devices import Device, Region
from repro.fabric import FabricRuntime, MigrationStep
from repro.relocation import find_compatible_regions


# -- free space -----------------------------------------------------------


def free_cell_grid(
    device: Device,
    occupied: Sequence[Region],
    retired_columns: Iterable[int] = (),
) -> list[list[bool]]:
    retired = set(retired_columns)
    grid = [
        [
            device.columns[c].reconfigurable and (c + 1) not in retired
            for c in range(device.num_columns)
        ]
        for _ in range(device.rows)
    ]
    for region in occupied:
        for row in region.row_span:
            for col in region.col_span:
                grid[row - 1][col - 1] = False
    return grid


def largest_rectangle(grid: Sequence[Sequence[bool]]) -> int:
    """Largest all-True rectangle (classic histogram sweep)."""
    if not grid:
        return 0
    width = len(grid[0])
    heights = [0] * width
    best = 0
    for row in grid:
        for c in range(width):
            heights[c] = heights[c] + 1 if row[c] else 0
        best = max(best, _largest_in_histogram(heights))
    return best


def _largest_in_histogram(heights: list[int]) -> int:
    stack: list[int] = []
    best = 0
    for index, height in enumerate(list(heights) + [0]):
        start = index
        while stack and heights[stack[-1]] >= height:
            top = stack.pop()
            start_index = stack[-1] + 1 if stack else 0
            best = max(best, heights[top] * (index - start_index))
        stack.append(index)
    return best


def total_free_cells(grid: Sequence[Sequence[bool]]) -> int:
    return sum(sum(1 for cell in row if cell) for row in grid)


def fragmentation_index(grid: Sequence[Sequence[bool]]) -> float:
    free = total_free_cells(grid)
    if free == 0:
        return 0.0
    return 1.0 - largest_rectangle(grid) / free


# -- Fig. 1 search ----------------------------------------------------------


def find_prr(device, requirements, *, objective="size", max_rows=None, forbidden=()):
    best: PlacedPRR | None = None
    best_key = None
    for candidate in iter_feasible_placements(
        device, requirements, max_rows=max_rows, forbidden=forbidden
    ):
        primary = (
            candidate.size if objective == "size" else candidate.bitstream_bytes
        )
        key = (
            primary,
            candidate.geometry.rows,
            candidate.region.row,
            candidate.region.col,
        )
        if best_key is None or key < best_key:
            best, best_key = candidate, key
    if best is None:
        raise PlacementNotFoundError(f"no feasible PRR on {device.name}")
    return best


# -- defrag planning --------------------------------------------------------


def plan_defrag_pass(
    device: Device,
    placements: Mapping[str, Region],
    blacklist: Sequence[Region] = (),
    *,
    movable: AbstractSet[str] | None = None,
) -> list[MigrationStep]:
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
        targets = [
            region
            for region in find_compatible_regions(device, source, exclude=exclude)
            if not region.overlaps(source)
        ]
        if not targets:
            continue
        best = min(targets, key=lambda r: (r.row, r.col))
        if (best.row, best.col) < (source.row, source.col):
            steps.append(MigrationStep(name=name, source=source, target=best))
            current[name] = best
    return steps


# -- runtime ----------------------------------------------------------------


class KeepNothingRuntime(FabricRuntime):
    """A runtime that recomputes every layout-pure answer (the table's oracle)."""

    def _remember(self, key, answer):
        return answer

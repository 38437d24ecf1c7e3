"""Free-space accounting on a device's cell grid.

A live fabric needs two numbers to decide when to defragment, and a
static floorplan needs the same two to score its static region:

* the **largest free rectangle** — the biggest PRR the fabric could
  still host somewhere (ignoring column-mix constraints, which only
  shrink it);
* the **fragmentation index** — the fraction of free reconfigurable
  cells *outside* that rectangle.  0.0 means all free space is one
  contiguous block (any demand that fits the totals fits the fabric);
  values near 1.0 mean the free cells are shredded into slivers no
  module can use.

Both come from one ``rows x columns`` numpy ``bool`` grid.  The
rectangle is found in one vectorized sweep over every ``(top, bottom)``
row pair: row prefix sums of blocked cells give each pair's all-free
columns, a running maximum of the last blocked column gives the free-run
lengths, and the answer is ``max(run x height)``.  Areas are exact
integers, so the index is the same float the classic per-row histogram
sweep (kept as a test oracle) produces.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .fabric import Device, Region

__all__ = [
    "free_cell_grid",
    "fragmentation_index",
    "largest_free_rectangle",
    "total_free_cells",
]


def _column_mask(device: Device) -> "np.ndarray":
    """Read-only mask of the device's reconfigurable columns (cached)."""
    mask = device.__dict__.get("_free_column_mask")
    if mask is None:
        mask = np.array([kind.reconfigurable for kind in device.columns], dtype=bool)
        mask.flags.writeable = False
        object.__setattr__(device, "_free_column_mask", mask)
    return mask


def free_cell_grid(
    device: Device,
    occupied: Sequence[Region],
    retired_columns: Iterable[int] = (),
) -> "np.ndarray":
    """``rows x columns`` bool grid of cells still available for new PRRs.

    A cell is free when its column is reconfigurable (CLB/DSP/BRAM), the
    column has not been retired after a permanent fault, and no placed
    region covers it.  Row ``r`` / column ``c`` of the fabric is
    ``grid[r - 1][c - 1]``.
    """
    mask = _column_mask(device)
    grid = np.repeat(mask[np.newaxis, :], device.rows, axis=0)
    retired = [col - 1 for col in retired_columns]
    if retired:
        grid[:, retired] = False
    for region in occupied:
        grid[
            region.row - 1 : region.row - 1 + region.height,
            region.col - 1 : region.col - 1 + region.width,
        ] = False
    return grid


@lru_cache(maxsize=None)
def _row_pairs(rows: int) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """``(top, bottom + 1, height)`` index arrays over all row pairs."""
    top, bottom = np.triu_indices(rows)
    return top, bottom + 1, (bottom - top + 1)


def largest_free_rectangle(grid: "np.ndarray | Sequence[Sequence[bool]]") -> int:
    """Area (cells) of the largest all-free rectangle in *grid*."""
    cells = np.asarray(grid, dtype=bool)
    if cells.ndim != 2 or cells.size == 0:
        return 0
    rows, columns = cells.shape
    blocked = np.zeros((rows + 1, columns), dtype=np.int32)
    np.cumsum(~cells, axis=0, out=blocked[1:])
    top, stop, height = _row_pairs(rows)
    # Column c is free over rows [top, stop) when no blocked cell lies in
    # it; a free run ends at c, and starts after the last blocked column.
    free = blocked[stop] == blocked[top]
    position = np.arange(1, columns + 1)
    last_blocked = np.maximum.accumulate(np.where(free, 0, position), axis=1)
    runs = (position - last_blocked).max(axis=1)
    return int((runs * height).max())


def total_free_cells(grid: "np.ndarray | Sequence[Sequence[bool]]") -> int:
    return int(np.count_nonzero(np.asarray(grid, dtype=bool)))


def fragmentation_index(grid: "np.ndarray | Sequence[Sequence[bool]]") -> float:
    """Fraction of free cells outside the largest free rectangle.

    0.0 for a fully-contiguous (or fully-occupied) fabric; approaches
    1.0 as churn shreds the free space.  The fabric runtime publishes it
    as the ``fabric.fragmentation`` gauge and triggers defragmentation
    on it; :meth:`repro.core.floorplanner.Floorplan.static_fragmentation`
    scores static regions with it.
    """
    cells = np.asarray(grid, dtype=bool)
    free = total_free_cells(cells)
    if free == 0:
        return 0.0
    return 1.0 - largest_free_rectangle(cells) / free

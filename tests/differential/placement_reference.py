"""Test-only references for the indexed fabric queries.

The original full scans, kept as oracles for the differential suites
(``test_window_index_vs_naive.py``, ``test_compatible_regions_vs_naive.py``),
the fast-path unit tests and the window-index benchmarks.  Nothing
under ``src/`` imports this module.

* :func:`find_column_window_naive` — slices and recounts every candidate
  window, against :meth:`repro.devices.fabric.Device.find_column_window`;
* :func:`find_compatible_regions_naive` — scans every ``(row, col)``
  offset and re-checks compatibility from scratch, against
  :func:`repro.relocation.find_compatible_regions`.
"""

from __future__ import annotations

from typing import Sequence

from repro.devices import Device, Region, ResourceVector
from repro.devices.fabric import column_kind_counts
from repro.relocation import compatible_regions


def find_column_window_naive(
    device: Device, requirement: ResourceVector, *, start_col: int = 1
) -> int | None:
    """Left-most start column of a window holding exactly *requirement*."""
    width = requirement.total
    if width == 0:
        raise ValueError("requirement must include at least one column")
    for col, kinds in device.iter_windows(width):
        if col < start_col:
            continue
        if not all(kind.reconfigurable for kind in kinds):
            continue
        if column_kind_counts(kinds) == requirement:
            return col
    return None


def find_compatible_regions_naive(
    device: Device,
    source: Region,
    *,
    include_source: bool = False,
    exclude: Sequence[Region] = (),
) -> list[Region]:
    """Every region *source* could relocate to, in ``(row, col)`` order."""
    exclusions = tuple(exclude)
    targets = []
    for row in range(1, device.rows - source.height + 2):
        for col in range(1, device.num_columns - source.width + 2):
            candidate = Region(
                row=row, col=col, height=source.height, width=source.width
            )
            if candidate == source and not include_source:
                continue
            if any(candidate.overlaps(banned) for banned in exclusions):
                continue
            if compatible_regions(device, source, candidate):
                targets.append(candidate)
    return targets

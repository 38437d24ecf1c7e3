"""Test-only references for the indexed fabric queries and the Fig. 1 flow.

The original full scans and derivations, kept as oracles for the
differential suites (``test_window_index_vs_naive.py``,
``test_compatible_regions_vs_naive.py``, ``test_ranked_candidates_vs_reference.py``),
the fast-path unit tests and the window-index benchmarks.  Nothing
under ``src/`` imports this module.

* :func:`find_column_window_naive` — slices and recounts every candidate
  window, against :meth:`repro.devices.fabric.Device.find_column_window`;
* :func:`find_compatible_regions_naive` — scans every ``(row, col)``
  offset and re-checks compatibility from scratch, against
  :func:`repro.relocation.find_compatible_regions`;
* :func:`geometries_by_rows` — eqs. (1)–(6) per PRM and H, merged as
  :class:`ResourceVector` elementwise maxima (Section III.B), against
  :func:`repro.core.prr_model.group_columns`;
* :func:`find_prr_reference`, :func:`feasible_placements_reference`,
  :func:`trace_steps_reference` and :func:`count_windows_reference` — the
  Fig. 1 search rebuilt on those geometries, sorted by ``(objective, H)``
  and placed by a naive window scan, against
  :func:`~repro.core.placement_search.find_prr`,
  :func:`~repro.core.placement_search.iter_feasible_placements`,
  :func:`~repro.core.placement_search.search_with_trace` and the
  :class:`~repro.core.floorplanner.FloorplanError` candidate counts.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

from repro.core.bitstream_model import bitstream_size_bytes
from repro.core.params import PRMRequirements
from repro.core.placement_search import PlacedPRR
from repro.core.prr_model import PRRGeometry, clb_requirement
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


def prm_columns(
    prm: PRMRequirements, device: Device, rows: int
) -> ResourceVector | None:
    """Eqs. (1)–(5) for one PRM at H = *rows*; ``None`` when eq. (4) fails."""
    family = device.family
    clb_req = clb_requirement(prm, family)
    w_clb = math.ceil(clb_req / (rows * family.clb_per_col)) if clb_req else 0
    if prm.dsps == 0:
        w_dsp = 0
    elif device.has_single_dsp_column:
        if math.ceil(prm.dsps / family.dsp_per_col) > rows:
            return None
        w_dsp = 1
    else:
        w_dsp = math.ceil(prm.dsps / (rows * family.dsp_per_col))
    w_bram = (
        math.ceil(prm.brams / (rows * family.bram_per_col)) if prm.brams else 0
    )
    return ResourceVector(clb=w_clb, dsp=w_dsp, bram=w_bram)


def geometries_by_rows(
    device: Device, group: Sequence[PRMRequirements], limit: int
) -> list[PRRGeometry | None]:
    """The group's geometry at H = 1..*limit* (``None``: H infeasible)."""
    geometries: list[PRRGeometry | None] = []
    for rows in range(1, limit + 1):
        merged: ResourceVector | None = ResourceVector()
        for prm in group:
            columns = prm_columns(prm, device, rows)
            if columns is None:
                merged = None
                break
            merged = merged.max(columns)
        geometries.append(
            None
            if merged is None
            else PRRGeometry(family=device.family, rows=rows, columns=merged)
        )
    return geometries


def _limit(device: Device, max_rows: int | None) -> int:
    return device.rows if max_rows is None else min(max_rows, device.rows)


def ranked_geometries(
    device: Device,
    group: Sequence[PRMRequirements],
    *,
    objective: str = "size",
    max_rows: int | None = None,
) -> list[PRRGeometry]:
    """Feasible geometries sorted by ``(objective, H)``."""
    feasible = [
        g for g in geometries_by_rows(device, group, _limit(device, max_rows)) if g
    ]
    return sorted(
        feasible,
        key=lambda g: (
            g.size if objective == "size" else bitstream_size_bytes(g),
            g.rows,
        ),
    )


def _windows(
    device: Device, geometry: PRRGeometry, forbidden: Sequence[Region]
) -> Iterator[Region]:
    """Every free window of *geometry*, bottom-up then left-to-right."""
    for row in range(1, device.rows - geometry.rows + 2):
        col = find_column_window_naive(device, geometry.columns)
        while col is not None:
            region = Region(
                row=row, col=col, height=geometry.rows, width=geometry.width
            )
            if not any(region.overlaps(banned) for banned in forbidden):
                yield region
            col = find_column_window_naive(
                device, geometry.columns, start_col=col + 1
            )


def place_naive(
    device: Device, geometry: PRRGeometry, forbidden: Sequence[Region] = ()
) -> PlacedPRR | None:
    region = next(_windows(device, geometry, forbidden), None)
    if region is None:
        return None
    return PlacedPRR(device=device, geometry=geometry, region=region)


def find_prr_reference(
    device: Device,
    group: Sequence[PRMRequirements],
    *,
    objective: str = "size",
    max_rows: int | None = None,
    forbidden: Sequence[Region] = (),
) -> PlacedPRR | None:
    for geometry in ranked_geometries(
        device, group, objective=objective, max_rows=max_rows
    ):
        placement = place_naive(device, geometry, forbidden)
        if placement is not None:
            return placement
    return None


def feasible_placements_reference(
    device: Device,
    group: Sequence[PRMRequirements],
    *,
    max_rows: int | None = None,
    forbidden: Sequence[Region] = (),
) -> list[PlacedPRR]:
    placements = []
    for geometry in geometries_by_rows(device, group, _limit(device, max_rows)):
        if geometry is not None:
            placement = place_naive(device, geometry, forbidden)
            if placement is not None:
                placements.append(placement)
    return placements


def trace_steps_reference(
    device: Device, group: Sequence[PRMRequirements]
) -> list[tuple[int, PRRGeometry | None, bool]]:
    return [
        (
            rows,
            geometry,
            geometry is not None and place_naive(device, geometry) is not None,
        )
        for rows, geometry in enumerate(
            geometries_by_rows(device, group, device.rows), start=1
        )
    ]


def count_windows_reference(
    device: Device, group: Sequence[PRMRequirements], forbidden: Sequence[Region]
) -> int:
    return sum(
        1
        for geometry in geometries_by_rows(device, group, device.rows)
        if geometry is not None
        for _ in _windows(device, geometry, forbidden)
    )

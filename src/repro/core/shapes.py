"""Non-rectangular (L/T-shaped) PRRs — the Section IV discussion.

"Higher RUs may be obtained by selecting non-rectangular PRRs (such as an
L or T PRR shape), but chances of routing problems in the PRRs are
increased."  This module extends the cost models to composite PRRs built
from stacked rectangles:

* :class:`CompositePRR` — a union of disjoint placed rectangles treated
  as one reconfigurable region; availability sums over the parts and the
  bitstream model charges one eq. (19)/(23) row block per part row
  (each rectangle is its own FAR/FDRI burst sequence).
* :func:`find_lshape_prr` — a search that, for CLB-dominated PRMs, trims
  the rectangular PRR's wasted top rows into a narrower second rectangle,
  producing the L shape and its RU gain.

The routing-risk caveat is modelled too: a composite's *effective* pair
utilization for the router is its worst part's utilization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..devices.fabric import Device, Region
from ..devices.resources import ResourceVector
from ..errors import InvalidInput
from .bitstream_model import ncw_row, ndw_bram
from .params import PRMRequirements
from .placement_search import find_prr
from .prr_model import clb_requirement
from .utilization import UtilizationReport

__all__ = ["CompositePRR", "composite_bitstream_bytes", "find_lshape_prr"]


@dataclass(frozen=True)
class CompositePRR:
    """A PRR made of disjoint rectangles on one device."""

    device: Device
    parts: tuple[Region, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise InvalidInput("a composite PRR needs at least one part")
        for part in self.parts:
            if not self.device.is_valid_prr(part):
                raise InvalidInput(f"{part} is not a valid PRR part")
        for i, a in enumerate(self.parts):
            for b in self.parts[i + 1 :]:
                if a.overlaps(b):
                    raise InvalidInput(f"parts {a} and {b} overlap")

    @property
    def size(self) -> int:
        """Total cells — the composite analogue of eq. (7)."""
        return sum(part.size for part in self.parts)

    @property
    def available(self) -> ResourceVector:
        total = ResourceVector()
        for part in self.parts:
            total = total + self.device.region_resources(part)
        return total

    @property
    def luts_available(self) -> int:
        return self.device.family.luts_in_clbs(self.available.clb)

    @property
    def ffs_available(self) -> int:
        return self.device.family.ffs_in_clbs(self.available.clb)

    def fits(self, prm: PRMRequirements) -> bool:
        avail = self.available
        return (
            avail.clb >= clb_requirement(prm, self.device.family)
            and avail.dsp >= prm.dsps
            and avail.bram >= prm.brams
            and self.luts_available >= prm.luts
            and self.ffs_available >= prm.ffs
        )

    def utilization(self, prm: PRMRequirements) -> UtilizationReport:
        avail = self.available

        def ratio(used: int, have: int) -> float:
            return 0.0 if used == 0 else used / have

        return UtilizationReport(
            clb=ratio(clb_requirement(prm, self.device.family), avail.clb),
            ff=ratio(prm.ffs, self.ffs_available),
            lut=ratio(prm.luts, self.luts_available),
            dsp=ratio(prm.dsps, avail.dsp),
            bram=ratio(prm.brams, avail.bram),
        )

    @property
    def is_rectangular(self) -> bool:
        return len(self.parts) == 1


def composite_bitstream_bytes(composite: CompositePRR) -> int:
    """Eq. (18) extended to composite PRRs: one row block per part row.

    Each rectangle contributes ``H_i * (NCW_row_i + NDW_BRAM_i)`` words;
    the header and trailer are shared (one reconfiguration transaction).
    """
    family = composite.device.family
    words = family.initial_words + family.final_words
    for part in composite.parts:
        columns = composite.device.region_column_counts(part)
        words += part.height * (
            ncw_row(family, columns) + ndw_bram(family, columns)
        )
    return words * family.bytes_per_word


def find_lshape_prr(
    device: Device, prm: PRMRequirements
) -> tuple[CompositePRR, CompositePRR]:
    """Search for an L-shaped PRR improving on the rectangular one.

    Returns ``(rectangular, best_composite)`` — the Fig. 1 rectangle
    wrapped as a one-part composite, and the best L found (which equals
    the rectangle when no trim helps).  The L is built by keeping the
    rectangle's bottom band and narrowing the CLB columns of the top
    band to what the residual CLB demand needs; DSP/BRAM columns stay
    full height (their per-column granularity is what the shape cannot
    fix).
    """
    rect = find_prr(device, prm)
    rectangular = CompositePRR(device=device, parts=(rect.region,))
    geometry = rect.geometry
    if geometry.rows == 1:
        return rectangular, rectangular  # nothing to trim

    family = device.family
    clb_req = clb_requirement(prm, family)
    best = rectangular
    best_key = (rectangular.size, 0)

    region = rect.region
    for bottom_rows in range(1, geometry.rows):
        top_rows = geometry.rows - bottom_rows
        bottom = Region(
            row=region.row,
            col=region.col,
            height=bottom_rows,
            width=region.width,
        )
        bottom_counts = device.region_column_counts(bottom)
        # CLBs still needed above the bottom band.
        remaining_clbs = clb_req - bottom_counts.clb * bottom_rows * family.clb_per_col
        remaining_dsps = max(
            0, prm.dsps - bottom_rows * bottom_counts.dsp * family.dsp_per_col
        )
        remaining_brams = max(
            0, prm.brams - bottom_rows * bottom_counts.bram * family.bram_per_col
        )
        if remaining_dsps or remaining_brams:
            continue  # DSP/BRAM columns must stay full height: no trim
        if remaining_clbs <= 0:
            continue  # bottom band alone suffices; Fig. 1 would have found it
        top_clb_cols = math.ceil(
            remaining_clbs / (top_rows * family.clb_per_col)
        )
        # Anchor the top band on the rectangle's CLB columns (left-aligned
        # over the first CLB run inside the region).
        top_region = _clb_subregion(
            device, region, row=region.row + bottom_rows, rows=top_rows,
            clb_cols=top_clb_cols,
        )
        if top_region is None:
            continue
        try:
            composite = CompositePRR(device=device, parts=(bottom, top_region))
        except InvalidInput:
            continue
        if not composite.fits(prm):
            continue
        key = (composite.size, -top_rows)
        if key < best_key:
            best, best_key = composite, key
    return rectangular, best


def _clb_subregion(
    device: Device, region: Region, *, row: int, rows: int, clb_cols: int
) -> Region | None:
    """A width-``clb_cols`` all-CLB window inside *region*'s columns."""
    from ..devices.resources import ColumnKind

    run_start = None
    run_length = 0
    for col in region.col_span:
        if device.column_kind(col) is ColumnKind.CLB:
            if run_start is None:
                run_start = col
            run_length += 1
            if run_length >= clb_cols:
                return Region(
                    row=row, col=run_start, height=rows, width=clb_cols
                )
        else:
            run_start, run_length = None, 0
    return None

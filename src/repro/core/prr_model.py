"""PRR size/organization cost model — eqs. (1)–(12) of Section III.B.

Given a PRM's synthesis-report requirements and a row count ``H``, the
model computes how many CLB, DSP and BRAM columns the PRR needs:

* eq. (1):  ``CLB_req = ceil(LUT_FF_req / LUT_CLB)``
* eq. (2):  ``W_CLB  = ceil(CLB_req / (H * CLB_col))``
* eq. (3):  ``W_DSP  = ceil(DSP_req / (H * DSP_col))`` — multi-DSP-column
  fabrics
* eq. (4):  ``H_DSP  = ceil(DSP_req / (W_DSP * DSP_col))`` with
  ``W_DSP = 1`` — single-DSP-column fabrics, where the one column's height
  must cover the requirement, constraining ``H >= H_DSP``
* eq. (5):  ``W_BRAM = ceil(BRAM_req / (H * BRAM_col))``
* eq. (6):  ``W = W_CLB + W_DSP + W_BRAM``
* eq. (7):  ``PRR_size = H * W``
* eqs. (8)–(12): available CLB/FF/LUT/DSP/BRAM counts of the resulting
  geometry.

For multiple PRMs sharing one PRR, "the largest W_CLB, W_DSP, and W_BRAM
across all of the PRR's associated PRMs dictates the number of CLB, DSP,
and BRAM columns" — :func:`merge_geometries` / the ``requirements``
sequence accepted by :func:`group_columns` (every H at once).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..devices.family import DeviceFamily
from ..errors import InfeasiblePlacement, InvalidInput
from ..devices.resources import ResourceVector
from .params import PRMRequirements

__all__ = [
    "clb_requirement",
    "min_rows_for_dsps",
    "PRRGeometry",
    "prr_geometry_for_rows",
    "merge_geometries",
    "InfeasibleGeometryError",
    "group_columns",
]


class InfeasibleGeometryError(InfeasiblePlacement, ValueError):
    """Raised when no PRR geometry can satisfy a requirement.

    The canonical case: a single-DSP-column fabric where
    ``H * DSP_col < DSP_req`` for the requested ``H`` (the lone DSP column
    cannot be made wider, eq. (4)).
    """


def clb_requirement(requirements: PRMRequirements, family: DeviceFamily) -> int:
    """Eq. (1): CLBs needed for the PRM's LUT–FF pairs.

    "Since LUT_FF_req / LUT_CLB may be a non-integer, we take the ceiling
    of this value to ensure sufficient CLB resources."
    """
    return family.clbs_for_lut_ff_pairs(requirements.lut_ff_pairs)


def min_rows_for_dsps(
    requirements: PRMRequirements,
    family: DeviceFamily,
    *,
    single_dsp_column: bool,
) -> int:
    """Minimum ``H`` imposed by the DSP requirement.

    On single-DSP-column fabrics eq. (4) fixes ``W_DSP = 1`` so
    ``H >= ceil(DSP_req / DSP_col)``; otherwise any ``H >= 1`` works
    because width can grow instead.
    """
    if requirements.dsps == 0 or not single_dsp_column:
        return 1
    return math.ceil(requirements.dsps / family.dsp_per_col)


@dataclass(frozen=True, slots=True)
class PRRGeometry:
    """A PRR shape: ``rows`` fabric rows by per-kind column counts.

    ``columns`` holds (W_CLB, W_DSP, W_BRAM); all availability formulas
    (eqs. (8)–(12)) derive from it and the family constants.
    """

    family: DeviceFamily
    rows: int  #: H
    columns: ResourceVector  #: (W_CLB, W_DSP, W_BRAM)

    def __post_init__(self) -> None:
        if self.rows < 1:
            raise InvalidInput("a PRR needs at least one row")
        if self.columns.is_zero():
            raise InvalidInput("a PRR needs at least one column")

    # -- eqs. (6), (7) ------------------------------------------------------

    @property
    def width(self) -> int:
        """Eq. (6): ``W = W_CLB + W_DSP + W_BRAM``."""
        return self.columns.total

    @property
    def size(self) -> int:
        """Eq. (7): ``PRR_size = H * W``."""
        return self.rows * self.width

    # -- eqs. (8)-(12) ------------------------------------------------------

    @property
    def available(self) -> ResourceVector:
        """Eqs. (8), (11), (12): CLB/DSP/BRAM capacity of the PRR."""
        fam = self.family
        return ResourceVector(
            clb=self.rows * self.columns.clb * fam.clb_per_col,
            dsp=self.rows * self.columns.dsp * fam.dsp_per_col,
            bram=self.rows * self.columns.bram * fam.bram_per_col,
        )

    @property
    def ffs_available(self) -> int:
        """Eq. (9): ``FF_avail = CLB_avail * FF_CLB``."""
        return self.family.ffs_in_clbs(self.available.clb)

    @property
    def luts_available(self) -> int:
        """Eq. (10): ``LUT_avail = CLB_avail * LUT_CLB``."""
        return self.family.luts_in_clbs(self.available.clb)

    def fits(self, requirements: PRMRequirements) -> bool:
        """Whether the geometry accommodates *requirements* (all five)."""
        clb_req = clb_requirement(requirements, self.family)
        avail = self.available
        return (
            avail.clb >= clb_req
            and avail.dsp >= requirements.dsps
            and avail.bram >= requirements.brams
            and self.family.luts_in_clbs(avail.clb) >= requirements.luts
            and self.family.ffs_in_clbs(avail.clb) >= requirements.ffs
        )

    def __repr__(self) -> str:
        return (
            f"PRRGeometry(H={self.rows}, W_CLB={self.columns.clb}, "
            f"W_DSP={self.columns.dsp}, W_BRAM={self.columns.bram}, "
            f"family={self.family.name})"
        )


def group_columns(
    requirements: PRMRequirements | Sequence[PRMRequirements],
    family: DeviceFamily,
    limit: int,
    *,
    single_dsp_column: bool = False,
) -> tuple[tuple[int, int, int] | None, ...]:
    """Eqs. (1)–(6) for H = 1..``limit``: a group's columns at every H.

    Entry ``H - 1`` is the ``(W_CLB, W_DSP, W_BRAM)`` int triple at that
    H, or ``None`` when eq. (4) rules the H out.  Section III.B's
    elementwise max is taken over the members' demands: ``ceil(x / d)``
    is monotone in ``x``, so the widest member's width at every H is the
    width of the largest demand.  Every Fig. 1 H-loop reads this.
    """
    group = _as_group(requirements)
    clb_req = max([clb_requirement(prm, family) for prm in group])  # eq. (1)
    dsp_req = max([prm.dsps for prm in group])
    bram_req = max([prm.brams for prm in group])
    # Eq. (4): a lone DSP column has W_DSP = 1 and needs H >= H_DSP.
    h_dsp = -(-dsp_req // family.dsp_per_col) if single_dsp_column else 1
    return tuple(
        None
        if rows < h_dsp
        else (
            -(-clb_req // (rows * family.clb_per_col)),  # eq. (2)
            min(dsp_req, 1)
            if single_dsp_column
            else -(-dsp_req // (rows * family.dsp_per_col)),  # eq. (3)
            -(-bram_req // (rows * family.bram_per_col)),  # eq. (5)
        )
        for rows in range(1, limit + 1)
    )


def prr_geometry_for_rows(
    requirements: PRMRequirements | Sequence[PRMRequirements],
    family: DeviceFamily,
    rows: int,
    *,
    single_dsp_column: bool = False,
) -> PRRGeometry:
    """Compute the eqs. (1)–(6) geometry for a fixed row count ``H``.

    Accepts one requirement bundle, or several for a shared PRR (the
    elementwise-max rule of Section III.B is applied per column kind).

    Raises :class:`InfeasibleGeometryError` when the single-DSP-column rule
    makes the requested ``H`` insufficient.  Not cached: callers that walk
    H read :func:`group_columns` once instead.
    """
    if rows < 1:
        raise InvalidInput("rows (H) must be >= 1")
    group = _as_group(requirements)
    columns = group_columns(group, family, rows, single_dsp_column=single_dsp_column)[-1]
    if columns is None:
        prm = max(group, key=lambda p: p.dsps)
        raise InfeasibleGeometryError(
            f"{prm.name}: needs H >= "
            f"{min_rows_for_dsps(prm, family, single_dsp_column=True)} rows "
            f"for {prm.dsps} DSPs on a single-DSP-column fabric, but H = {rows}"
        )
    return PRRGeometry(
        family=family,
        rows=rows,
        columns=ResourceVector(clb=columns[0], dsp=columns[1], bram=columns[2]),
    )


def _as_group(
    requirements: PRMRequirements | Sequence[PRMRequirements],
) -> Sequence[PRMRequirements]:
    if isinstance(requirements, PRMRequirements):
        return (requirements,)
    group = tuple(requirements)
    if not group:
        raise InvalidInput("at least one PRM requirement is needed")
    return group


def merge_geometries(geometries: Sequence[PRRGeometry]) -> PRRGeometry:
    """Merge same-``H`` geometries into a shared-PRR geometry.

    Implements "the largest W_CLB, W_DSP, and W_BRAM across all of the
    PRR's associated PRMs dictates the number of CLB, DSP, and BRAM columns
    in the PRR".
    """
    if not geometries:
        raise InvalidInput("nothing to merge")
    first = geometries[0]
    for geometry in geometries[1:]:
        if geometry.rows != first.rows:
            raise InvalidInput(
                "shared-PRR merge requires a common H "
                f"(got {first.rows} and {geometry.rows})"
            )
        if geometry.family is not first.family:
            raise InvalidInput("shared-PRR merge requires a common device family")
    return PRRGeometry(
        family=first.family,
        rows=first.rows,
        columns=ResourceVector.elementwise_max(g.columns for g in geometries),
    )

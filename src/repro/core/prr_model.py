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
sequence accepted by :func:`prr_geometry_for_rows`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from ..devices.family import DeviceFamily
from ..errors import InfeasiblePlacement
from ..devices.resources import ResourceVector
from .params import PRMRequirements

__all__ = [
    "clb_requirement",
    "min_rows_for_dsps",
    "PRRGeometry",
    "prr_geometry_for_rows",
    "merge_geometries",
    "InfeasibleGeometryError",
    "geometry_cache_info",
    "clear_geometry_cache",
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
            raise ValueError("a PRR needs at least one row")
        if self.columns.is_zero():
            raise ValueError("a PRR needs at least one column")

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
    makes the requested ``H`` insufficient.

    Results (including infeasible verdicts) are memoized on the normalized
    ``(requirements, family, H, single_dsp_column)`` key: the explorer
    asks for the same group geometry once per set partition it appears in,
    and the Fig. 1 H-loop re-asks per candidate placement.
    """
    if isinstance(requirements, PRMRequirements):
        key = (requirements,)
    else:
        if not requirements:
            raise ValueError("at least one PRM requirement is needed")
        # The elementwise-max merge is order-insensitive, so a canonical
        # order lets permutations of one group share a cache entry.
        key = tuple(
            sorted(
                requirements,
                key=lambda p: (p.name, p.lut_ff_pairs, p.luts, p.ffs, p.dsps, p.brams),
            )
        )
    if rows < 1:
        raise ValueError("rows (H) must be >= 1")
    result = _cached_geometry(key, family, rows, single_dsp_column)
    if isinstance(result, str):
        raise InfeasibleGeometryError(result)
    return result


# The measured working sets are small (33 entries on the paper flow; only
# per-set reuse when exploring fresh PRM sets), so a larger cap would only
# hold one-shot entries (EXPERIMENTS.md, "Geometry LRU cap").
@lru_cache(maxsize=1024)
def _cached_geometry(
    requirements: tuple[PRMRequirements, ...],
    family: DeviceFamily,
    rows: int,
    single_dsp_column: bool,
) -> PRRGeometry | str:
    # lru_cache does not cache raised exceptions, and the infeasible rows of
    # the Fig. 1 H-loop are exactly the hot repeats — so store the verdict's
    # message and let the caller raise a fresh error.  Caching the instance
    # would pin its traceback, which grows by a frame pair on every re-raise.
    try:
        merged = ResourceVector()
        for prm in requirements:
            merged = merged.max(
                _columns_for_prm(prm, family, rows, single_dsp_column)
            )
        return PRRGeometry(family=family, rows=rows, columns=merged)
    except InfeasibleGeometryError as error:
        return error.message


def geometry_cache_info():
    """Hit/miss statistics of the geometry memoization cache."""
    return _cached_geometry.cache_info()


def clear_geometry_cache() -> None:
    """Drop all memoized geometries (used by equivalence tests)."""
    _cached_geometry.cache_clear()


def _columns_for_prm(
    prm: PRMRequirements,
    family: DeviceFamily,
    rows: int,
    single_dsp_column: bool,
) -> ResourceVector:
    """Per-PRM (W_CLB, W_DSP, W_BRAM) for a fixed H."""
    clb_req = clb_requirement(prm, family)
    w_clb = math.ceil(clb_req / (rows * family.clb_per_col)) if clb_req else 0

    if prm.dsps == 0:
        w_dsp = 0
    elif single_dsp_column:
        # Eq. (4): W_DSP = 1; the column's height must cover the demand.
        h_dsp = math.ceil(prm.dsps / family.dsp_per_col)
        if h_dsp > rows:
            raise InfeasibleGeometryError(
                f"{prm.name}: needs H >= {h_dsp} rows for {prm.dsps} DSPs on a "
                f"single-DSP-column fabric, but H = {rows}"
            )
        w_dsp = 1
    else:
        # Eq. (3).
        w_dsp = math.ceil(prm.dsps / (rows * family.dsp_per_col))

    w_bram = (
        math.ceil(prm.brams / (rows * family.bram_per_col)) if prm.brams else 0
    )
    return ResourceVector(clb=w_clb, dsp=w_dsp, bram=w_bram)


def merge_geometries(geometries: Sequence[PRRGeometry]) -> PRRGeometry:
    """Merge same-``H`` geometries into a shared-PRR geometry.

    Implements "the largest W_CLB, W_DSP, and W_BRAM across all of the
    PRR's associated PRMs dictates the number of CLB, DSP, and BRAM columns
    in the PRR".
    """
    if not geometries:
        raise ValueError("nothing to merge")
    first = geometries[0]
    for geometry in geometries[1:]:
        if geometry.rows != first.rows:
            raise ValueError(
                "shared-PRR merge requires a common H "
                f"(got {first.rows} and {geometry.rows})"
            )
        if geometry.family is not first.family:
            raise ValueError("shared-PRR merge requires a common device family")
    return PRRGeometry(
        family=first.family,
        rows=first.rows,
        columns=ResourceVector.elementwise_max(g.columns for g in geometries),
    )

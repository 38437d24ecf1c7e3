"""Shared fast-path machinery for the placement search and the explorer.

Three performance primitives used by :mod:`~repro.core.placement_search`
and :mod:`~repro.core.explorer`:

* :class:`RegionOccupancy` — occupied fabric regions kept sorted by start
  column, so the "does this candidate window overlap anything?" check can
  bisect to the overlap-candidate range and bail out early instead of
  scanning every forbidden region (the old O(n^2) pairwise loop).
* :class:`SubsetTable` — one explorer run's table of PRM subsets as
  bitmasks: each subset's per-H columns (merged from each PRM's
  :func:`~repro.core.prr_model.group_columns` triples), its feasible
  geometries ranked by ``(size, H)`` as the Fig. 1 search tries them,
  and its :class:`GroupBounds`.  Eight PRMs have 255 subsets but 4,140
  set partitions, so every partition reads shared entries instead of
  recomputing geometry.
* :func:`group_lower_bounds` — per-group optimistic (area, bitstream)
  bounds over all feasible H, ignoring window availability.  These are
  admissible lower bounds on what any placement of the group can achieve
  and drive the branch-and-bound pruning and beam scoring in
  :func:`~repro.core.explorer.explore` (which reads them from its
  :class:`SubsetTable`).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from ..devices.fabric import Device, Region
from ..devices.resources import ResourceVector
from ..errors import InvalidInput
from .bitstream_model import cached_bitstream_bytes
from .params import PRMRequirements
from .prr_model import PRRGeometry, group_columns

__all__ = [
    "RegionOccupancy",
    "GroupBounds",
    "SubsetTable",
    "group_lower_bounds",
]


class RegionOccupancy:
    """Occupied regions with a sorted-by-column overlap query.

    Regions are kept ordered by start column; a candidate's overlap check
    bisects to the last region starting left of the candidate's right
    edge, then walks left only while regions could still reach the
    candidate (bounded by the widest region seen), checking row spans as
    it goes.  For the small forbidden sets of a single design this is a
    constant-factor win; for crowded fabrics it is asymptotically better
    than the pairwise scan.
    """

    __slots__ = ("_regions", "_cols", "_max_width")

    def __init__(self, regions: Iterable[Region] = ()) -> None:
        self._regions: list[Region] = sorted(regions, key=lambda r: (r.col, r.row))
        self._cols: list[int] = [r.col for r in self._regions]
        self._max_width: int = max((r.width for r in self._regions), default=0)

    def add(self, region: Region) -> None:
        """Insert *region*, keeping the column order."""
        index = bisect_right(self._cols, region.col)
        self._regions.insert(index, region)
        self._cols.insert(index, region.col)
        if region.width > self._max_width:
            self._max_width = region.width

    def overlaps(self, candidate: Region) -> bool:
        """True when *candidate* shares a cell with any stored region."""
        # Regions starting at or right of the candidate's right edge cannot
        # overlap; regions ending at or left of its left edge cannot either,
        # and every stored region spans at most _max_width columns, so the
        # walk stops once start columns fall below col - max_width + 1.
        hi = bisect_right(self._cols, candidate.col + candidate.width - 1)
        lowest_reaching = candidate.col - self._max_width + 1
        row_lo = candidate.row
        row_hi = candidate.row + candidate.height
        for index in range(hi - 1, -1, -1):
            region = self._regions[index]
            if region.col < lowest_reaching:
                break
            if region.col + region.width <= candidate.col:
                continue
            if region.row < row_hi and row_lo < region.row + region.height:
                return True
        return False

    @property
    def regions(self) -> tuple[Region, ...]:
        return tuple(self._regions)

    def key(self) -> frozenset[Region]:
        """Order-insensitive identity of the occupied set (for caching)."""
        return frozenset(self._regions)

    def __iter__(self) -> Iterator[Region]:
        return iter(self._regions)

    def __len__(self) -> int:
        return len(self._regions)


@dataclass(frozen=True, slots=True)
class GroupBounds:
    """Optimistic per-group bounds over all geometry-feasible H.

    ``min_size`` / ``min_bytes`` are each the minimum over H of the
    eq. (7) area and eq. (18) bitstream size of the group's merged
    geometry — ignoring whether a contiguous window actually exists, so
    any *placed* PRR for the group costs at least this much.  The two
    minima may occur at different H.
    """

    min_size: int
    min_bytes: int


class SubsetTable:
    """Per-H geometry of every PRM subset one explorer run asks about.

    Subsets are bitmasks over ``prms`` (bit ``i`` is ``prms[i]``).  Each
    PRM's per-H columns are one :func:`~repro.core.prr_model.group_columns`
    call; a subset's columns at H are the elementwise max of its lowest
    member's and the rest's (Section III.B's shared-PRR rule), and are
    infeasible at H when any member is.  Entries fill on first use, so a
    beam search over many PRMs only pays for the subsets it visits.

    Each entry holds the subset's feasible geometries ranked by
    ``(PRR_size, H)`` — the order :func:`~repro.core.placement_search.
    find_prr` tries them in — and its :class:`GroupBounds`.  Geometries
    are interned per distinct ``(H, W_CLB, W_DSP, W_BRAM)`` and named by
    an int id; ``sizes[id]`` / ``bytes[id]`` are their eq. (7) area and
    eq. (18) bitstream size.
    """

    __slots__ = (
        "device",
        "prms",
        "geometries",
        "sizes",
        "bytes",
        "_columns",
        "_entries",
        "_geometry_ids",
    )

    def __init__(self, device: Device, prms: Sequence[PRMRequirements]) -> None:
        self.device = device
        self.prms = tuple(prms)
        self.geometries: list[PRRGeometry] = []
        self.sizes: list[int] = []
        self.bytes: list[int] = []
        self._geometry_ids: dict[tuple[int, int, int, int], int] = {}
        self._entries: dict[int, tuple[tuple[int, ...], GroupBounds | None]] = {}
        single = device.has_single_dsp_column
        self._columns: dict[int, tuple[tuple[int, int, int] | None, ...]] = {
            1 << index: group_columns(prm, device.family, device.rows, single_dsp_column=single)
            for index, prm in enumerate(self.prms)
        }

    def columns(self, mask: int) -> tuple[tuple[int, int, int] | None, ...]:
        """Merged (W_CLB, W_DSP, W_BRAM) per H (index ``H - 1``)."""
        cols = self._columns.get(mask)
        if cols is None:
            if not mask:
                raise InvalidInput("a PRR group needs at least one PRM")
            low = self.columns(mask & -mask)
            rest = self.columns(mask & (mask - 1))
            cols = tuple(
                None
                if a is None or b is None
                else (max(a[0], b[0]), max(a[1], b[1]), max(a[2], b[2]))
                for a, b in zip(low, rest)
            )
            self._columns[mask] = cols
        return cols

    def entry(self, mask: int) -> tuple[tuple[int, ...], GroupBounds | None]:
        """``(geometry ids ranked by (size, H), bounds)`` of a subset."""
        entry = self._entries.get(mask)
        if entry is None:
            ids = [
                self._geometry_id(rows, cols)
                for rows, cols in enumerate(self.columns(mask), start=1)
                if cols is not None
            ]
            sizes, by = self.sizes, self.bytes
            ranked = tuple(sorted(ids, key=lambda g: (sizes[g], self.geometries[g].rows)))
            bounds = (
                GroupBounds(
                    min_size=min(sizes[g] for g in ids),
                    min_bytes=min(by[g] for g in ids),
                )
                if ids
                else None
            )
            entry = self._entries[mask] = (ranked, bounds)
        return entry

    def bounds(self, mask: int) -> GroupBounds | None:
        """The subset's :class:`GroupBounds` (``None``: no feasible H)."""
        return self.entry(mask)[1]

    def _geometry_id(self, rows: int, cols: tuple[int, int, int]) -> int:
        key = (rows, *cols)
        gid = self._geometry_ids.get(key)
        if gid is None:
            geometry = PRRGeometry(
                family=self.device.family,
                rows=rows,
                columns=ResourceVector(clb=cols[0], dsp=cols[1], bram=cols[2]),
            )
            gid = self._geometry_ids[key] = len(self.geometries)
            self.geometries.append(geometry)
            self.sizes.append(geometry.size)
            self.bytes.append(cached_bitstream_bytes(geometry))
        return gid


def group_lower_bounds(
    device: Device, group: Sequence[PRMRequirements]
) -> GroupBounds | None:
    """Admissible (area, bitstream) lower bounds for a shared-PRR group.

    Returns ``None`` when no H in ``1..rows`` yields a feasible geometry
    (only the single-DSP-column rule can cause that).  Merged requirements
    dominate each member's, so a ``None`` verdict also rules out every
    superset of the group — the explorer prunes such branches outright.
    """
    return SubsetTable(device, group).bounds((1 << len(group)) - 1)

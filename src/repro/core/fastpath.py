"""Shared fast-path machinery for the placement search and the explorer.

Three performance primitives used by :mod:`~repro.core.placement_search`
and :mod:`~repro.core.explorer`:

* :class:`RegionOccupancy` — occupied fabric regions kept sorted by start
  column, so the "does this candidate window overlap anything?" check can
  bisect to the overlap-candidate range and bail out early instead of
  scanning every forbidden region (the old O(n^2) pairwise loop).
* :class:`PlacementCache` — memoized :func:`~repro.core.placement_search.
  find_prr` results keyed on ``(device, group, forbidden set,
  objective)``.  The explorer re-places identical PRM groups across many
  set partitions (the first-placed group sees the same empty fabric in
  every partition that contains it), so the cache turns the inner Fig. 1
  searches of a Bell-number enumeration into dictionary hits.
* :func:`group_lower_bounds` — per-group optimistic (area, bitstream)
  bounds over all feasible H, ignoring window availability.  These are
  admissible lower bounds on what any placement of the group can achieve
  and drive the branch-and-bound pruning and beam scoring in
  :func:`~repro.core.explorer.explore`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from ..devices.fabric import Device, Region
from .bitstream_model import cached_bitstream_bytes
from .params import PRMRequirements
from .prr_model import InfeasibleGeometryError, prr_geometry_for_rows

__all__ = [
    "RegionOccupancy",
    "PlacementCache",
    "GroupBounds",
    "group_lower_bounds",
    "group_key",
    "clear_bounds_cache",
]


def group_key(group: Sequence[PRMRequirements]) -> tuple[PRMRequirements, ...]:
    """Canonical (order-insensitive) cache key for a PRM group."""
    return tuple(
        sorted(
            group,
            key=lambda p: (p.name, p.lut_ff_pairs, p.luts, p.ffs, p.dsps, p.brams),
        )
    )


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


class PlacementCache:
    """Memoized ``find_prr`` results for one explorer run.

    The cache stores either the found :class:`~repro.core.
    placement_search.PlacedPRR` or the message of the raised
    :class:`~repro.core.placement_search.PlacementNotFoundError`, so
    infeasible groups — the common case deep in a partition enumeration —
    are as cheap to re-ask as feasible ones.  Each infeasible hit raises
    a fresh error: re-raising one cached instance would grow its
    traceback by a frame pair per hit and pin those frames.
    """

    __slots__ = ("_entries", "hits", "misses")

    def __init__(self) -> None:
        self._entries: dict[tuple, object] = {}
        self.hits = 0
        self.misses = 0

    def find_prr(
        self,
        device: Device,
        group: Sequence[PRMRequirements],
        *,
        forbidden: RegionOccupancy,
        objective: str = "size",
    ):
        """Cached :func:`~repro.core.placement_search.find_prr`."""
        from .placement_search import PlacementNotFoundError, find_prr

        key = (device.name, group_key(group), forbidden.key(), objective)
        cached = self._entries.get(key)
        if cached is not None:
            self.hits += 1
            if isinstance(cached, str):
                raise PlacementNotFoundError(cached)
            return cached
        self.misses += 1
        try:
            placed = find_prr(
                device, list(group), objective=objective, forbidden=forbidden
            )
        except PlacementNotFoundError as error:
            self._entries[key] = error.message
            raise
        self._entries[key] = placed
        return placed


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


def group_lower_bounds(
    device: Device, group: Sequence[PRMRequirements]
) -> GroupBounds | None:
    """Admissible (area, bitstream) lower bounds for a shared-PRR group.

    Returns ``None`` when no H in ``1..rows`` yields a feasible geometry
    (only the single-DSP-column rule can cause that).  Merged requirements
    dominate each member's, so a ``None`` verdict also rules out every
    superset of the group — the explorer prunes such branches outright.
    """
    return _cached_bounds(device, group_key(group))


@lru_cache(maxsize=65536)
def _cached_bounds(
    device: Device, key: tuple[PRMRequirements, ...]
) -> GroupBounds | None:
    min_size: int | None = None
    min_bytes: int | None = None
    for rows in range(1, device.rows + 1):
        try:
            geometry = prr_geometry_for_rows(
                key,
                device.family,
                rows,
                single_dsp_column=device.has_single_dsp_column,
            )
        except InfeasibleGeometryError:
            continue
        size = geometry.size
        by = cached_bitstream_bytes(geometry)
        if min_size is None or size < min_size:
            min_size = size
        if min_bytes is None or by < min_bytes:
            min_bytes = by
    if min_size is None or min_bytes is None:
        return None
    return GroupBounds(min_size=min_size, min_bytes=min_bytes)


def clear_bounds_cache() -> None:
    """Drop memoized group bounds (used by equivalence tests)."""
    _cached_bounds.cache_clear()

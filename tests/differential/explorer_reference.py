"""Test-only reference for the explorer's evaluation path.

The per-partition evaluation the explorer used before its subset table:
every set partition re-runs the Fig. 1 search per group through a
:class:`PlacementCache` keyed on ``(device, group, forbidden set,
objective)``, and the pruned and beam modes read per-group bounds from
an LRU.  Kept as the oracle for
``test_explorer_vs_reference.py``, the fast-path unit tests and the
explorer perf gate.  Nothing under ``src/`` imports this module.

* :func:`iter_set_partitions` — the recursive partition enumeration;
* :func:`explore` — the three strategies (``exhaustive``, ``pruned``,
  ``beam``) without the anytime budget layer;
* :func:`evaluate_partition`, :class:`PlacementCache`, :func:`group_key`,
  :func:`group_lower_bounds` (with its LRU and
  :func:`clear_bounds_cache`);
* :func:`pareto_front` — the all-pairs front.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence

from repro.core.bitstream_model import cached_bitstream_bytes
from repro.core.explorer import DEFAULT_BEAM_WIDTH, PartitioningDesign, PRRAssignment
from repro.core.fastpath import GroupBounds, RegionOccupancy
from repro.core.params import PRMRequirements
from repro.core.placement_search import PlacementNotFoundError, find_prr
from repro.core.prr_model import InfeasibleGeometryError, prr_geometry_for_rows
from repro.core.reconfig_model import ICAP_VIRTEX5_BYTES_PER_S, estimate_reconfig_time
from repro.devices.fabric import Device


def iter_set_partitions(items: Sequence[int]) -> Iterator[list[list[int]]]:
    """Yield all set partitions of *items*, recursively: the first item
    joins each group of each partition of the rest, then starts its own."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partial in iter_set_partitions(rest):
        for index in range(len(partial)):
            yield partial[:index] + [[first] + partial[index]] + partial[index + 1 :]
        yield [[first]] + partial


def group_key(group: Sequence[PRMRequirements]) -> tuple[PRMRequirements, ...]:
    """Canonical (order-insensitive) cache key for a PRM group."""
    return tuple(
        sorted(
            group,
            key=lambda p: (p.name, p.lut_ff_pairs, p.luts, p.ffs, p.dsps, p.brams),
        )
    )


class PlacementCache:
    """Memoized ``find_prr`` results for one explorer run.

    Stores the found placement or the message of the raised
    :class:`PlacementNotFoundError`; each infeasible hit raises a fresh
    error.
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


def group_lower_bounds(
    device: Device, group: Sequence[PRMRequirements]
) -> GroupBounds | None:
    """Min eq. (7) area and min eq. (18) bytes over every feasible H."""
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
    """Drop memoized group bounds."""
    _cached_bounds.cache_clear()


def evaluate_partition(
    device: Device,
    groups: Sequence[Sequence[PRMRequirements]],
    *,
    controller_bytes_per_s: float = ICAP_VIRTEX5_BYTES_PER_S,
    placement_cache: PlacementCache | None = None,
) -> PartitioningDesign | None:
    """Place one PRR per group, largest group first; ``None`` if infeasible."""
    ordered = sorted(
        (list(group) for group in groups),
        key=lambda group: -max(prm.lut_ff_pairs for prm in group),
    )
    placed: list[PRRAssignment] = []
    occupied = RegionOccupancy()
    for group in ordered:
        try:
            if placement_cache is not None:
                placement = placement_cache.find_prr(
                    device, group, forbidden=occupied
                )
            else:
                placement = find_prr(device, group, forbidden=occupied)
        except PlacementNotFoundError:
            return None
        placed.append(PRRAssignment(prms=tuple(group), placement=placement))
        occupied.add(placement.region)
    return PartitioningDesign(
        device_name=device.name,
        assignments=tuple(placed),
        controller_bytes_per_s=controller_bytes_per_s,
    )


def explore(
    device: Device,
    prms: Sequence[PRMRequirements],
    *,
    controller_bytes_per_s: float = ICAP_VIRTEX5_BYTES_PER_S,
    max_prrs: int | None = None,
    mode: str = "exhaustive",
    beam_width: int = DEFAULT_BEAM_WIDTH,
) -> list[PartitioningDesign]:
    """Budget-free dispatch over the three strategies."""
    if mode == "exhaustive":
        return _explore_exhaustive(device, prms, controller_bytes_per_s, max_prrs)
    if mode == "pruned":
        return _explore_pruned(device, prms, controller_bytes_per_s, max_prrs)
    if mode == "beam":
        return _explore_beam(
            device, prms, controller_bytes_per_s, max_prrs, beam_width
        )
    raise ValueError(f"unknown explore mode {mode!r}")


def _explore_exhaustive(device, prms, controller_bytes_per_s, max_prrs):
    cache = PlacementCache()
    designs: list[PartitioningDesign] = []
    for partition in iter_set_partitions(range(len(prms))):
        if max_prrs is not None and len(partition) > max_prrs:
            continue
        design = evaluate_partition(
            device,
            [[prms[i] for i in group] for group in partition],
            controller_bytes_per_s=controller_bytes_per_s,
            placement_cache=cache,
        )
        if design is not None:
            designs.append(design)
    designs.sort(key=lambda d: d.objectives)
    return designs


def _partial_lower_bound(device, prms, groups, next_index, controller_bytes_per_s):
    area = 0
    total_bytes = 0
    worst_bytes = 0
    for group in groups:
        bounds = group_lower_bounds(device, [prms[i] for i in group])
        if bounds is None:
            return None
        area += bounds.min_size
        total_bytes += bounds.min_bytes * len(group)
        worst_bytes = max(worst_bytes, bounds.min_bytes)
    for index in range(next_index, len(prms)):
        bounds = group_lower_bounds(device, [prms[index]])
        if bounds is None:
            return None
        total_bytes += bounds.min_bytes
        worst_bytes = max(worst_bytes, bounds.min_bytes)
    worst_seconds = (
        estimate_reconfig_time(
            worst_bytes, controller_bytes_per_s=controller_bytes_per_s
        ).seconds
        if worst_bytes
        else 0.0
    )
    return (area, total_bytes, worst_seconds)


def _strictly_dominates(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def _explore_pruned(device, prms, controller_bytes_per_s, max_prrs):
    n = len(prms)
    cache = PlacementCache()
    designs: list[PartitioningDesign] = []
    archived: list[tuple[int, int, float]] = []
    groups: list[list[int]] = []

    def viable(next_index: int) -> bool:
        bound = _partial_lower_bound(
            device, prms, groups, next_index, controller_bytes_per_s
        )
        if bound is None:
            return False
        return not any(_strictly_dominates(done, bound) for done in archived)

    def descend(index: int) -> None:
        if index == n:
            design = evaluate_partition(
                device,
                [[prms[i] for i in group] for group in groups],
                controller_bytes_per_s=controller_bytes_per_s,
                placement_cache=cache,
            )
            if design is not None:
                designs.append(design)
                archived.append(design.objectives)
            return
        for group in groups:
            group.append(index)
            if viable(index + 1):
                descend(index + 1)
            group.pop()
        if max_prrs is None or len(groups) < max_prrs:
            groups.append([index])
            if viable(index + 1):
                descend(index + 1)
            groups.pop()

    if n == 0:
        return []
    if viable(0):
        descend(0)
    designs.sort(key=lambda d: d.objectives)
    return designs


def _explore_beam(device, prms, controller_bytes_per_s, max_prrs, beam_width):
    if beam_width < 1:
        raise ValueError("beam_width must be >= 1")
    n = len(prms)
    if n == 0:
        return []
    cache = PlacementCache()

    def partial_score(candidate, next_index):
        design = evaluate_partition(
            device,
            [[prms[i] for i in group] for group in candidate],
            controller_bytes_per_s=controller_bytes_per_s,
            placement_cache=cache,
        )
        if design is None:
            return None
        remaining_bytes = 0
        worst_bytes = 0
        for index in range(next_index, n):
            bounds = group_lower_bounds(device, [prms[index]])
            if bounds is None:
                return None
            remaining_bytes += bounds.min_bytes
            worst_bytes = max(worst_bytes, bounds.min_bytes)
        area, total_bytes, worst_seconds = design.objectives
        if worst_bytes:
            worst_seconds = max(
                worst_seconds,
                estimate_reconfig_time(
                    worst_bytes, controller_bytes_per_s=controller_bytes_per_s
                ).seconds,
            )
        return (area, total_bytes + remaining_bytes, worst_seconds), design

    beam: list[tuple[tuple[int, ...], ...]] = [()]
    final: dict[tuple[tuple[int, ...], ...], PartitioningDesign] = {}
    for index in range(n):
        scored = []
        seen: set[tuple[tuple[int, ...], ...]] = set()
        for partial in beam:
            expansions = [
                partial[:gi] + (partial[gi] + (index,),) + partial[gi + 1 :]
                for gi in range(len(partial))
            ]
            if max_prrs is None or len(partial) < max_prrs:
                expansions.append(partial + ((index,),))
            for candidate in expansions:
                canonical = tuple(sorted(candidate))
                if canonical in seen:
                    continue
                seen.add(canonical)
                result = partial_score(candidate, index + 1)
                if result is None:
                    continue
                score, design = result
                scored.append((score, candidate))
                if index + 1 == n:
                    final[candidate] = design
        scored.sort(key=lambda item: item[0])
        beam = [candidate for _, candidate in scored[:beam_width]]
        if not beam:
            break
    designs = [final[candidate] for candidate in beam if candidate in final]
    designs.sort(key=lambda d: d.objectives)
    return designs


def pareto_front(designs: Sequence[PartitioningDesign]) -> list[PartitioningDesign]:
    """Designs not dominated on (area, bitstream, worst reconfig time)."""
    front: list[PartitioningDesign] = []
    for candidate in designs:
        c = candidate.objectives
        dominated = False
        for other in designs:
            if other is candidate:
                continue
            o = other.objectives
            if all(x <= y for x, y in zip(o, c)) and o != c:
                dominated = True
                break
        if not dominated and not any(
            f.objectives == c and _same_grouping(f, candidate) for f in front
        ):
            front.append(candidate)
    return front


def _same_grouping(a: PartitioningDesign, b: PartitioningDesign) -> bool:
    names_a = sorted(tuple(sorted(p.name for p in x.prms)) for x in a.assignments)
    names_b = sorted(tuple(sorted(p.name for p in x.prms)) for x in b.assignments)
    return names_a == names_b

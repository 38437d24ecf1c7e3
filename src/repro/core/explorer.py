"""PR partitioning design-space exploration.

Section I: "the PR partitioning design space is exponentially large and
designers can only feasibly evaluate a subset of these designs.  To assist
in early PR partitioning design decisions, system designers need
system/application-level analytical or simulated models".

This module is that assistant: given a set of PRMs and a target device it
enumerates ways to group PRMs into shared PRRs (set partitions), runs the
Fig. 1 flow per group with non-overlap constraints, evaluates each design
with both cost models, and reports the Pareto-efficient designs over
(total PRR area, total bitstream bytes, worst per-PRM reconfiguration
time).

Four search strategies share the evaluation machinery (see
:func:`explore`):

* ``exhaustive`` — every set partition;
* ``pruned`` — branch-and-bound over partial partitions with admissible
  area/bitstream lower bounds; returns a subset of the feasible designs
  whose Pareto front is identical to the exhaustive one;
* ``beam`` — bounded-width beam search over partial partitions, the
  graceful-degradation path for PRM counts where Bell-number enumeration
  is intractable;
* ``auto`` — exhaustive up to :data:`MAX_EXHAUSTIVE_PRMS` PRMs, beam
  beyond.

The shared machinery works per PRM subset, not per partition: eight
PRMs have 255 subsets but 4,140 set partitions.  One run builds a
:class:`~repro.core.fastpath.SubsetTable` (each subset's geometries,
from :func:`~repro.core.prr_model.group_columns`, ranked as the Fig. 1
search tries them, and its bounds) and interns each
distinct set of placed regions as an int occupancy state, so the Fig. 1
step of a group against a state is computed once and every later
partition that reaches that state reads it back.  Objectives are summed
from ints while placing; design objects are built only for feasible
partitions, after the final sort.

Anytime search sits on top: ``explore(..., deadline_s=...)`` (or
``max_evaluations=...``) bounds the search with a
:class:`~repro.core.budget.Budget`; the result is an
:class:`ExploreResult` (a ``list`` subclass) carrying a
``degraded``/``exhausted`` status, and ``mode="auto"`` escalates
exhaustive → pruned → beam when the budget is too tight for complete
enumeration.  An all-PRMs-share-one-PRR *incumbent* is evaluated first
so even a severely cut search returns a usable design.

Every mode evaluates in-process on one ``_PartitionEvaluator``; an
exhaustive 8-PRM run takes tens of milliseconds, less than starting a
process pool.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, Literal, Sequence

from ..devices.fabric import Device, Region
from ..errors import InvalidInput
from ..obs import trace as _obs
from .bitstream_model import cached_bitstream_bytes
from .budget import Budget
from .fastpath import RegionOccupancy, SubsetTable
from .params import PRMRequirements
from .placement_search import PlacedPRR, _place_geometry
from .reconfig_model import ICAP_VIRTEX5_BYTES_PER_S, estimate_reconfig_time
from .utilization import UtilizationReport, utilization

__all__ = [
    "PRRAssignment",
    "PartitioningDesign",
    "ExploreResult",
    "iter_set_partitions",
    "evaluate_partition",
    "explore",
    "pareto_front",
    "ExploreMode",
    "MAX_EXHAUSTIVE_PRMS",
    "DEFAULT_BEAM_WIDTH",
]

#: Exploring more PRMs than this exhaustively would enumerate > 21k set
#: partitions; ``mode="auto"`` switches to beam search beyond it.
MAX_EXHAUSTIVE_PRMS = 8

#: Partial partitions kept per level by the beam fallback.
DEFAULT_BEAM_WIDTH = 64

ExploreMode = Literal["auto", "exhaustive", "pruned", "beam"]

_EXPLORE_MODES = ("auto", "exhaustive", "pruned", "beam")


def _record_search_metrics(
    *,
    strategy: str,
    evaluated: int,
    pruned: int,
    feasible: int,
    evaluator: "_PartitionEvaluator",
) -> None:
    """Publish one strategy run's search statistics (no-op when disabled).

    Counters are created even at zero so every trace document carries the
    full search-telemetry shape (the CI schema smoke relies on that).
    """
    registry = _obs.metrics()
    if registry is None:
        return
    registry.counter("explore.candidates_evaluated").inc(evaluated)
    registry.counter("explore.branches_pruned").inc(pruned)
    registry.counter("explore.designs_feasible").inc(feasible)
    # Step-memo reads feed the placement-cache counters, whose names every
    # trace document carries.
    registry.counter("explore.placement_cache_hits").inc(
        evaluator.lookups - evaluator.misses
    )
    registry.counter("explore.placement_cache_misses").inc(evaluator.misses)
    span = _obs.current_span()
    if span is not None:
        span.set("strategy", strategy)
        span.set("evaluated", evaluated)
        span.set("pruned", pruned)


def iter_set_partitions(items: Sequence[int]) -> Iterator[list[list[int]]]:
    """Yield all set partitions of *items* (order-insensitive groups).

    Each partition of ``items[1:]`` yields ``items[0]`` joined to each of
    its groups in turn, then ``items[0]`` alone in a new first group (see
    :func:`_mask_partitions`); groups list their items in input order.
    """
    items = list(items)
    for masks in _mask_partitions(len(items)):
        yield [[items[i] for i in _bits(mask)] for mask in masks]


@dataclass(frozen=True, slots=True)
class PRRAssignment:
    """One PRR of a design: the PRMs sharing it and its placed geometry."""

    prms: tuple[PRMRequirements, ...]
    placement: PlacedPRR

    @property
    def bitstream_bytes(self) -> int:
        """Every PRM of a shared PRR reconfigures the whole PRR, so all of
        its partial bitstreams have the same eq. (18) size (memoized per
        geometry)."""
        return cached_bitstream_bytes(self.placement.geometry)

    def utilization_of(self, prm: PRMRequirements) -> UtilizationReport:
        return utilization(prm, self.placement.geometry)


@dataclass(frozen=True, slots=True)
class PartitioningDesign:
    """A fully evaluated PR partitioning: one assignment per PRR."""

    device_name: str
    assignments: tuple[PRRAssignment, ...]
    controller_bytes_per_s: float

    @property
    def num_prrs(self) -> int:
        return len(self.assignments)

    @property
    def total_prr_size(self) -> int:
        """Sum of PRR_size over all PRRs (fabric area committed to PR)."""
        return sum(a.placement.size for a in self.assignments)

    @property
    def total_bitstream_bytes(self) -> int:
        """Sum over PRMs of their partial bitstream sizes."""
        return sum(
            a.bitstream_bytes * len(a.prms) for a in self.assignments
        )

    @property
    def worst_reconfig_seconds(self) -> float:
        """Largest single-PRM reconfiguration time in the design."""
        if not self.assignments:
            return 0.0
        worst_bytes = max(a.bitstream_bytes for a in self.assignments)
        return estimate_reconfig_time(
            worst_bytes, controller_bytes_per_s=self.controller_bytes_per_s
        ).seconds

    @property
    def objectives(self) -> tuple[int, int, float]:
        """(area, bitstream bytes, worst reconfig time) minimization tuple."""
        return (
            self.total_prr_size,
            self.total_bitstream_bytes,
            self.worst_reconfig_seconds,
        )

    def summary(self) -> str:
        groups = " | ".join(
            "+".join(prm.name for prm in a.prms)
            + f" -> H={a.placement.geometry.rows},W={a.placement.geometry.width}"
            for a in self.assignments
        )
        return (
            f"{self.num_prrs} PRR(s): {groups} | area={self.total_prr_size} "
            f"bytes={self.total_bitstream_bytes} "
            f"t_max={self.worst_reconfig_seconds * 1e6:.1f}us"
        )


class ExploreResult(list):
    """The designs :func:`explore` found, plus anytime-search metadata.

    A ``list`` subclass, so every pre-existing caller (slicing, equality,
    ``pareto_front(designs)``) keeps working unchanged.  The extra
    attributes only carry information when a budget was supplied:

    * ``status`` — ``"exhausted"`` (the strategy ran to completion) or
      ``"degraded"`` (the budget cut it; the list is the best-so-far);
    * ``mode`` — the strategy actually used after any auto escalation;
    * ``exhausted_reason`` — ``"deadline"`` / ``"evaluations"`` when
      degraded, else ``None``;
    * ``elapsed_s`` / ``evaluations`` — search cost actually spent;
    * ``deadline_s`` — the wall-clock budget that applied, if any.
    """

    __slots__ = (
        "status",
        "mode",
        "exhausted_reason",
        "elapsed_s",
        "evaluations",
        "deadline_s",
    )

    def __init__(
        self,
        designs: Sequence[PartitioningDesign] = (),
        *,
        mode: str = "exhaustive",
        status: str = "exhausted",
        exhausted_reason: str | None = None,
        elapsed_s: float = 0.0,
        evaluations: int = 0,
        deadline_s: float | None = None,
    ) -> None:
        super().__init__(designs)
        self.mode = mode
        self.status = status
        self.exhausted_reason = exhausted_reason
        self.elapsed_s = elapsed_s
        self.evaluations = evaluations
        self.deadline_s = deadline_s

    @property
    def degraded(self) -> bool:
        """True when the budget cut the search before completion."""
        return self.status == "degraded"

    @property
    def front(self) -> "list[PartitioningDesign]":
        """Pareto front of the designs found so far."""
        return pareto_front(self)


_MISSING = object()


class _PartitionEvaluator:
    """Shared evaluation state of one explorer run.

    Every strategy evaluates partitions given as tuples of PRM-subset
    bitmasks over ``prms``.  Three memos make a partition cost a few dict
    reads once its groups have been seen:

    * the :class:`~repro.core.fastpath.SubsetTable` (per-subset ranked
      geometries and bounds);
    * interned occupancy states — each distinct set of already-placed
      regions gets an int id (0 is the empty fabric), so
      ``(state, geometry id) -> (PlacedPRR, next state) | None`` and
      ``(state, subset) -> step | None`` are int-keyed memos.  A step is
      the Fig. 1 result for one group: the first ``(size, H)``-ranked
      geometry that places, as ``(next state, size, bytes x members,
      bytes, PRRAssignment)``; ``None`` when no geometry places;
    * reconfiguration seconds per distinct worst-byte count.

    Groups are placed largest-first (``-max(lut_ff_pairs)``, stable), so
    partitions sharing a placed prefix share its states and steps.
    ``lookups``/``misses`` count step-memo reads for the search telemetry.
    """

    __slots__ = (
        "table",
        "device_name",
        "controller_bytes_per_s",
        "lookups",
        "misses",
        "_stride",
        "_order",
        "_steps",
        "_states",
        "_state_ids",
        "_placements",
        "_seconds",
        "_remaining",
    )

    def __init__(
        self,
        device: Device,
        prms: Sequence[PRMRequirements],
        controller_bytes_per_s: float,
    ) -> None:
        self.table = SubsetTable(device, prms)
        self.device_name = device.name
        self.controller_bytes_per_s = controller_bytes_per_s
        self.lookups = 0
        self.misses = 0
        self._stride = 1 << len(self.table.prms)
        self._order: dict[int, int] = {}
        self._steps: dict[int, tuple | None] = {}
        self._states = [RegionOccupancy()]
        self._state_ids: dict[frozenset[Region], int] = {frozenset(): 0}
        self._placements: dict[tuple[int, int], tuple[PlacedPRR, int] | None] = {}
        self._seconds: dict[int, float] = {}
        self._remaining: list[tuple[int, int] | None] | None = None

    def evaluate(
        self, masks: Sequence[int]
    ) -> tuple[tuple[int, int, float], tuple[PRRAssignment, ...]] | None:
        """``(objectives, assignments)`` of one partition, or ``None``."""
        order = self._order
        for mask in masks:
            if mask not in order:
                order[mask] = -max(self.table.prms[i].lut_ff_pairs for i in _bits(mask))
        steps = self._steps
        stride = self._stride
        state = area = total_bytes = worst_bytes = 0
        assignments = []
        for mask in sorted(masks, key=order.__getitem__):
            self.lookups += 1
            step = steps.get(state * stride + mask, _MISSING)
            if step is _MISSING:
                step = self._step(state, mask)
            if step is None:
                return None
            state, size, weighted_bytes, nbytes, assignment = step
            area += size
            total_bytes += weighted_bytes
            if nbytes > worst_bytes:
                worst_bytes = nbytes
            assignments.append(assignment)
        seconds = self.seconds(worst_bytes) if assignments else 0.0
        return (area, total_bytes, seconds), tuple(assignments)

    def design(self, assignments: tuple[PRRAssignment, ...]) -> PartitioningDesign:
        return PartitioningDesign(
            device_name=self.device_name,
            assignments=assignments,
            controller_bytes_per_s=self.controller_bytes_per_s,
        )

    def designs(self, rows: list) -> list[PartitioningDesign]:
        """Designs of the ``(objectives, assignments, ...)`` rows, best first.

        The sort is stable, so objective ties keep evaluation order.
        """
        rows.sort(key=itemgetter(0))
        return [self.design(row[1]) for row in rows]

    def seconds(self, nbytes: int) -> float:
        """Reconfiguration time of an *nbytes* bitstream (memoized)."""
        seconds = self._seconds.get(nbytes)
        if seconds is None:
            seconds = self._seconds[nbytes] = estimate_reconfig_time(
                nbytes, controller_bytes_per_s=self.controller_bytes_per_s
            ).seconds
        return seconds

    def remaining(self, next_index: int) -> tuple[int, int] | None:
        """(sum, max) of solo min bytes over PRMs ``next_index..n-1``.

        ``None`` when one of them has no feasible geometry on its own.
        """
        if self._remaining is None:
            suffix: list[tuple[int, int] | None] = [(0, 0)]
            for index in reversed(range(len(self.table.prms))):
                bounds = self.table.bounds(1 << index)
                after = suffix[-1]
                suffix.append(
                    None
                    if bounds is None or after is None
                    else (after[0] + bounds.min_bytes, max(after[1], bounds.min_bytes))
                )
            self._remaining = suffix[::-1]
        return self._remaining[next_index]

    def _step(self, state: int, mask: int) -> tuple | None:
        self.misses += 1
        table = self.table
        step = None
        for gid in table.entry(mask)[0]:
            placed = self._place(state, gid)
            if placed is not None:
                placement, next_state = placed
                nbytes = table.bytes[gid]
                step = (
                    next_state,
                    table.sizes[gid],
                    nbytes * mask.bit_count(),
                    nbytes,
                    PRRAssignment(
                        prms=tuple(table.prms[i] for i in _bits(mask)),
                        placement=placement,
                    ),
                )
                break
        self._steps[state * self._stride + mask] = step
        return step

    def _place(self, state: int, gid: int) -> tuple[PlacedPRR, int] | None:
        key = (state, gid)
        if key in self._placements:
            return self._placements[key]
        placement = _place_geometry(
            self.table.device, self.table.geometries[gid], self._states[state]
        )
        placed = None
        if placement is not None:
            region = placement.region
            state_key = self._states[state].key() | {region}
            next_state = self._state_ids.get(state_key)
            if next_state is None:
                next_state = self._state_ids[state_key] = len(self._states)
                self._states.append(RegionOccupancy(state_key))
            placed = (placement, next_state)
        self._placements[key] = placed
        return placed


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of *mask*, increasing."""
    index = 0
    while mask:
        if mask & 1:
            yield index
        mask >>= 1
        index += 1


def _mask_partitions(n: int) -> list[tuple[int, ...]]:
    """Set partitions of ``range(n)`` as tuples of group bitmasks.

    Partitions of items ``k..n-1`` grow from those of ``k+1..n-1``: item
    ``k`` joins each existing group in turn, then starts a new group in
    front.  The stable objective sort breaks ties by this order.
    """
    partitions: list[tuple[int, ...]] = [()]
    for item in reversed(range(n)):
        bit = 1 << item
        grown: list[tuple[int, ...]] = []
        for partial in partitions:
            for index in range(len(partial)):
                grown.append(
                    partial[:index] + (partial[index] | bit,) + partial[index + 1 :]
                )
            grown.append((bit, *partial))
        partitions = grown
    return partitions


def evaluate_partition(
    device: Device,
    groups: Sequence[Sequence[PRMRequirements]],
    *,
    controller_bytes_per_s: float = ICAP_VIRTEX5_BYTES_PER_S,
) -> PartitioningDesign | None:
    """Place one PRR per group (non-overlapping); ``None`` if infeasible.

    Groups are placed largest-first (by their largest member's LUT–FF
    pairs, stable) so big PRRs get first pick of contiguous windows; each
    runs the Fig. 1 search against the regions placed before it.
    """
    prms: list[PRMRequirements] = []
    masks: list[int] = []
    for group in groups:
        mask = 0
        for prm in group:
            mask |= 1 << len(prms)
            prms.append(prm)
        masks.append(mask)
    evaluator = _PartitionEvaluator(device, prms, controller_bytes_per_s)
    row = evaluator.evaluate(masks)
    return None if row is None else evaluator.design(row[1])


def explore(
    device: Device,
    prms: Sequence[PRMRequirements],
    *,
    controller_bytes_per_s: float = ICAP_VIRTEX5_BYTES_PER_S,
    max_prrs: int | None = None,
    mode: ExploreMode = "auto",
    beam_width: int = DEFAULT_BEAM_WIDTH,
    deadline_s: float | None = None,
    max_evaluations: int | None = None,
) -> ExploreResult:
    """Search PRM-to-PRR set partitions; return feasible designs.

    Designs come back sorted by the objective tuple (best first), as an
    :class:`ExploreResult` (a ``list`` subclass).

    ``mode`` selects the strategy:

    * ``"auto"`` (default) — exhaustive enumeration up to
      :data:`MAX_EXHAUSTIVE_PRMS` PRMs; beyond that it degrades
      gracefully to beam search (bounded width ``beam_width``) instead of
      raising, so >8-PRM workloads return a good — not provably complete
      — design set.  With a budget (below), auto additionally escalates
      exhaustive → pruned → beam when the budget looks too tight for the
      cheaper-to-pick strategy.
    * ``"exhaustive"`` — every set partition; raises
      :class:`~repro.errors.InvalidInput` above
      :data:`MAX_EXHAUSTIVE_PRMS` PRMs.
    * ``"pruned"`` — branch-and-bound: partial partitions whose
      admissible lower bound is already strictly dominated by a completed
      design are abandoned.  Returns a subset of the exhaustive design
      list whose Pareto front is identical (asserted by tests).
    * ``"beam"`` — beam search at any PRM count.

    ``deadline_s`` / ``max_evaluations`` make the search *anytime*: the
    all-PRMs-in-one-PRR incumbent is evaluated first, then the selected
    strategy runs until it completes or the budget expires, and the
    result reports ``status="degraded"`` with the best designs found so
    far instead of raising.  Without a budget the search behaves — and
    its outputs are byte-identical to — the pre-anytime code path.

    ``max_prrs`` (>= 1) drops partitions with more PRRs than that.
    Every mode runs sequentially in the calling thread.
    """
    if mode not in _EXPLORE_MODES:
        raise InvalidInput(
            f"unknown explore mode {mode!r}; valid: {', '.join(_EXPLORE_MODES)}"
        )
    if max_prrs is not None and max_prrs < 1:
        raise InvalidInput(f"max_prrs must be >= 1, got {max_prrs!r}")
    if beam_width < 1:
        raise InvalidInput(f"beam_width must be >= 1, got {beam_width!r}")
    n = len(prms)
    budget = (
        Budget(deadline_s=deadline_s, max_evaluations=max_evaluations)
        if deadline_s is not None or max_evaluations is not None
        else None
    )
    if mode == "auto" and budget is None:
        mode = "exhaustive" if n <= MAX_EXHAUSTIVE_PRMS else "beam"
    with _obs.trace_span("explore", mode=mode, prms=n, device=device.name) as span:
        window_before = (
            device.window_index.stats() if _obs.enabled else None
        )
        if budget is None:
            designs = _explore_dispatch(
                device,
                prms,
                mode=mode,
                controller_bytes_per_s=controller_bytes_per_s,
                max_prrs=max_prrs,
                beam_width=beam_width,
            )
            result = ExploreResult(designs, mode=mode, status="exhausted")
        else:
            result = _explore_anytime(
                device,
                prms,
                mode=mode,
                budget=budget,
                controller_bytes_per_s=controller_bytes_per_s,
                max_prrs=max_prrs,
                beam_width=beam_width,
            )
        if window_before is not None:
            registry = _obs.metrics()
            if registry is not None:
                after = device.window_index.stats()
                for key in ("queries", "mix_builds"):
                    registry.counter(f"window_index.{key}").inc(
                        after[key] - window_before[key]
                    )
            span.set("designs", len(result))
            if budget is not None:
                span.set("status", result.status)
                span.set("anytime_mode", result.mode)
    return result


def _explore_anytime(
    device: Device,
    prms: Sequence[PRMRequirements],
    *,
    mode: str,
    budget: Budget,
    controller_bytes_per_s: float,
    max_prrs: int | None,
    beam_width: int,
) -> ExploreResult:
    """Budgeted search: incumbent first, then the (escalated) strategy.

    The incumbent — every PRM sharing one PRR — is the cheapest complete
    design and doubles as the timing probe for deadline-driven mode
    escalation.  When that grouping is infeasible (one PRM's demands
    blow the shared PRR past the fabric) the opposite endpoint — one PRR
    per PRM — is probed instead.  The incumbent is merged into the final
    design list if the cut-off strategy did not reach that grouping
    itself, so a degraded result is non-empty whenever either endpoint
    grouping is feasible.
    """
    incumbent: PartitioningDesign | None = None
    probe_s = 0.0
    if prms:
        probe_start = time.perf_counter()
        incumbent = evaluate_partition(
            device,
            [list(prms)],
            controller_bytes_per_s=controller_bytes_per_s,
        )
        probe_s = time.perf_counter() - probe_start
        budget.charge()
        if (
            incumbent is None
            and len(prms) > 1
            and (max_prrs is None or max_prrs >= len(prms))
        ):
            incumbent = evaluate_partition(
                device,
                [[prm] for prm in prms],
                controller_bytes_per_s=controller_bytes_per_s,
            )
            budget.charge()
    if mode == "auto":
        mode = _escalate_mode(len(prms), budget, probe_s)
    designs: list[PartitioningDesign] = []
    if not budget.expired:
        designs = _explore_dispatch(
            device,
            prms,
            mode=mode,
            controller_bytes_per_s=controller_bytes_per_s,
            max_prrs=max_prrs,
            beam_width=beam_width,
            budget=budget,
        )
    if incumbent is not None and not any(
        _grouping(d) == _grouping(incumbent) for d in designs
    ):
        designs = sorted([*designs, incumbent], key=lambda d: d.objectives)
    status = "degraded" if budget.exhausted_reason is not None else "exhausted"
    if _obs.enabled and status == "degraded":
        registry = _obs.metrics()
        if registry is not None:
            registry.counter("explore.budget_cutoffs").inc()
    return ExploreResult(
        designs,
        mode=mode,
        status=status,
        exhausted_reason=budget.exhausted_reason,
        elapsed_s=budget.elapsed_s,
        evaluations=budget.evaluations,
        deadline_s=budget.deadline_s,
    )


def _bell_number(n: int) -> int:
    """Number of set partitions of *n* items (exhaustive candidate count)."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


def _escalate_mode(n: int, budget: Budget, probe_s: float) -> str:
    """Pick the strongest strategy the budget can plausibly afford.

    Exhaustive enumerates Bell(n) candidates; the incumbent evaluation
    time is the per-candidate cost estimate (an overestimate once the
    step memo warms up, which biases toward completing in budget).
    Pruned typically evaluates a small fraction of Bell(n) but has no
    useful a-priori bound, so it gets a generous multiplier; beam is the
    always-bounded fallback.
    """
    candidates = _bell_number(n)
    if budget.max_evaluations is not None:
        allowed = budget.max_evaluations - budget.evaluations
        if n <= MAX_EXHAUSTIVE_PRMS and candidates <= allowed:
            pass  # exhaustive still in play; deadline check below
        elif n <= MAX_EXHAUSTIVE_PRMS:
            return "pruned"
        else:
            return "beam"
    if n > MAX_EXHAUSTIVE_PRMS:
        return "beam"
    remaining = budget.remaining_s
    if remaining is None:
        return "exhaustive"
    projected = candidates * max(probe_s, 1e-6)
    if projected <= 0.5 * remaining:
        return "exhaustive"
    if projected <= 4.0 * remaining:
        return "pruned"
    return "beam"


def _explore_dispatch(
    device: Device,
    prms: Sequence[PRMRequirements],
    *,
    mode: str,
    controller_bytes_per_s: float,
    max_prrs: int | None,
    beam_width: int,
    budget: Budget | None = None,
) -> list[PartitioningDesign]:
    n = len(prms)
    if mode == "exhaustive":
        if n > MAX_EXHAUSTIVE_PRMS:
            raise InvalidInput(
                f"exhaustive exploration capped at {MAX_EXHAUSTIVE_PRMS} PRMs; "
                f"got {n} — use mode='beam'/'pruned' (or mode='auto', which "
                f"falls back to beam search automatically)"
            )
        return _explore_exhaustive(
            device,
            prms,
            controller_bytes_per_s=controller_bytes_per_s,
            max_prrs=max_prrs,
            budget=budget,
        )
    if mode == "pruned":
        return _explore_pruned(
            device,
            prms,
            controller_bytes_per_s=controller_bytes_per_s,
            max_prrs=max_prrs,
            budget=budget,
        )
    if mode == "beam":
        return _explore_beam(
            device,
            prms,
            controller_bytes_per_s=controller_bytes_per_s,
            max_prrs=max_prrs,
            beam_width=beam_width,
            budget=budget,
        )
    raise InvalidInput(f"unknown explore mode {mode!r}")


def _explore_exhaustive(
    device: Device,
    prms: Sequence[PRMRequirements],
    *,
    controller_bytes_per_s: float,
    max_prrs: int | None,
    budget: Budget | None = None,
) -> list[PartitioningDesign]:
    evaluator = _PartitionEvaluator(device, prms, controller_bytes_per_s)
    rows = []
    evaluated = 0
    for masks in _mask_partitions(len(prms)):
        if budget is not None and budget.expired:
            break
        if max_prrs is not None and len(masks) > max_prrs:
            continue
        evaluated += 1
        row = evaluator.evaluate(masks)
        if budget is not None:
            budget.charge()
        if row is not None:
            rows.append(row)
    designs = evaluator.designs(rows)
    if _obs.enabled:
        _record_search_metrics(
            strategy="exhaustive",
            evaluated=evaluated,
            pruned=0,
            feasible=len(designs),
            evaluator=evaluator,
        )
    return designs


# -- branch-and-bound / beam ---------------------------------------------------


def _partial_lower_bound(
    evaluator: _PartitionEvaluator,
    masks: Sequence[int],
    next_index: int,
) -> tuple[int, int, float] | None:
    """Admissible objective lower bound for every completion of a partial.

    ``masks`` partitions PRMs ``0..next_index-1``; the rest are
    unassigned.  Area: each existing group costs at least its geometry
    minimum, and an unassigned PRM may join an existing group for free.
    Bitstream: each PRM pays at least the minimum bytes of its current
    group (merged requirements only grow as members join), unassigned
    PRMs at least their solo minimum.  Worst reconfig time follows from
    the largest of those per-group byte minima.  Returns ``None`` when a
    group (and therefore every superset) has no feasible geometry.
    """
    table = evaluator.table
    area = 0
    total_bytes = 0
    worst_bytes = 0
    for mask in masks:
        bounds = table.bounds(mask)
        if bounds is None:
            return None
        area += bounds.min_size
        total_bytes += bounds.min_bytes * mask.bit_count()
        worst_bytes = max(worst_bytes, bounds.min_bytes)
    remaining = evaluator.remaining(next_index)
    if remaining is None:
        return None
    total_bytes += remaining[0]
    worst_bytes = max(worst_bytes, remaining[1])
    worst_seconds = evaluator.seconds(worst_bytes) if worst_bytes else 0.0
    return (area, total_bytes, worst_seconds)


def _strictly_dominates(a: tuple, b: tuple) -> bool:
    """True when *a* is <= *b* elementwise and < in some coordinate."""
    return all(x <= y for x, y in zip(a, b)) and any(
        x < y for x, y in zip(a, b)
    )


class _BudgetExhausted(Exception):
    """Internal unwind signal for the recursive pruned search."""


def _explore_pruned(
    device: Device,
    prms: Sequence[PRMRequirements],
    *,
    controller_bytes_per_s: float,
    max_prrs: int | None,
    budget: Budget | None = None,
) -> list[PartitioningDesign]:
    """Branch-and-bound enumeration with an exact Pareto front.

    A partial partition is abandoned only when its admissible lower bound
    is *strictly* dominated by a completed design — every completion of
    such a partial is itself strictly dominated, so dropping it cannot
    change the Pareto front (ties are deliberately kept).

    With a budget, expiry unwinds the recursion and the designs completed
    so far are returned; because the descent visits join-existing-group
    branches first, the early designs are the heavily shared (small-area)
    ones, which keeps a cut-off front useful.
    """
    n = len(prms)
    if n == 0:
        return []
    evaluator = _PartitionEvaluator(device, prms, controller_bytes_per_s)
    rows = []
    # Completed objectives no other completed design is <= everywhere.  A
    # design that strictly dominates a bound is itself >= one kept here,
    # which then strictly dominates the bound too, so testing bounds
    # against this front alone prunes exactly the same branches.
    archived: list[tuple[int, int, float]] = []
    masks: list[int] = []
    evaluated = 0
    pruned = 0

    def viable(next_index: int) -> bool:
        nonlocal pruned
        bound = _partial_lower_bound(evaluator, masks, next_index)
        if bound is None:
            pruned += 1
            return False
        if any(_strictly_dominates(done, bound) for done in archived):
            pruned += 1
            return False
        return True

    def descend(index: int) -> None:
        nonlocal evaluated
        if budget is not None and budget.expired:
            raise _BudgetExhausted
        if index == n:
            evaluated += 1
            row = evaluator.evaluate(masks)
            if budget is not None:
                budget.charge()
            if row is not None:
                rows.append(row)
                done = row[0]
                if not any(all(x <= y for x, y in zip(kept, done)) for kept in archived):
                    archived[:] = [
                        kept
                        for kept in archived
                        if not all(y <= x for x, y in zip(kept, done))
                    ]
                    archived.append(done)
            return
        # Join-existing-group branches first: the all-shared design is the
        # first leaf reached and usually seeds a tight area bound.
        bit = 1 << index
        for position in range(len(masks)):
            masks[position] |= bit
            if viable(index + 1):
                descend(index + 1)
            masks[position] &= ~bit
        if max_prrs is None or len(masks) < max_prrs:
            masks.append(bit)
            if viable(index + 1):
                descend(index + 1)
            masks.pop()

    try:
        if viable(0):
            descend(0)
    except _BudgetExhausted:
        pass
    designs = evaluator.designs(rows)
    if _obs.enabled:
        _record_search_metrics(
            strategy="pruned",
            evaluated=evaluated,
            pruned=pruned,
            feasible=len(designs),
            evaluator=evaluator,
        )
    return designs


def _explore_beam(
    device: Device,
    prms: Sequence[PRMRequirements],
    *,
    controller_bytes_per_s: float,
    max_prrs: int | None,
    beam_width: int,
    budget: Budget | None = None,
) -> list[PartitioningDesign]:
    """Bounded-width beam search over partial partitions.

    Level ``k`` holds at most ``beam_width`` partitions of the first ``k``
    PRMs, ranked by their placed objectives plus the admissible
    remaining-PRM bitstream contribution; survivors of the final level
    are the designs.  Completes in O(n x beam_width x n) partial
    expansions regardless of PRM count.  Unplaceable partials are
    dropped — unlike the exact pruned path, beam search may discard
    completions a different grouping would have saved, which is the
    accepted trade-off of the fallback.

    Budget expiry stops the level expansion; completed designs seen so
    far (only the final level produces any) are returned, and the
    anytime wrapper's incumbent guarantees a non-empty overall result.
    """
    n = len(prms)
    if n == 0:
        return []
    evaluator = _PartitionEvaluator(device, prms, controller_bytes_per_s)
    evaluated = 0
    pruned = 0
    cut = False

    beam: list[tuple[int, ...]] = [()]
    final: dict[tuple[int, ...], tuple] = {}
    for index in range(n):
        bit = 1 << index
        remaining = evaluator.remaining(index + 1)
        scored: list[tuple[tuple[int, int, float], tuple[int, ...]]] = []
        seen: set[tuple[int, ...]] = set()
        for partial in beam:
            expansions = [
                partial[:gi] + (partial[gi] | bit,) + partial[gi + 1 :]
                for gi in range(len(partial))
            ]
            if max_prrs is None or len(partial) < max_prrs:
                expansions.append(partial + (bit,))
            for candidate in expansions:
                if budget is not None and budget.expired:
                    cut = True
                    break
                canonical = tuple(sorted(candidate))
                if canonical in seen:
                    continue
                seen.add(canonical)
                evaluated += 1
                row = evaluator.evaluate(candidate)
                if budget is not None:
                    budget.charge()
                if row is None or remaining is None:
                    pruned += 1
                    continue
                (area, total_bytes, worst_seconds), _ = row
                remaining_bytes, worst_bytes = remaining
                if worst_bytes:
                    worst_seconds = max(worst_seconds, evaluator.seconds(worst_bytes))
                scored.append(((area, total_bytes + remaining_bytes, worst_seconds), candidate))
                if index + 1 == n:
                    final[candidate] = row
            if cut:
                break
        scored.sort(key=itemgetter(0))
        pruned += max(0, len(scored) - beam_width)
        beam = [candidate for _, candidate in scored[:beam_width]]
        if cut or not beam:
            break
    rows = [final[candidate] for candidate in beam if candidate in final]
    if cut and not rows:
        # The budget expired before the last level: salvage any exactly
        # evaluated complete designs (there are none unless n was reached,
        # so this usually stays empty and the incumbent covers the result).
        rows = list(final.values())
    designs = evaluator.designs(rows)
    if _obs.enabled:
        _record_search_metrics(
            strategy="beam",
            evaluated=evaluated,
            pruned=pruned,
            feasible=len(designs),
            evaluator=evaluator,
        )
    return designs


def pareto_front(designs: Sequence[PartitioningDesign]) -> list[PartitioningDesign]:
    """Designs not dominated on (area, bitstream, worst reconfig time).

    The front keeps input order and one design per (objectives,
    grouping).  Each design's objectives are computed once; candidates
    are then tested in lexicographic order against the non-dominated
    objective vectors found so far.  A dominating vector sorts before
    the one it dominates, and domination is transitive, so that is
    exact.
    """
    objectives = [design.objectives for design in designs]
    kept: list[tuple[int, int, float]] = []
    on_front = [False] * len(designs)
    for index in sorted(range(len(designs)), key=objectives.__getitem__):
        c = objectives[index]
        if not any(all(x <= y for x, y in zip(o, c)) and o != c for o in kept):
            on_front[index] = True
            if not kept or kept[-1] != c:
                kept.append(c)
    front: list[PartitioningDesign] = []
    emitted: set[tuple] = set()
    for index, design in enumerate(designs):
        if on_front[index]:
            key = (objectives[index], _grouping(design))
            if key not in emitted:
                emitted.add(key)
                front.append(design)
    return front


def _grouping(design: PartitioningDesign) -> tuple[tuple[str, ...], ...]:
    """PRM names per PRR, independent of PRR and member order."""
    return tuple(sorted(tuple(sorted(p.name for p in a.prms)) for a in design.assignments))


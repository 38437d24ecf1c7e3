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

* ``exhaustive`` — every set partition, optionally chunked across a
  process pool;
* ``pruned`` — branch-and-bound over partial partitions with admissible
  area/bitstream lower bounds; returns a subset of the feasible designs
  whose Pareto front is identical to the exhaustive one;
* ``beam`` — bounded-width beam search over partial partitions, the
  graceful-degradation path for PRM counts where Bell-number enumeration
  is intractable;
* ``auto`` — exhaustive up to :data:`MAX_EXHAUSTIVE_PRMS` PRMs, beam
  beyond.

Two resilience layers sit on top (ISSUE 5):

* **anytime search** — ``explore(..., deadline_s=...)`` (or
  ``max_evaluations=...``) bounds the search with a
  :class:`~repro.core.budget.Budget`; the result is an
  :class:`ExploreResult` (a ``list`` subclass) carrying a
  ``degraded``/``exhausted`` status, and ``mode="auto"`` escalates
  exhaustive → pruned → beam when the budget is too tight for complete
  enumeration.  An all-PRMs-share-one-PRR *incumbent* is evaluated first
  so even a severely cut search returns a usable design.
* **worker-crash recovery** — the process-pool path retries chunks whose
  worker died (``BrokenProcessPool``, killed pid, unpicklable result)
  with :class:`~repro.faults.reliable.RetryPolicy` backoff, and a
  circuit breaker trips the remaining chunks to in-process serial
  evaluation after repeated pool breakage.
"""

from __future__ import annotations

import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Literal, Sequence

from ..devices.fabric import Device
from ..errors import BackendBroken, InvalidInput, ReproError
from ..obs import trace as _obs
from .bitstream_model import cached_bitstream_bytes
from .budget import Budget
from .fastpath import (
    PlacementCache,
    RegionOccupancy,
    group_lower_bounds,
)
from .params import PRMRequirements
from .placement_search import (
    PlacedPRR,
    PlacementNotFoundError,
    find_prr,
)
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
    "POOL_BREAKER_THRESHOLD",
]

#: Exploring more PRMs than this exhaustively would enumerate > 21k set
#: partitions; ``mode="auto"`` switches to beam search beyond it.
MAX_EXHAUSTIVE_PRMS = 8

#: Partial partitions kept per level by the beam fallback.
DEFAULT_BEAM_WIDTH = 64

#: Process-pool breakages tolerated before the circuit breaker stops
#: recreating pools and finishes the remaining chunks serially.
POOL_BREAKER_THRESHOLD = 2

ExploreMode = Literal["auto", "exhaustive", "pruned", "beam"]

_EXPLORE_MODES = ("auto", "exhaustive", "pruned", "beam")


def _record_search_metrics(
    *,
    strategy: str,
    evaluated: int,
    pruned: int,
    feasible: int,
    cache: "PlacementCache | None",
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
    hits = registry.counter("explore.placement_cache_hits")
    misses = registry.counter("explore.placement_cache_misses")
    if cache is not None:
        hits.inc(cache.hits)
        misses.inc(cache.misses)
    span = _obs.current_span()
    if span is not None:
        span.set("strategy", strategy)
        span.set("evaluated", evaluated)
        span.set("pruned", pruned)


def iter_set_partitions(items: Sequence[int]) -> Iterator[list[list[int]]]:
    """Yield all set partitions of *items* (order-insensitive groups).

    Standard recursive construction: the first item starts in its own
    group; each later item either joins an existing group or starts a new
    one.
    """
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partial in iter_set_partitions(rest):
        for index in range(len(partial)):
            yield partial[:index] + [[first] + partial[index]] + partial[index + 1 :]
        yield [[first]] + partial


@dataclass(frozen=True, slots=True)
class PRRAssignment:
    """One PRR of a design: the PRMs sharing it and its placed geometry."""

    prms: tuple[PRMRequirements, ...]
    placement: PlacedPRR

    @property
    def bitstream_bytes(self) -> int:
        """Every PRM of a shared PRR reconfigures the whole PRR, so all of
        its partial bitstreams have the same eq. (18) size (memoized per
        geometry — ``objectives`` re-asks this on every sort/Pareto
        comparison)."""
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


def evaluate_partition(
    device: Device,
    groups: Sequence[Sequence[PRMRequirements]],
    *,
    controller_bytes_per_s: float = ICAP_VIRTEX5_BYTES_PER_S,
    placement_cache: PlacementCache | None = None,
) -> PartitioningDesign | None:
    """Place one PRR per group (non-overlapping); ``None`` if infeasible.

    Groups are placed largest-first (by merged column demand) so big PRRs
    get first pick of contiguous windows, then re-checked pairwise.  An
    optional :class:`~repro.core.fastpath.PlacementCache` memoizes the
    per-group Fig. 1 searches across repeated calls (the explorer shares
    one cache over every partition it evaluates).
    """
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
    mode: ExploreMode = "auto",
    beam_width: int = DEFAULT_BEAM_WIDTH,
    workers: int | None = None,
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
      :data:`MAX_EXHAUSTIVE_PRMS` PRMs.  With ``workers`` > 1 the
      partition candidates are chunked across a process pool (with
      worker-crash recovery — see :func:`_explore_parallel`).
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

    ``workers`` only applies to the exhaustive path; the other modes are
    sequential (their search order is the point).
    """
    if mode not in _EXPLORE_MODES:
        raise InvalidInput(
            f"unknown explore mode {mode!r}; valid: {', '.join(_EXPLORE_MODES)}"
        )
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
                workers=workers,
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
                workers=workers,
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
    workers: int | None,
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
    if prms and (max_prrs is None or max_prrs >= 1):
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
            workers=workers,
            budget=budget,
        )
    if incumbent is not None and not any(
        _same_grouping(d, incumbent) for d in designs
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
    placement cache warms up, which biases toward completing in budget).
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
    workers: int | None,
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
        if workers is not None and workers > 1:
            return _explore_parallel(
                device,
                prms,
                controller_bytes_per_s=controller_bytes_per_s,
                max_prrs=max_prrs,
                workers=workers,
                budget=budget,
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
    cache = PlacementCache()
    designs: list[PartitioningDesign] = []
    evaluated = 0
    for partition in iter_set_partitions(range(len(prms))):
        if budget is not None and budget.expired:
            break
        if max_prrs is not None and len(partition) > max_prrs:
            continue
        groups = [[prms[i] for i in group] for group in partition]
        evaluated += 1
        design = evaluate_partition(
            device,
            groups,
            controller_bytes_per_s=controller_bytes_per_s,
            placement_cache=cache,
        )
        if budget is not None:
            budget.charge()
        if design is not None:
            designs.append(design)
    designs.sort(key=lambda d: d.objectives)
    if _obs.enabled:
        _record_search_metrics(
            strategy="exhaustive",
            evaluated=evaluated,
            pruned=0,
            feasible=len(designs),
            cache=cache,
        )
    return designs


# -- parallel evaluation ------------------------------------------------------


def _evaluate_partition_chunk(
    device: Device,
    prms: Sequence[PRMRequirements],
    partitions: Sequence[Sequence[Sequence[int]]],
    controller_bytes_per_s: float,
) -> list[PartitioningDesign]:
    """Worker entry point: evaluate a chunk of index partitions."""
    cache = PlacementCache()
    designs: list[PartitioningDesign] = []
    for partition in partitions:
        groups = [[prms[i] for i in group] for group in partition]
        design = evaluate_partition(
            device,
            groups,
            controller_bytes_per_s=controller_bytes_per_s,
            placement_cache=cache,
        )
        if design is not None:
            designs.append(design)
    return designs


#: The function worker processes run per chunk.  Module-level so tests and
#: the soak benchmark can swap in fault-injecting evaluators (the crash
#: path is otherwise unreachable on a healthy machine).
_CHUNK_EVALUATOR = _evaluate_partition_chunk


def _record_recovery_metrics(
    *,
    crashes: int,
    retry_rounds: int,
    circuit_tripped: bool,
    serial_chunks: int,
) -> None:
    """Publish the worker-crash recovery counters (no-op when disabled)."""
    registry = _obs.metrics()
    if registry is None:
        return
    registry.counter("explore.worker_crashes").inc(crashes)
    registry.counter("explore.pool_retry_rounds").inc(retry_rounds)
    registry.counter("explore.pool_circuit_tripped").inc(
        1 if circuit_tripped else 0
    )
    registry.counter("explore.chunks_serial_fallback").inc(serial_chunks)


def _explore_parallel(
    device: Device,
    prms: Sequence[PRMRequirements],
    *,
    controller_bytes_per_s: float,
    max_prrs: int | None,
    workers: int,
    budget: Budget | None = None,
) -> list[PartitioningDesign]:
    """Chunked evaluation on a process pool, with worker-crash recovery.

    Failure handling (ISSUE 5): any chunk whose future raises — a worker
    killed mid-chunk (``BrokenProcessPool``), an unpicklable result, an
    exception escaping the chunk evaluator — is retried on a fresh pool
    with :class:`~repro.faults.reliable.RetryPolicy` exponential backoff.
    After :data:`POOL_BREAKER_THRESHOLD` pool breakages (or once retries
    are exhausted) the circuit breaker stops paying pool-restart costs
    and the remaining chunks run serially in-process, so a deterministic
    crasher cannot take the search down; a chunk that fails even serially
    raises :class:`~repro.errors.BackendBroken`.  Chunk results are
    reassembled in submission order, so the pre-sort design order — and
    therefore the final output — is identical to the sequential path.
    """
    from ..faults.reliable import RetryPolicy

    partitions = [
        [tuple(group) for group in partition]
        for partition in iter_set_partitions(range(len(prms)))
        if max_prrs is None or len(partition) <= max_prrs
    ]
    chunk_count = min(len(partitions), workers * 4) or 1
    chunk_size = -(-len(partitions) // chunk_count)
    chunks = [
        partitions[i : i + chunk_size]
        for i in range(0, len(partitions), chunk_size)
    ]
    chunk_fn = _CHUNK_EVALUATOR
    policy = RetryPolicy(
        max_attempts=3, backoff_base_s=0.05, backoff_factor=2.0, backoff_cap_s=0.5
    )
    results: dict[int, list[PartitioningDesign]] = {}
    pending = list(range(len(chunks)))
    crashes = 0
    pool_breaks = 0
    retry_rounds = 0
    deadline_cut = False
    for round_no in range(1, policy.max_attempts + 1):
        if not pending or pool_breaks >= POOL_BREAKER_THRESHOLD:
            break
        if round_no > 1:
            retry_rounds += 1
            time.sleep(policy.backoff_seconds(round_no - 1))
        failed: list[int] = []
        pool_broke = False
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                index: pool.submit(
                    chunk_fn,
                    device,
                    list(prms),
                    chunks[index],
                    controller_bytes_per_s,
                )
                for index in pending
            }
            # Collect in submission order so the pre-sort design order
            # matches the sequential path exactly.
            for index in pending:
                if budget is not None and budget.expired:
                    deadline_cut = True
                    for future in futures.values():
                        future.cancel()
                    break
                try:
                    results[index] = futures[index].result()
                    if budget is not None:
                        budget.charge(len(chunks[index]))
                except Exception as exc:
                    crashes += 1
                    failed.append(index)
                    if isinstance(exc, BrokenExecutor):
                        pool_broke = True
        if pool_broke:
            pool_breaks += 1
        pending = failed
        if deadline_cut:
            pending = []
            break
    circuit_tripped = pool_breaks >= POOL_BREAKER_THRESHOLD
    serial_chunks = len(pending)
    for index in pending:
        # Retries/circuit breaker exhausted the pool path: finish the
        # chunk in-process, where there is no worker to lose.
        try:
            results[index] = chunk_fn(
                device,
                list(prms),
                chunks[index],
                controller_bytes_per_s,
            )
            if budget is not None:
                budget.charge(len(chunks[index]))
        except ReproError:
            raise
        except Exception as exc:
            raise BackendBroken(
                f"partition chunk {index} failed even in serial fallback "
                f"after {crashes} worker crash(es)",
                cause=repr(exc),
            ) from exc
    designs = [
        design for index in sorted(results) for design in results[index]
    ]
    designs.sort(key=lambda d: d.objectives)
    if _obs.enabled:
        # Worker-local placement caches cannot report back; candidate and
        # feasibility counts still can.
        _record_search_metrics(
            strategy="parallel",
            evaluated=len(partitions),
            pruned=0,
            feasible=len(designs),
            cache=None,
        )
        _record_recovery_metrics(
            crashes=crashes,
            retry_rounds=retry_rounds,
            circuit_tripped=circuit_tripped,
            serial_chunks=serial_chunks,
        )
    return designs


# -- branch-and-bound / beam ---------------------------------------------------


def _partial_lower_bound(
    device: Device,
    prms: Sequence[PRMRequirements],
    groups: Sequence[Sequence[int]],
    next_index: int,
    controller_bytes_per_s: float,
) -> tuple[int, int, float] | None:
    """Admissible objective lower bound for every completion of a partial.

    ``groups`` partitions PRMs ``0..next_index-1``; the rest are
    unassigned.  Area: each existing group costs at least its geometry
    minimum, and an unassigned PRM may join an existing group for free.
    Bitstream: each PRM pays at least the minimum bytes of its current
    group (merged requirements only grow as members join), unassigned
    PRMs at least their solo minimum.  Worst reconfig time follows from
    the largest of those per-group byte minima.  Returns ``None`` when a
    group (and therefore every superset) has no feasible geometry.
    """
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
    cache = PlacementCache()
    designs: list[PartitioningDesign] = []
    archived: list[tuple[int, int, float]] = []
    groups: list[list[int]] = []
    evaluated = 0
    pruned = 0

    def viable(next_index: int) -> bool:
        nonlocal pruned
        bound = _partial_lower_bound(
            device, prms, groups, next_index, controller_bytes_per_s
        )
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
            design = evaluate_partition(
                device,
                [[prms[i] for i in group] for group in groups],
                controller_bytes_per_s=controller_bytes_per_s,
                placement_cache=cache,
            )
            if budget is not None:
                budget.charge()
            if design is not None:
                designs.append(design)
                archived.append(design.objectives)
            return
        # Join-existing-group branches first: the all-shared design is the
        # first leaf reached and usually seeds a tight area bound.
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
    try:
        if viable(0):
            descend(0)
    except _BudgetExhausted:
        pass
    designs.sort(key=lambda d: d.objectives)
    if _obs.enabled:
        _record_search_metrics(
            strategy="pruned",
            evaluated=evaluated,
            pruned=pruned,
            feasible=len(designs),
            cache=cache,
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
    PRMs, ranked by the same admissible lower bound the pruned path uses;
    survivors of the final level are evaluated exactly.  Completes in
    O(n x beam_width x n) partial expansions regardless of PRM count.

    Budget expiry stops the level expansion; completed designs seen so
    far (only the final level produces any) are returned, and the
    anytime wrapper's incumbent guarantees a non-empty overall result.
    """
    if beam_width < 1:
        raise InvalidInput("beam_width must be >= 1")
    n = len(prms)
    if n == 0:
        return []
    cache = PlacementCache()
    evaluated = 0
    pruned = 0
    cut = False

    def partial_score(
        candidate: tuple[tuple[int, ...], ...], next_index: int
    ) -> tuple[tuple[int, int, float], PartitioningDesign] | None:
        """Score a placeable partial: actual partial objectives plus the
        admissible remaining-PRM bitstream contribution.  ``None`` prunes
        unplaceable partials — unlike the exact pruned path, beam search
        may discard completions a different grouping would have saved,
        which is the accepted trade-off of the fallback."""
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
        scored: list[tuple[tuple[int, int, float], tuple[tuple[int, ...], ...]]] = []
        seen: set[tuple[tuple[int, ...], ...]] = set()
        for partial in beam:
            expansions = [
                partial[:gi] + (partial[gi] + (index,),) + partial[gi + 1 :]
                for gi in range(len(partial))
            ]
            if max_prrs is None or len(partial) < max_prrs:
                expansions.append(partial + ((index,),))
            for candidate in expansions:
                if budget is not None and budget.expired:
                    cut = True
                    break
                canonical = tuple(sorted(candidate))
                if canonical in seen:
                    continue
                seen.add(canonical)
                evaluated += 1
                result = partial_score(candidate, index + 1)
                if budget is not None:
                    budget.charge()
                if result is None:
                    pruned += 1
                    continue
                score, design = result
                scored.append((score, candidate))
                if index + 1 == n:
                    final[candidate] = design
            if cut:
                break
        scored.sort(key=lambda item: item[0])
        pruned += max(0, len(scored) - beam_width)
        beam = [candidate for _, candidate in scored[:beam_width]]
        if cut or not beam:
            break
    designs = [final[candidate] for candidate in beam if candidate in final]
    if cut and not designs:
        # The budget expired before the last level: salvage any exactly
        # evaluated complete designs (there are none unless n was reached,
        # so this usually stays empty and the incumbent covers the result).
        designs = list(final.values())
    designs.sort(key=lambda d: d.objectives)
    if _obs.enabled:
        _record_search_metrics(
            strategy="beam",
            evaluated=evaluated,
            pruned=pruned,
            feasible=len(designs),
            cache=cache,
        )
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

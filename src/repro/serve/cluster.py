"""Self-healing sharded serving tier over the cost models.

:class:`ClusterService` runs N one-loop shard processes
(:mod:`repro.serve.shard`) behind a front-end that owns every serving
guarantee.  It accepts :class:`~repro.serve.service.EvaluateRequest`
submissions and gives the following guarantees — the external behavior
is always a result or a typed :mod:`repro.errors` outcome, never a hang
or a traceback:

* **content-addressed caching** — every request is keyed by
  :func:`~repro.serve.cache.cache_key` (device + family constants + PRM
  scalars + rate) and served from the two-tier
  :class:`~repro.serve.cache.TieredResultCache` when possible; misses
  populate both tiers on completion.  Corrupted disk entries are
  detected by CRC, quarantined, and transparently recomputed.
* **in-flight coalescing** — duplicate requests whose key is already
  being computed attach to the same pending computation instead of
  re-dispatching.
* **device-hash routing with health awareness** — requests route to
  ``sha256(device) % shards``, skipping shards that are ``down`` or at
  their per-shard in-flight bound; when every live shard is saturated
  the submit sheds with :class:`~repro.errors.Overloaded` carrying a
  *jittered* ``retry_after_s``.
* **supervision** — a control thread probes each shard, publishes typed
  health (:class:`~repro.serve.shard.ShardHealth`), and on a dead or
  unresponsive shard trips the circuit breaker: the process is
  restarted (bounded by ``max_restarts``) and re-attaches warm to the
  shared cache (everything computed before the crash is still served
  from the front-end tiers).
* **hedged re-dispatch** — a request stranded on a slow shard past
  ``hedge_after_s`` is re-sent to a different healthy shard; the first
  answer wins and duplicates are deduplicated on completion.
* **graceful degradation** — with every shard down and the breaker
  exhausted, requests are evaluated in-process (slower, still correct,
  still typed), at most ``shard_queue_depth`` at a time; beyond that
  the submit sheds with the same jittered ``Overloaded``.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from ..core.api import CostModelResult
from ..devices.fabric import Device
from ..errors import DeadlineExceeded, InvalidInput, Overloaded, ReproError
from ..obs import trace as _obs
from .cache import TieredResultCache, cache_key, decode_result
from .service import EvaluateRequest, Ticket, _count, jittered_retry_after
from .shard import ShardHandle, ShardHealth, evaluate_outcome, rebuild_error

__all__ = ["ClusterConfig", "ClusterService"]


def _gauge(name: str, value: float) -> None:
    registry = _obs.metrics()
    if registry is not None:
        registry.gauge(name).set(value)


@dataclass(frozen=True, slots=True)
class ClusterConfig:
    """Topology, supervision and caching knobs for :class:`ClusterService`."""

    shards: int = 2
    shard_queue_depth: int = 16  #: per-shard (and inline) in-flight bound
    probe_interval_s: float = 0.25  #: health-probe cadence
    probe_timeout_s: float = 1.0  #: unanswered probe => one miss
    probe_misses_down: int = 3  #: consecutive misses before the breaker trips
    hedge_after_s: float = 2.0  #: re-dispatch a stranded request after this
    max_restarts: int = 3  #: per-shard restart budget before staying down
    default_deadline_s: float | None = None
    shed_retry_after_s: float = 0.05
    shed_retry_jitter: float = 0.5  #: Overloaded.retry_after_s *= 1+U(0,j)
    drain_timeout_s: float = 30.0
    cache_memory_entries: int = 1024
    cache_dir: str | None = None  #: None disables the persistent tier
    chaos: tuple = ()  #: per-shard ShardChaos plans (fault injection)

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise InvalidInput(f"shards must be >= 1, got {self.shards}")
        if self.shard_queue_depth < 1:
            raise InvalidInput(
                f"shard_queue_depth must be >= 1, got {self.shard_queue_depth}"
            )
        for name in ("probe_interval_s", "probe_timeout_s", "hedge_after_s"):
            if getattr(self, name) <= 0:
                raise InvalidInput(f"{name} must be positive")
        if self.probe_misses_down < 1:
            raise InvalidInput("probe_misses_down must be >= 1")
        if self.max_restarts < 0:
            raise InvalidInput("max_restarts must be >= 0")
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise InvalidInput("default_deadline_s must be positive when set")
        if self.shed_retry_after_s < 0:
            raise InvalidInput("shed_retry_after_s must be non-negative")
        if not 0 <= self.shed_retry_jitter <= 10:
            raise InvalidInput("shed_retry_jitter must be within [0, 10]")
        if self.drain_timeout_s <= 0:
            raise InvalidInput("drain_timeout_s must be positive")
        if self.cache_memory_entries < 1:
            raise InvalidInput("cache_memory_entries must be >= 1")
        if self.chaos and len(self.chaos) != self.shards:
            raise InvalidInput(
                f"chaos must list one plan per shard "
                f"({self.shards}), got {len(self.chaos)}"
            )


@dataclass
class _Pending:
    """One in-flight computation (possibly serving many coalesced tickets)."""

    req_id: int
    key: str
    request: EvaluateRequest
    device: Device
    tickets: list[Ticket]
    created_at: float
    deadline_s: float | None
    dispatches: dict[int, int] = field(default_factory=dict)  #: shard -> gen
    dispatched_at: float = 0.0
    primary_shard: int | None = None
    hedged: bool = False
    resolved: bool = False


class ClusterService:
    """Process-sharded, cache-fronted, self-healing serving tier.

    Usage::

        with ClusterService(ClusterConfig(shards=2)) as cluster:
            ticket = cluster.submit(EvaluateRequest(prm, "xc5vlx110t"))
            result = ticket.result(timeout=30.0)
    """

    _TICK_S = 0.01

    def __init__(self, config: ClusterConfig | None = None) -> None:
        self.config = config if config is not None else ClusterConfig()
        ctx = multiprocessing.get_context()
        self.shards: list[ShardHandle] = [
            ShardHandle(
                shard_id=index,
                ctx=ctx,
                queue_depth=self.config.shard_queue_depth,
                chaos=(self.config.chaos[index] if self.config.chaos else None),
            )
            for index in range(self.config.shards)
        ]
        self.cache = TieredResultCache(
            max_entries=self.config.cache_memory_entries,
            directory=self.config.cache_dir,
        )
        self._lock = threading.RLock()
        self._pending: dict[int, _Pending] = {}
        self._by_key: dict[str, int] = {}
        self._req_ids = itertools.count(1)
        self._probe_ids = itertools.count(1)
        self._accepting = False
        self._stop_event = threading.Event()
        self._control: threading.Thread | None = None
        self._inline_threads: list[threading.Thread] = []
        self._inline_inflight = 0
        self._rng = random.Random()
        self._stats = {
            "accepted": 0,
            "completed": 0,
            "typed_errors": 0,
            "coalesced": 0,
            "shed": 0,
            "deadline_exceeded": 0,
            "hedges": 0,
            "hedges_won": 0,
            "hedges_lost": 0,
            "hedge_duplicates": 0,
            "restarts": 0,
            "redispatches": 0,
            "inline_fallbacks": 0,
        }

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ClusterService":
        with self._lock:
            if self._control is not None:
                raise InvalidInput("cluster already started")
            for shard in self.shards:
                shard.spawn()
            self._accepting = True
            self._control = threading.Thread(
                target=self._control_loop, name="repro-cluster-control",
                daemon=True,
            )
            self._control.start()
        return self

    def stop(self, *, drain: bool = True) -> None:
        """Stop accepting; finish in-flight work (``drain=True``) or shed it.

        New submissions during the drain are rejected with
        :class:`~repro.errors.Overloaded` — the drain never races the
        queue.
        """
        with self._lock:
            self._accepting = False
            control, self._control = self._control, None
        if control is None:
            return
        if drain:
            deadline = time.monotonic() + self.config.drain_timeout_s
            while time.monotonic() < deadline:
                with self._lock:
                    if not self._pending:
                        break
                time.sleep(self._TICK_S)
        with self._lock:
            leftovers = [p for p in self._pending.values() if not p.resolved]
            for pending in leftovers:
                self._resolve(
                    pending,
                    error=Overloaded(
                        "cluster stopped before this request was served",
                        retry_after_s=None,
                        queue_depth=0,
                    ),
                )
            self._pending.clear()
            self._by_key.clear()
        self._stop_event.set()
        control.join(timeout=self.config.drain_timeout_s)
        for thread in self._inline_threads:
            thread.join(timeout=self.config.drain_timeout_s)
        for shard in self.shards:
            shard.stop(join_timeout_s=self.config.drain_timeout_s)

    def __enter__(self) -> "ClusterService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    # -- submission ----------------------------------------------------------

    @staticmethod
    def _not_accepting() -> Overloaded:
        return Overloaded(
            "cluster is not accepting requests (stopped or never started)",
            retry_after_s=None,
            queue_depth=0,
        )

    def submit(self, request: EvaluateRequest) -> Ticket:
        """Serve one evaluate request: cache, coalesce, or dispatch.

        Raises typed :class:`~repro.errors.InvalidInput` for malformed
        requests and :class:`~repro.errors.Overloaded` (with jittered
        ``retry_after_s``) when every live shard is saturated.
        """
        if not isinstance(request, EvaluateRequest):
            raise InvalidInput(
                f"cluster serves EvaluateRequest; got "
                f"{type(request).__name__} (run explores through "
                f"CostModelService)"
            )
        if not self._accepting:
            raise self._not_accepting()
        from ..core.api import _resolve_device

        device = _resolve_device(request.device)
        deadline_s = (
            request.deadline_s
            if request.deadline_s is not None
            else self.config.default_deadline_s
        )
        if deadline_s is not None and deadline_s <= 0:
            raise InvalidInput(f"deadline_s must be positive, got {deadline_s}")
        key = cache_key(request.prm, device, request.rate)
        with _obs.trace_span(
            "cluster.dispatch", device=device.name, prm=request.prm.name
        ) as span:
            ticket = Ticket()
            cached = self.cache.get(key, device)
            if cached is not None:
                span.set("outcome", "cache_hit")
                with self._lock:
                    self._stats["accepted"] += 1
                    self._stats["completed"] += 1
                _count("serve.cluster.accepted")
                _count("serve.cluster.completed")
                ticket._resolve(cached)
                return ticket
            with self._lock:
                # stop() flips _accepting under this lock: re-check here so
                # nothing is admitted after its leftover sweep.
                if not self._accepting:
                    raise self._not_accepting()
                req_id = self._by_key.get(key)
                if req_id is not None:
                    pending = self._pending[req_id]
                    pending.tickets.append(ticket)
                    self._stats["accepted"] += 1
                    self._stats["coalesced"] += 1
                    span.set("outcome", "coalesced")
                    _count("serve.cluster.accepted")
                    _count("serve.cluster.coalesced")
                    return ticket
                pending = _Pending(
                    req_id=next(self._req_ids),
                    key=key,
                    request=request,
                    device=device,
                    tickets=[ticket],
                    created_at=time.monotonic(),
                    deadline_s=deadline_s,
                )
                shard = self._choose_shard(device.name)
                if shard is None:
                    if (
                        self._all_shards_retired()
                        and self._inline_inflight < self.config.shard_queue_depth
                    ):
                        span.set("outcome", "inline_fallback")
                        self._admit(pending)
                        self._start_inline(pending)
                        return ticket
                    self._stats["shed"] += 1
                    _count("serve.cluster.shed")
                    span.set("outcome", "shed")
                    retry_after = jittered_retry_after(
                        self.config.shed_retry_after_s,
                        self.config.shed_retry_jitter,
                        self._rng,
                    )
                    raise Overloaded(
                        f"every live shard (or, with all retired, the "
                        f"inline fallback) is at its in-flight bound "
                        f"({self.config.shard_queue_depth}); retry after "
                        f"{retry_after:.3f}s",
                        retry_after_s=retry_after,
                        queue_depth=self.config.shard_queue_depth,
                    )
                self._admit(pending)
                if not self._dispatch(pending, shard):
                    # The shard refused between choice and send (raced a
                    # crash); fall back rather than lose the ticket.
                    span.set("outcome", "inline_fallback")
                    self._start_inline(pending)
                    return ticket
                span.set("outcome", "dispatched")
                span.set("shard", shard.shard_id)
            return ticket

    # -- submission internals (hold self._lock) ------------------------------

    def _admit(self, pending: _Pending) -> None:
        """Register an accepted request.  Caller holds ``self._lock``."""
        self._pending[pending.req_id] = pending
        self._by_key[pending.key] = pending.req_id
        self._stats["accepted"] += 1
        _count("serve.cluster.accepted")

    def _route_index(self, device_name: str) -> int:
        digest = hashlib.sha256(device_name.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") % len(self.shards)

    def _choose_shard(
        self, device_name: str, exclude: set[int] | None = None
    ) -> ShardHandle | None:
        """Routed shard if it accepts work, else the next willing one."""
        start = self._route_index(device_name)
        order = [
            self.shards[(start + offset) % len(self.shards)]
            for offset in range(len(self.shards))
        ]
        excluded = exclude or set()
        for preferred_health in (ShardHealth.HEALTHY, ShardHealth.DEGRADED):
            for shard in order:
                if shard.shard_id in excluded:
                    continue
                if shard.health is preferred_health and shard.accepts_work():
                    return shard
        return None

    def _all_shards_retired(self) -> bool:
        """True when no shard can ever accept work again (breakers open)."""
        return all(
            shard.health is ShardHealth.DOWN and not shard.alive()
            for shard in self.shards
        )

    def _dispatch(self, pending: _Pending, shard: ShardHandle) -> bool:
        if not shard.send(("req", pending.req_id, pending.request)):
            return False
        pending.dispatches[shard.shard_id] = shard.generation
        pending.dispatched_at = time.monotonic()
        if pending.primary_shard is None:
            pending.primary_shard = shard.shard_id
        shard.inflight += 1
        _gauge(
            f"serve.cluster.shard{shard.shard_id}.queue_depth", shard.inflight
        )
        return True

    def _start_inline(self, pending: _Pending) -> None:
        """Fall back to an in-process thread.  Caller holds ``self._lock``."""
        self._stats["inline_fallbacks"] += 1
        _count("serve.cluster.inline_fallbacks")
        self._inline_inflight += 1
        thread = threading.Thread(
            target=self._run_inline, args=(pending,), daemon=True
        )
        thread.start()
        self._inline_threads = [
            t for t in self._inline_threads if t.is_alive()
        ]
        self._inline_threads.append(thread)

    def _run_inline(self, pending: _Pending) -> None:
        """Last-resort in-process evaluation (every shard is gone)."""
        outcome = evaluate_outcome(pending.request)
        with self._lock:
            self._inline_inflight -= 1
            self._settle(pending, outcome)

    def _settle(self, pending: _Pending, outcome: tuple) -> None:
        """Resolve *pending* from an :func:`evaluate_outcome` tuple.

        An entry that does not decode is never served; it resolves as a
        typed :class:`~repro.errors.BackendBroken`.  Caller holds
        ``self._lock``.
        """
        if outcome[0] == "err":
            self._resolve(pending, error=rebuild_error(*outcome[1:]))
            return
        try:
            result = decode_result(outcome[1], pending.device)
        except Exception as error:  # analysis: allow(typed-errors): an entry that does not decode is never served
            self._resolve(
                pending, error=rebuild_error("__unhandled__", repr(error), {})
            )
            return
        self._resolve(pending, result=result, entry=outcome[1])

    # -- resolution (hold self._lock) ----------------------------------------

    def _resolve(
        self,
        pending: _Pending,
        *,
        result: CostModelResult | None = None,
        error: ReproError | None = None,
        entry: dict[str, Any] | None = None,
    ) -> None:
        """Settle every ticket of *pending*.  Caller holds ``self._lock``."""
        if pending.resolved:
            return
        pending.resolved = True
        self._by_key.pop(pending.key, None)
        if not pending.dispatches:
            self._pending.pop(pending.req_id, None)
        if result is not None:
            self.cache.put(pending.key, result, entry)
            self._stats["completed"] += len(pending.tickets)
            _count("serve.cluster.completed", len(pending.tickets))
            for ticket in pending.tickets:
                ticket._resolve(result)
        else:
            if isinstance(error, DeadlineExceeded):
                self._stats["deadline_exceeded"] += len(pending.tickets)
            self._stats["typed_errors"] += len(pending.tickets)
            _count("serve.cluster.typed_errors", len(pending.tickets))
            _count(f"serve.cluster.errors.{error.code}")
            for ticket in pending.tickets:
                ticket._reject(error)

    # -- control loop --------------------------------------------------------

    def _control_loop(self) -> None:
        last_probe = 0.0
        while not self._stop_event.is_set():
            worked = False
            for shard in self.shards:
                for message in shard.drain_responses():
                    worked = True
                    self._handle_response(shard, message)
            now = time.monotonic()
            if now - last_probe >= self.config.probe_interval_s:
                last_probe = now
                self._probe_and_supervise(now)
            self._sweep(now)
            if not worked:
                self._stop_event.wait(self._TICK_S)

    def _handle_response(self, shard: ShardHandle, message: tuple) -> None:
        kind = message[0]
        if kind == "probe":
            _, _, probe_id, sent_s = message
            with self._lock:
                if probe_id == shard.last_probe_id:
                    shard.last_probe_id = None
                    shard.missed_probes = 0
                    shard.probe_latency_s = time.monotonic() - sent_s
                    if shard.health is ShardHealth.DEGRADED:
                        shard.health = ShardHealth.HEALTHY
            return
        with self._lock:
            req_id = message[2]
            pending = self._pending.get(req_id)
            if pending is None:
                return
            if pending.dispatches.pop(shard.shard_id, None) == shard.generation:
                shard.inflight = max(0, shard.inflight - 1)
                _gauge(
                    f"serve.cluster.shard{shard.shard_id}.queue_depth",
                    shard.inflight,
                )
            if pending.resolved:
                if not pending.dispatches:
                    self._pending.pop(req_id, None)
                self._stats["hedge_duplicates"] += 1
                _count("serve.cluster.hedge_duplicates")
                return
            if pending.hedged:
                if shard.shard_id == pending.primary_shard:
                    self._stats["hedges_lost"] += 1
                    _count("serve.cluster.hedges_lost")
                else:
                    self._stats["hedges_won"] += 1
                    _count("serve.cluster.hedges_won")
            self._settle(pending, (kind, *message[3:]))

    def _probe_and_supervise(self, now: float) -> None:
        for shard in self.shards:
            with self._lock:
                if shard.health is ShardHealth.DOWN and not shard.alive():
                    continue
                if not shard.alive():
                    self._trip_breaker(shard)
                    continue
                if (
                    shard.last_probe_id is not None
                    and now - shard.last_probe_sent_s
                    > self.config.probe_timeout_s
                ):
                    shard.missed_probes += 1
                    shard.last_probe_id = None
                    if shard.missed_probes >= self.config.probe_misses_down:
                        self._trip_breaker(shard)
                        continue
                    shard.health = ShardHealth.DEGRADED
                    _count("serve.cluster.probe_misses")
                if shard.last_probe_id is None:
                    probe_id = next(self._probe_ids)
                    if shard.send(("probe", probe_id, now)):
                        shard.last_probe_id = probe_id
                        shard.last_probe_sent_s = now

    def _trip_breaker(self, shard: ShardHandle) -> None:
        """Shard is gone: mark down, restart if budget remains, re-route.

        Caller holds ``self._lock``.
        """
        was_alive = shard.alive()
        shard.health = ShardHealth.DOWN
        if was_alive:
            # Unresponsive but running (stalled probes): replace the
            # process outright — it no longer honors the protocol.
            shard.process.terminate()
        stranded = [
            pending
            for pending in self._pending.values()
            if shard.shard_id in pending.dispatches
        ]
        for pending in stranded:
            pending.dispatches.pop(shard.shard_id, None)
        if shard.restarts < self.config.max_restarts:
            shard.restarts += 1
            shard.spawn()
            self._stats["restarts"] += 1
            _count("serve.cluster.restarts")
            _gauge(f"serve.cluster.shard{shard.shard_id}.queue_depth", 0)
        for pending in stranded:
            if pending.resolved:
                if not pending.dispatches:
                    self._pending.pop(pending.req_id, None)
            elif not pending.dispatches:
                self._redispatch(pending, exclude={shard.shard_id})

    def _redispatch(self, pending: _Pending, exclude: set[int]) -> None:
        """Re-route a stranded request.  Caller holds ``self._lock``."""
        target = self._choose_shard(pending.device.name, exclude=exclude)
        if target is None:
            target = self._choose_shard(pending.device.name)
        if target is not None and self._dispatch(pending, target):
            self._stats["redispatches"] += 1
            _count("serve.cluster.redispatches")
            return
        self._start_inline(pending)

    def _sweep(self, now: float) -> None:
        with self._lock:
            for pending in list(self._pending.values()):
                if pending.resolved:
                    continue
                if (
                    pending.deadline_s is not None
                    and now - pending.created_at > pending.deadline_s
                ):
                    self._resolve(
                        pending,
                        error=DeadlineExceeded(
                            "deadline elapsed before any shard answered",
                            deadline_s=pending.deadline_s,
                            elapsed_s=now - pending.created_at,
                        ),
                    )
                    continue
                if (
                    not pending.hedged
                    and len(pending.dispatches) == 1
                    and now - pending.dispatched_at > self.config.hedge_after_s
                ):
                    current = next(iter(pending.dispatches))
                    target = self._choose_shard(
                        pending.device.name, exclude={current}
                    )
                    if target is not None and self._dispatch(pending, target):
                        pending.hedged = True
                        self._stats["hedges"] += 1
                        _count("serve.cluster.hedges")

    # -- introspection -------------------------------------------------------

    def health(self) -> list[dict[str, Any]]:
        """Typed health snapshot, one row per shard."""
        with self._lock:
            return [shard.describe() for shard in self.shards]

    def shard_pids(self) -> list[int | None]:
        return [shard.pid for shard in self.shards]

    def stats(self) -> dict[str, Any]:
        """Counters for soak accounting (cache stats folded in)."""
        with self._lock:
            stats: dict[str, Any] = dict(self._stats)
        stats.update(self.cache.combined_stats())
        stats["cache_hits"] = self.cache.hits
        return stats

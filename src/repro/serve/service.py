"""Bounded-queue cost-model service with backpressure and deadlines.

:class:`CostModelService` turns the library's synchronous entry points
(:func:`repro.core.evaluate_prm`, :func:`repro.core.explore`) into a
small resilient serving layer, the way a reconfiguration manager would
embed them:

* a **bounded work queue** — when it is full, :meth:`submit` sheds the
  request immediately with a typed :class:`~repro.errors.Overloaded`
  carrying ``retry_after_s`` (load shedding beats unbounded latency);
* **per-request deadlines** — a request whose budget elapsed while
  queued fails fast with :class:`~repro.errors.DeadlineExceeded`
  instead of wasting a worker; an explore request that starts with
  budget remaining runs as an *anytime* search bounded by what is left,
  so it returns a degraded-but-valid front rather than timing out;
* **graceful drain** — :meth:`stop` finishes accepted work by default;
  ``drain=False`` cancels queued requests with ``Overloaded``;
* **batch scoring** — a worker that dequeues an :class:`EvaluateRequest`
  coalesces up to ``max_batch`` same-device evaluate requests already
  waiting in the queue and scores them in one
  :func:`repro.core.batch_evaluate` array call instead of one model run
  each.  Coalescing is transparent: every request keeps its own ticket,
  deadline and controller rate, results are bit-identical to the scalar
  path, and any batch-path failure falls back to per-request scalar
  evaluation so the error surface (typed errors included) is unchanged.
  Set ``max_batch=1`` to disable.

Worker threads only ever *call into* the library, which runs in-process;
process-crash supervision lives in :class:`repro.serve.ClusterService`,
whose shards are plain one-loop processes that embed no service.
"""

from __future__ import annotations

import queue
import random
import threading
import time
from dataclasses import dataclass

from ..core import batch as _batch_engine
from ..core.api import CostModelResult, batch_evaluate, evaluate_prm
from ..core.explorer import ExploreResult, explore
from ..core.reconfig_model import ICAP_VIRTEX5_BYTES_PER_S
from ..core.params import PRMRequirements
from ..devices.fabric import Device
from ..errors import DeadlineExceeded, InvalidInput, Overloaded, ReproError
from ..obs import trace as _obs

__all__ = [
    "ServiceConfig",
    "EvaluateRequest",
    "ExploreRequest",
    "Ticket",
    "CostModelService",
    "jittered_retry_after",
]


def jittered_retry_after(
    base_s: float, jitter_fraction: float, rng: random.Random | None = None
) -> float:
    """``base * (1 + U(0, jitter))`` — de-synchronizes client retries.

    A fixed ``retry_after_s`` teaches every shed client to come back at
    the same instant, re-creating the overload it advertises; the
    uniform jitter spreads the retry wave out.
    """
    if jitter_fraction <= 0:
        return base_s
    draw = (rng or random).random()
    return base_s * (1.0 + draw * jitter_fraction)


def _count(name: str, n: int = 1) -> None:
    """Increment a service counter; no-op when observability is off."""
    registry = _obs.metrics()
    if registry is not None:
        registry.counter(name).inc(n)


@dataclass(frozen=True, slots=True)
class ServiceConfig:
    """Sizing and shedding knobs for :class:`CostModelService`."""

    workers: int = 2
    queue_depth: int = 16
    default_deadline_s: float | None = None  #: applied when a request has none
    shed_retry_after_s: float = 0.05  #: retry hint attached to ``Overloaded``
    shed_retry_jitter: float = 0.25  #: retry hint *= 1 + U(0, jitter)
    drain_timeout_s: float = 30.0  #: how long :meth:`stop` waits for drain
    max_batch: int = 8  #: same-device evaluates coalesced per array call

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise InvalidInput(f"workers must be >= 1, got {self.workers}")
        if self.queue_depth < 1:
            raise InvalidInput(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if self.max_batch < 1:
            raise InvalidInput(
                f"max_batch must be >= 1, got {self.max_batch}"
            )
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise InvalidInput("default_deadline_s must be positive when set")
        if self.shed_retry_after_s < 0:
            raise InvalidInput("shed_retry_after_s must be non-negative")
        if not 0 <= self.shed_retry_jitter <= 10:
            raise InvalidInput(
                f"shed_retry_jitter must be within [0, 10], got "
                f"{self.shed_retry_jitter}"
            )
        if self.drain_timeout_s <= 0:
            raise InvalidInput("drain_timeout_s must be positive")


@dataclass(frozen=True, slots=True)
class EvaluateRequest:
    """One PRM through both cost models (Tables V–VII workflow)."""

    prm: PRMRequirements
    device: Device | str
    controller_bytes_per_s: float | None = None
    deadline_s: float | None = None

    @property
    def rate(self) -> float:
        """Controller throughput in bytes/s; the ICAP default when unset."""
        if self.controller_bytes_per_s is None:
            return ICAP_VIRTEX5_BYTES_PER_S
        return self.controller_bytes_per_s

    def run(self, remaining_s: float | None) -> CostModelResult:
        return evaluate_prm(
            self.prm, self.device, controller_bytes_per_s=self.rate
        )


@dataclass(frozen=True, slots=True)
class ExploreRequest:
    """A design-space exploration; runs *anytime* under its deadline."""

    device: Device
    prms: tuple[PRMRequirements, ...]
    mode: str = "auto"
    max_prrs: int | None = None
    beam_width: int | None = None
    max_evaluations: int | None = None
    deadline_s: float | None = None

    def run(self, remaining_s: float | None) -> ExploreResult:
        kwargs = {
            "mode": self.mode,
            "max_prrs": self.max_prrs,
            "max_evaluations": self.max_evaluations,
        }
        if self.beam_width is not None:
            kwargs["beam_width"] = self.beam_width
        if remaining_s is not None:
            kwargs["deadline_s"] = remaining_s
        return explore(self.device, list(self.prms), **kwargs)


class Ticket:
    """Handle for one submitted request (a minimal thread-safe future)."""

    __slots__ = ("_done", "_value", "_error")

    def __init__(self) -> None:
        self._done = threading.Event()
        self._value = None
        self._error: BaseException | None = None

    def _resolve(self, value) -> None:
        self._value = value
        self._done.set()

    def _reject(self, error: BaseException) -> None:
        self._error = error
        self._done.set()

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: float | None = None):
        """Block until resolved; re-raise the request's typed error."""
        if not self._done.wait(timeout):
            raise DeadlineExceeded(
                "request not finished within the wait timeout",
                timeout_s=timeout,
            )
        if self._error is not None:
            raise self._error
        return self._value


@dataclass(slots=True)
class _Job:
    request: EvaluateRequest | ExploreRequest
    ticket: Ticket
    enqueued_at: float
    deadline_s: float | None

    def remaining_s(self) -> float | None:
        if self.deadline_s is None:
            return None
        return self.deadline_s - (time.monotonic() - self.enqueued_at)


_STOP = object()


class CostModelService:
    """Thread-pool service over the cost models; see module docstring.

    Usage::

        with CostModelService(ServiceConfig(workers=2)) as service:
            ticket = service.submit(EvaluateRequest(prm, "xc5vlx110t"))
            result = ticket.result(timeout=5.0)
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        self._queue: queue.Queue = queue.Queue(maxsize=self.config.queue_depth)
        self._threads: list[threading.Thread] = []
        self._accepting = False
        self._lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "CostModelService":
        with self._lock:
            if self._threads:
                raise InvalidInput("service already started")
            self._accepting = True
            for index in range(self.config.workers):
                thread = threading.Thread(
                    target=self._worker_loop,
                    name=f"repro-serve-{index}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)
        return self

    def stop(self, *, drain: bool = True) -> None:
        """Stop accepting work; finish (``drain=True``) or shed the queue."""
        with self._lock:
            self._accepting = False
            threads, self._threads = self._threads, []
        if not threads:
            return
        if not drain:
            self._shed_pending()
        for _ in threads:
            self._queue.put(_STOP)
        deadline = time.monotonic() + self.config.drain_timeout_s
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))

    def __enter__(self) -> "CostModelService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    # -- submission ----------------------------------------------------------

    def submit(self, request: EvaluateRequest | ExploreRequest) -> Ticket:
        """Enqueue a request; sheds with ``Overloaded`` when full.

        The accepting check and the enqueue happen under the service
        lock — the same lock :meth:`stop` takes to flip ``_accepting`` —
        so a submission can never race a drain into the queue behind the
        stop sentinels (where no worker would ever serve it).
        """
        if not isinstance(request, (EvaluateRequest, ExploreRequest)):
            raise InvalidInput(
                f"expected EvaluateRequest or ExploreRequest, "
                f"got {type(request).__name__}"
            )
        deadline_s = (
            request.deadline_s
            if request.deadline_s is not None
            else self.config.default_deadline_s
        )
        if deadline_s is not None and deadline_s <= 0:
            raise InvalidInput(
                f"deadline_s must be positive, got {deadline_s}"
            )
        ticket = Ticket()
        job = _Job(
            request=request,
            ticket=ticket,
            enqueued_at=time.monotonic(),
            deadline_s=deadline_s,
        )
        with self._lock:
            if not self._accepting:
                raise Overloaded(
                    "service is not accepting requests "
                    "(stopped, draining, or never started)",
                    retry_after_s=None,
                    queue_depth=self._queue.qsize(),
                )
            try:
                self._queue.put_nowait(job)
            except queue.Full:
                _count("serve.shed")
                retry_after = jittered_retry_after(
                    self.config.shed_retry_after_s,
                    self.config.shed_retry_jitter,
                )
                raise Overloaded(
                    f"work queue full ({self.config.queue_depth} deep); "
                    f"retry after {retry_after:.3f}s",
                    retry_after_s=retry_after,
                    queue_depth=self.config.queue_depth,
                ) from None
        _count("serve.accepted")
        return ticket

    # -- internals -----------------------------------------------------------

    def _shed_pending(self) -> None:
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                return
            if job is _STOP:
                continue
            _count("serve.shed")
            job.ticket._reject(
                Overloaded(
                    "service stopped before this request was served",
                    retry_after_s=None,
                    queue_depth=0,
                )
            )

    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is _STOP:
                return
            batch, leftovers, stop_after = self._coalesce(job)
            if len(batch) == 1:
                self._run_job(batch[0])
            else:
                self._run_batch(batch)
            # Requests drained while probing for batch mates but not
            # batchable themselves (explores, other devices) run here, in
            # the order they were dequeued.
            for other in leftovers:
                self._run_job(other)
            if stop_after:
                # A _STOP drained during coalescing was addressed to some
                # worker; this one consumes it by exiting once the work it
                # already dequeued is finished.
                return

    def _coalesce(self, job: _Job) -> tuple[list[_Job], list[_Job], bool]:
        """Drain queued same-device evaluates to score with *job*.

        Returns ``(batch, leftovers, stop_after)``: the coalesced
        evaluate jobs (always containing *job*), any drained jobs that
        could not join the batch, and whether a ``_STOP`` sentinel was
        consumed while draining.
        """
        if self.config.max_batch < 2 or not isinstance(job.request, EvaluateRequest):
            return [job], [], False
        batch = [job]
        leftovers: list[_Job] = []
        stop_after = False
        while len(batch) < self.config.max_batch:
            try:
                other = self._queue.get_nowait()
            except queue.Empty:
                break
            if other is _STOP:
                stop_after = True
                break
            if (
                isinstance(other.request, EvaluateRequest)
                and other.request.device == job.request.device
            ):
                batch.append(other)
            else:
                leftovers.append(other)
        return batch, leftovers, stop_after

    def _run_batch(self, jobs: list[_Job]) -> None:
        """Score coalesced same-device evaluates in one array call.

        Per-job deadlines are honored exactly as in :meth:`_run_job`;
        members the batch engine cannot serve bit-identically — ones it
        marks infeasible (so the scalar path owns the typed error) or any
        whole-batch engine failure — fall back to scalar evaluation, so
        callers cannot observe whether their request was batched.
        """
        live: list[_Job] = []
        for job in jobs:
            remaining = job.remaining_s()
            if remaining is not None and remaining <= 0:
                _count("serve.deadline_exceeded")
                job.ticket._reject(
                    DeadlineExceeded(
                        "deadline elapsed while queued",
                        deadline_s=job.deadline_s,
                        elapsed_s=time.monotonic() - job.enqueued_at,
                    )
                )
            else:
                live.append(job)
        if not live:
            return
        if len(live) == 1:
            self._run_job(live[0])
            return
        try:
            scored = batch_evaluate(
                [job.request.prm for job in live],
                live[0].request.device,
                controller_bytes_per_s=[job.request.rate for job in live],
            )
        except Exception:  # analysis: allow(typed-errors): batch is an optimization; every ticket re-runs on the scalar path
            _count("serve.batch_fallbacks")
            for job in live:
                self._run_job(job)
            return
        _count("serve.batch_calls")
        _count("serve.batch_coalesced", len(live))
        registry = _obs.metrics()
        if registry is not None:
            registry.histogram(
                "serve.batch_size", _batch_engine.BATCH_SIZE_BUCKETS
            ).observe(len(live))
        for index, job in enumerate(live):
            if bool(scored.feasible[index]):
                try:
                    value = scored.result(index)
                except Exception:  # analysis: allow(typed-errors): scalar re-run raises the authoritative typed error
                    self._run_job(job)
                    continue
                _count("serve.completed")
                job.ticket._resolve(value)
            else:
                self._run_job(job)

    def _run_job(self, job: _Job) -> None:
        remaining = job.remaining_s()
        if remaining is not None and remaining <= 0:
            _count("serve.deadline_exceeded")
            job.ticket._reject(
                DeadlineExceeded(
                    "deadline elapsed while queued",
                    deadline_s=job.deadline_s,
                    elapsed_s=time.monotonic() - job.enqueued_at,
                )
            )
            return
        try:
            value = job.request.run(remaining)
        except ReproError as error:
            _count(f"serve.errors.{error.code}")
            _count("serve.errors")
            job.ticket._reject(error)
        except Exception as error:  # noqa: BLE001 - workers must not die
            _count("serve.errors")
            job.ticket._reject(error)
        else:
            _count("serve.completed")
            if isinstance(value, ExploreResult) and value.degraded:
                _count("serve.degraded_results")
            job.ticket._resolve(value)

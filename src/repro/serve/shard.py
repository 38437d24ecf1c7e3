"""One cluster shard: a supervised worker process + its parent handle.

The worker process (:func:`_shard_main`) is one loop — read a message,
evaluate the request, post the answer — and leaves backpressure,
deadlines, shedding and hedging to the parent
:class:`~repro.serve.cluster.ClusterService`.  It speaks a tiny
picklable message protocol over two ``multiprocessing`` queues:

parent -> shard (request queue, parent is sole writer)
    ``("req", req_id, EvaluateRequest)`` | ``("probe", probe_id, sent_s)``
    | ``None`` (stop)

shard -> parent (response queue, shard is sole writer)
    ``("ok", shard_id, req_id, encoded_entry)``
    | ``("err", shard_id, req_id, code, message, details)``
    | ``("probe", shard_id, probe_id, sent_s)``

Results cross the process boundary as the cache's canonical encoded
entries (:func:`~repro.serve.cache.encode_result`), never as pickled
object graphs — the same bytes the disk tier persists, so the cached
path and the fresh path are identical by construction.  Errors cross as
``(code, message, details)`` triples and are rebuilt from the typed
taxonomy on the parent side (:func:`rebuild_error`); anything outside
the taxonomy becomes :class:`~repro.errors.BackendBroken`.  The shard
loop and the cluster's in-process fallback share one typed-error wall,
:func:`evaluate_outcome`.

Each shard owns its own response queue so a SIGKILLed worker can never
die holding a queue lock another shard needs.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Any

from .. import errors as _errors
from ..errors import BackendBroken, ReproError
from .cache import encode_result

__all__ = [
    "ShardHealth",
    "ShardHandle",
    "evaluate_outcome",
    "rebuild_error",
]

#: Typed taxonomy classes addressable by their stable ``code`` slug.
_ERROR_CLASSES = {
    cls.code: cls
    for cls in (
        _errors.InvalidInput,
        _errors.InfeasiblePlacement,
        _errors.ParseError,
        _errors.DeadlineExceeded,
        _errors.Overloaded,
        _errors.BackendBroken,
    )
}


def _json_safe(details: dict[str, Any]) -> dict[str, Any]:
    return {
        key: value
        for key, value in details.items()
        if isinstance(value, (int, float, str, bool)) or value is None
    }


def rebuild_error(code: str, message: str, details: dict[str, Any]) -> ReproError:
    """Reconstruct a typed error that crossed the process boundary."""
    cls = _ERROR_CLASSES.get(code)
    if cls is None:
        return BackendBroken(
            f"shard failed outside the typed taxonomy: {message}", cause=code
        )
    try:
        return cls(message, **details)
    except TypeError:
        return cls(message)


def evaluate_outcome(request) -> tuple:
    """Evaluate one request and map its outcome onto the wire.

    Returns ``("ok", encoded_entry)`` or ``("err", code, message,
    details)``: a :class:`~repro.errors.ReproError` keeps its ``code``
    and JSON-safe ``details``; any other exception becomes
    ``"__unhandled__"``, which :func:`rebuild_error` turns into
    :class:`~repro.errors.BackendBroken`.
    """
    try:
        return ("ok", encode_result(request.run(None), request.rate))
    except ReproError as error:
        return ("err", error.code, error.message, _json_safe(error.details))
    except Exception as error:  # noqa: BLE001 - must answer, typed or not
        return ("err", "__unhandled__", repr(error), {})


# -- worker process ----------------------------------------------------------


def _shard_main(shard_id: int, request_q, response_q, chaos) -> None:
    """Worker-process entry point; importable so spawn start works too."""
    import os
    import signal

    handled = 0
    while True:
        message = request_q.get()
        if message is None:
            return
        kind = message[0]
        if kind == "probe":
            if chaos is not None and chaos.probe_stall_s > 0:
                time.sleep(chaos.probe_stall_s)
            response_q.put(("probe", shard_id, message[1], message[2]))
            continue
        req_id, request = message[1], message[2]
        if (
            chaos is not None
            and chaos.crash_after_requests is not None
            and handled >= chaos.crash_after_requests
        ):
            os.kill(os.getpid(), signal.SIGKILL)
        handled += 1
        if chaos is not None and chaos.request_delay_s > 0:
            time.sleep(chaos.request_delay_s)
        outcome = evaluate_outcome(request)
        response_q.put((outcome[0], shard_id, req_id, *outcome[1:]))


# -- parent-side handle ------------------------------------------------------


class ShardHealth(enum.Enum):
    """Typed health states the supervisor publishes per shard."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    DOWN = "down"


@dataclass
class ShardHandle:
    """Parent-side view of one shard: process, queues, health, load."""

    shard_id: int
    ctx: Any  #: multiprocessing context
    queue_depth: int
    chaos: Any = None  #: optional ShardChaos, forwarded to the worker
    process: Any = None
    request_q: Any = None
    response_q: Any = None
    health: ShardHealth = ShardHealth.DOWN
    inflight: int = 0
    restarts: int = 0
    missed_probes: int = 0
    last_probe_id: int | None = None
    last_probe_sent_s: float = 0.0
    probe_latency_s: float = 0.0
    generation: int = 0

    def spawn(self) -> None:
        """(Re)start the worker process with fresh queues."""
        self.request_q = self.ctx.Queue(maxsize=max(2, self.queue_depth * 2))
        self.response_q = self.ctx.Queue()
        self.process = self.ctx.Process(
            target=_shard_main,
            name=f"repro-shard-{self.shard_id}",
            args=(self.shard_id, self.request_q, self.response_q, self.chaos),
            daemon=True,
        )
        self.process.start()
        self.health = ShardHealth.HEALTHY
        self.inflight = 0
        self.missed_probes = 0
        self.last_probe_id = None
        self.generation += 1

    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def accepts_work(self) -> bool:
        return (
            self.health is not ShardHealth.DOWN
            and self.alive()
            and self.inflight < self.queue_depth
        )

    def send(self, message) -> bool:
        """Non-blocking enqueue to the worker; ``False`` when refused."""
        if self.request_q is None or not self.alive():
            return False
        try:
            self.request_q.put_nowait(message)
        except Exception:  # analysis: allow(typed-errors): Full or a dead queue both mean 'refused'
            return False
        return True

    def drain_responses(self) -> list[tuple]:
        """All responses currently waiting, without blocking."""
        messages: list[tuple] = []
        if self.response_q is None:
            return messages
        while True:
            try:
                messages.append(self.response_q.get_nowait())
            except Exception:  # analysis: allow(typed-errors): Empty, or queue torn by a kill, both end the drain
                break
        return messages

    def stop(self, *, join_timeout_s: float = 5.0) -> None:
        """Ask the worker to exit; escalate to terminate if it will not."""
        if self.process is None:
            return
        if self.alive():
            try:
                self.request_q.put_nowait(None)
            except Exception:  # analysis: allow(typed-errors): worker already gone; terminate below
                pass
            self.process.join(timeout=join_timeout_s)
        if self.alive():
            self.process.terminate()
            self.process.join(timeout=join_timeout_s)
        self.health = ShardHealth.DOWN

    def describe(self) -> dict[str, Any]:
        return {
            "shard_id": self.shard_id,
            "pid": self.pid,
            "health": self.health.value,
            "inflight": self.inflight,
            "restarts": self.restarts,
            "missed_probes": self.missed_probes,
            "probe_latency_s": round(self.probe_latency_s, 6),
        }

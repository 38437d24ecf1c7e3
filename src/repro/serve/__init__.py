"""``repro.serve`` — a resilient serving tier over the cost models.

* :mod:`~repro.serve.service` — :class:`CostModelService`: bounded work
  queue, backpressure/load shedding (:class:`~repro.errors.Overloaded`
  with jittered ``retry_after_s``), per-request deadlines
  (:class:`~repro.errors.DeadlineExceeded`, anytime exploration under
  the remaining budget) and graceful drain.
* :mod:`~repro.serve.cache` — content-addressed two-tier result cache:
  in-memory LRU over a CRC-verified, atomically-written persistent
  tier; corrupted or truncated entries are quarantined and recomputed.
* :mod:`~repro.serve.shard` / :mod:`~repro.serve.cluster` —
  :class:`ClusterService`: N supervised one-loop process shards (read a
  request, evaluate it, post the answer) behind a coalescing,
  cache-fronted, health-checked front-end with hedged re-dispatch,
  circuit-breaker restarts, and bounded in-process graceful degradation.
"""

from .cache import (
    DiskResultCache,
    LruResultCache,
    TieredResultCache,
    cache_key,
    decode_result,
    encode_result,
)
from .cluster import ClusterConfig, ClusterService
from .service import (
    CostModelService,
    EvaluateRequest,
    ExploreRequest,
    ServiceConfig,
    Ticket,
    jittered_retry_after,
)
from .shard import ShardHealth

__all__ = [
    "CostModelService",
    "EvaluateRequest",
    "ExploreRequest",
    "ServiceConfig",
    "Ticket",
    "jittered_retry_after",
    "cache_key",
    "encode_result",
    "decode_result",
    "LruResultCache",
    "DiskResultCache",
    "TieredResultCache",
    "ClusterConfig",
    "ClusterService",
    "ShardHealth",
]

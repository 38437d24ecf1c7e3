"""Minimal metrics registry: counters, gauges, fixed-bucket histograms.

No labels, no exemplars, no background threads — just named values a
single-process run accumulates and exports as one JSON object.  The
registry is per-:class:`~repro.obs.trace.ObsSession`, so metrics from
different captures never bleed into each other.

Everything recorded here is *model-domain* data (simulated seconds,
bytes, counts), never wall-clock time — that keeps the metrics half of a
trace document byte-for-byte reproducible for a fixed seed, which the
determinism suite asserts.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "METRIC_NAMES",
    "METRIC_PREFIXES",
    "MetricsRegistry",
    "SECONDS_BUCKETS",
    "SIZE_BUCKETS",
]

#: Every metric name this codebase records.  This is the schema of the
#: metrics half of every exported trace document: dashboards and the
#: golden-trace tests key on these strings, so a typo at a call site
#: silently forks a new time series.  The ``obs-hygiene`` analysis rule
#: (``repro analyze``) cross-checks every literal ``counter``/``gauge``/
#: ``histogram`` name against this declaration — add new names here
#: first.
METRIC_NAMES: frozenset[str] = frozenset(
    {
        "batch.calls",
        "batch.cells_evaluated",
        "batch.infeasible_prms",
        "batch.prms_evaluated",
        "batch.size",
        "batch.vectorization_ratio",
        "explore.branches_pruned",
        "explore.budget_cutoffs",
        "explore.candidates_evaluated",
        "explore.designs_feasible",
        "explore.placement_cache_hits",
        "explore.placement_cache_misses",
        "fabric.admission_failures",
        "fabric.admissions",
        "fabric.columns_retired",
        "fabric.defrag_passes",
        "fabric.evictions",
        "fabric.fragmentation",
        "fabric.migrations",
        "fabric.rollbacks",
        "faults.events",
        "sched.completion_rate",
        "sched.deadline_misses",
        "sched.failed_reconfigs",
        "sched.jobs_completed",
        "sched.jobs_dropped",
        "sched.jobs_spilled",
        "sched.makespan_seconds",
        "sched.permanent_retirements",
        "sched.quarantine_seconds",
        "sched.quarantine_seconds_total",
        "sched.quarantines",
        "sched.reconfig_seconds",
        "sched.reconfigs",
        "sched.retries",
        "sched.retry_seconds",
        "sched.retry_seconds_total",
        "sched.scrub_repairs",
        "sched.seu_hits",
        "sched.wait_seconds",
        "serve.accepted",
        "serve.batch_calls",
        "serve.batch_coalesced",
        "serve.batch_fallbacks",
        "serve.batch_size",
        "serve.cluster.accepted",
        "serve.cluster.cache_hits",
        "serve.cluster.cache_invalidated",
        "serve.cluster.cache_misses",
        "serve.cluster.cache_quarantined",
        "serve.cluster.cache_write_errors",
        "serve.cluster.coalesced",
        "serve.cluster.completed",
        "serve.cluster.hedge_duplicates",
        "serve.cluster.hedges",
        "serve.cluster.hedges_lost",
        "serve.cluster.hedges_won",
        "serve.cluster.inline_fallbacks",
        "serve.cluster.probe_misses",
        "serve.cluster.redispatches",
        "serve.cluster.restarts",
        "serve.cluster.shed",
        "serve.cluster.typed_errors",
        "serve.completed",
        "serve.deadline_exceeded",
        "serve.degraded_results",
        "serve.errors",
        "serve.shed",
    }
)

#: Prefixes that legitimize dynamically built (f-string) metric names:
#: per-error-code counters, per-shard gauges, per-window counters, and
#: per-ICAP-port transfer metrics keyed by the port name.
METRIC_PREFIXES: tuple[str, ...] = (
    "serve.cluster.errors.",
    "serve.cluster.shard",
    "serve.errors.",
    "window_index.",
    "icap.",
)

#: Default boundaries for duration histograms (simulated seconds).  Fixed
#: so histograms from different runs/versions are directly comparable.
SECONDS_BUCKETS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)

#: Default boundaries for byte-size histograms.
SIZE_BUCKETS: tuple[float, ...] = (
    1024.0, 16384.0, 65536.0, 262144.0, 1048576.0, 16777216.0,
)


class Counter:
    """Monotonically increasing value (ints or model-time floats)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: cannot decrease by {amount}")
        self.value += amount

    def to_value(self) -> float:
        return self.value


class Gauge:
    """Last-write-wins value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def to_value(self) -> float:
        return self.value


class Histogram:
    """Fixed-boundary histogram (cumulative-free, one count per bucket).

    ``boundaries`` are upper bounds; a value lands in the first bucket
    whose bound is >= value, or the implicit overflow bucket.  Boundaries
    are fixed at construction so that exported histograms from any two
    runs line up bucket-for-bucket.
    """

    __slots__ = ("name", "boundaries", "bucket_counts", "count", "total")

    def __init__(self, name: str, boundaries: Sequence[float]) -> None:
        bounds = tuple(float(b) for b in boundaries)
        if not bounds:
            raise ValueError(f"histogram {name}: need at least one boundary")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"histogram {name}: boundaries must be strictly increasing"
            )
        self.name = name
        self.boundaries = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # +1 overflow
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.boundaries, value)] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "boundaries": list(self.boundaries),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.total,
        }


class MetricsRegistry:
    """Named metric store; get-or-create semantics per metric kind."""

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(
        self, name: str, boundaries: Sequence[float] = SECONDS_BUCKETS
    ) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name, boundaries)
        elif tuple(float(b) for b in boundaries) != metric.boundaries:
            raise ValueError(
                f"histogram {name} already registered with different boundaries"
            )
        return metric

    @property
    def counters(self) -> Mapping[str, Counter]:
        return self._counters

    @property
    def gauges(self) -> Mapping[str, Gauge]:
        return self._gauges

    @property
    def histograms(self) -> Mapping[str, Histogram]:
        return self._histograms

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready export, keys sorted for stable diffs."""
        return {
            "counters": {
                name: self._counters[name].to_value()
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].to_value()
                for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].to_dict()
                for name in sorted(self._histograms)
            },
        }

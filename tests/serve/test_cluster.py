"""ClusterService: sharding, supervision, hedging, typed degradation.

These tests drive real worker processes, so timeouts are generous and
fault plans are deterministic (:class:`repro.faults.ShardChaos` handed
to the shard at spawn) rather than timing-sensitive.
"""

import hashlib
import random
import threading
import time

import pytest

from repro import obs
from repro.core.api import evaluate_prm
from repro.devices.catalog import get_device
from repro.errors import InvalidInput, Overloaded
from repro.faults import ShardChaos, corrupt_cache_entry
from repro.serve import (
    ClusterConfig,
    ClusterService,
    EvaluateRequest,
    ExploreRequest,
)

from tests.conftest import paper_requirements

pytestmark = pytest.mark.serve_cluster

WAIT_S = 60.0


def _fir():
    return paper_requirements("fir", "virtex5")


def _prms():
    return (
        paper_requirements("fir", "virtex5"),
        paper_requirements("mips", "virtex5"),
        paper_requirements("sdram", "virtex5"),
    )


def _routed_shard(device_name: str, shards: int) -> int:
    digest = hashlib.sha256(device_name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shards


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shards": 0},
            {"shard_queue_depth": 0},
            {"probe_interval_s": 0.0},
            {"probe_timeout_s": -1.0},
            {"probe_misses_down": 0},
            {"hedge_after_s": 0.0},
            {"max_restarts": -1},
            {"default_deadline_s": 0.0},
            {"shed_retry_after_s": -0.1},
            {"shed_retry_jitter": 20.0},
            {"drain_timeout_s": 0.0},
            {"cache_memory_entries": 0},
            {"default_deadline_s": -1.0},
            {"shed_retry_jitter": -0.1},
            {"shards": 2, "chaos": (ShardChaos(),)},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(InvalidInput):
            ClusterConfig(**kwargs)

    def test_explore_requests_redirected(self):
        config = ClusterConfig(shards=1)
        with ClusterService(config) as cluster:
            with pytest.raises(InvalidInput, match="CostModelService"):
                cluster.submit(
                    ExploreRequest(get_device("xc5vlx110t"), _prms())
                )

    def test_unstarted_cluster_refuses(self):
        cluster = ClusterService(ClusterConfig(shards=1))
        with pytest.raises(Overloaded):
            cluster.submit(EvaluateRequest(_fir(), "xc5vlx110t"))


class TestHappyPath:
    def test_roundtrip_equals_fresh_and_repeat_hits_cache(self, tmp_path):
        config = ClusterConfig(shards=2, cache_dir=str(tmp_path))
        with ClusterService(config) as cluster:
            first = cluster.submit(
                EvaluateRequest(_fir(), "xc5vlx110t")
            ).result(timeout=WAIT_S)
            again = cluster.submit(
                EvaluateRequest(_fir(), "xc5vlx110t")
            ).result(timeout=WAIT_S)
            stats = cluster.stats()
        fresh = evaluate_prm(_fir(), "xc5vlx110t")
        assert first == fresh
        assert again == fresh
        assert stats["cache_hits"] >= 1
        assert stats["completed"] == 2
        assert stats["typed_errors"] == 0

    def test_typed_model_error_crosses_process_boundary(self):
        from repro.core.params import PRMRequirements
        from repro.errors import InfeasiblePlacement

        huge = PRMRequirements(
            name="huge",
            lut_ff_pairs=10**6,
            luts=10**6,
            ffs=10**6,
            dsps=500,
            brams=500,
        )
        with ClusterService(ClusterConfig(shards=1)) as cluster:
            ticket = cluster.submit(EvaluateRequest(huge, "xc5vlx110t"))
            with pytest.raises(InfeasiblePlacement):
                ticket.result(timeout=WAIT_S)
            assert cluster.stats()["typed_errors"] == 1

    def test_unknown_device_rejected_at_submit(self):
        with ClusterService(ClusterConfig(shards=1)) as cluster:
            with pytest.raises(InvalidInput, match="valid choices"):
                cluster.submit(EvaluateRequest(_fir(), "no-such-device"))

    def test_health_snapshot_typed(self):
        with ClusterService(ClusterConfig(shards=2)) as cluster:
            cluster.submit(
                EvaluateRequest(_fir(), "xc5vlx110t")
            ).result(timeout=WAIT_S)
            rows = cluster.health()
        assert len(rows) == 2
        for row in rows:
            assert row["health"] in {"healthy", "degraded", "down"}
            assert row["restarts"] == 0


class TestCoalescing:
    def test_duplicate_inflight_requests_coalesce(self):
        # Slow both shards down so duplicates pile up behind the first.
        chaos = (
            ShardChaos(request_delay_s=0.4),
            ShardChaos(request_delay_s=0.4),
        )
        config = ClusterConfig(shards=2, hedge_after_s=30.0, chaos=chaos)
        with ClusterService(config) as cluster:
            tickets = [
                cluster.submit(EvaluateRequest(_fir(), "xc5vlx110t"))
                for _ in range(6)
            ]
            results = [t.result(timeout=WAIT_S) for t in tickets]
            stats = cluster.stats()
        fresh = evaluate_prm(_fir(), "xc5vlx110t")
        assert all(result == fresh for result in results)
        assert stats["coalesced"] >= 5
        assert stats["completed"] == 6


class TestSupervision:
    def test_crashed_shard_restarts_and_work_completes(self):
        chaos = (ShardChaos(crash_after_requests=1), ShardChaos())
        config = ClusterConfig(
            shards=2, probe_interval_s=0.1, hedge_after_s=1.0, chaos=chaos
        )
        with ClusterService(config) as cluster:
            tickets = [
                cluster.submit(EvaluateRequest(prm, device))
                for prm in _prms()
                for device in ("xc5vlx110t", "xc6vlx75t")
            ]
            results = [t.result(timeout=WAIT_S) for t in tickets]
            stats = cluster.stats()
            rows = cluster.health()
        assert len(results) == 6
        assert stats["typed_errors"] == 0
        assert stats["restarts"] >= 1
        assert sum(row["restarts"] for row in rows) >= 1

    def test_restarted_shard_reattaches_to_warm_cache(self, tmp_path):
        # Shard 0 dies after its first request, but everything computed
        # before the crash keeps being served from the front-end cache.
        chaos = (ShardChaos(crash_after_requests=1), ShardChaos())
        config = ClusterConfig(
            shards=2,
            probe_interval_s=0.1,
            cache_dir=str(tmp_path),
            chaos=chaos,
        )
        with ClusterService(config) as cluster:
            first = cluster.submit(
                EvaluateRequest(_fir(), "xc5vlx110t")
            ).result(timeout=WAIT_S)
            deadline = time.monotonic() + WAIT_S
            while time.monotonic() < deadline:
                if cluster.stats()["restarts"] >= 1 or all(
                    row["restarts"] == 0 and row["health"] == "healthy"
                    for row in cluster.health()
                ):
                    break
                time.sleep(0.05)
            again = cluster.submit(
                EvaluateRequest(_fir(), "xc5vlx110t")
            ).result(timeout=WAIT_S)
            stats = cluster.stats()
        assert first == again
        assert stats["cache_hits"] >= 1

    def test_all_shards_retired_falls_back_inline(self):
        chaos = (ShardChaos(crash_after_requests=0),)
        config = ClusterConfig(
            shards=1, max_restarts=0, probe_interval_s=0.05, chaos=chaos
        )
        with ClusterService(config) as cluster:
            first = cluster.submit(
                EvaluateRequest(_fir(), "xc5vlx110t")
            ).result(timeout=WAIT_S)
            # By now the only shard is dead with no restart budget; new
            # work must be evaluated in-process, still correct and typed.
            second = cluster.submit(
                EvaluateRequest(
                    paper_requirements("mips", "virtex5"), "xc5vlx110t"
                )
            ).result(timeout=WAIT_S)
            stats = cluster.stats()
        assert first == evaluate_prm(_fir(), "xc5vlx110t")
        assert second == evaluate_prm(
            paper_requirements("mips", "virtex5"), "xc5vlx110t"
        )
        assert stats["inline_fallbacks"] >= 1
        assert stats["restarts"] == 0
        assert stats["typed_errors"] == 0

    def test_inline_fallback_bounded_by_queue_depth(self, monkeypatch):
        # With every shard retired, in-process evaluation is capped at
        # shard_queue_depth in flight; the next distinct miss sheds.
        depth = 2
        release = threading.Event()
        real_run = EvaluateRequest.run

        def held_run(self, remaining_s):
            release.wait(WAIT_S)
            return real_run(self, remaining_s)

        chaos = (ShardChaos(crash_after_requests=0),)
        config = ClusterConfig(
            shards=1,
            max_restarts=0,
            shard_queue_depth=depth,
            probe_interval_s=0.05,
            hedge_after_s=30.0,
            shed_retry_after_s=0.1,
            shed_retry_jitter=0.5,
            chaos=chaos,
        )
        prms = _prms()
        with ClusterService(config) as cluster:
            monkeypatch.setattr(EvaluateRequest, "run", held_run)
            # The first miss kills the only shard and is moved inline.
            tickets = [cluster.submit(EvaluateRequest(prms[0], "xc5vlx110t"))]
            deadline = time.monotonic() + WAIT_S
            while cluster.stats()["inline_fallbacks"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.02)
            tickets += [
                cluster.submit(EvaluateRequest(prm, "xc5vlx110t"))
                for prm in prms[1:depth]
            ]
            with pytest.raises(Overloaded) as excinfo:
                cluster.submit(EvaluateRequest(prms[depth], "xc5vlx110t"))
            release.set()
            results = [ticket.result(timeout=WAIT_S) for ticket in tickets]
            stats = cluster.stats()
        shed = excinfo.value
        assert shed.retryable
        assert 0.1 <= shed.retry_after_s <= 0.1 * 1.5 + 1e-9
        assert shed.queue_depth == depth
        assert results == [
            evaluate_prm(prm, "xc5vlx110t") for prm in prms[:depth]
        ]
        assert stats["inline_fallbacks"] == depth
        assert stats["shed"] == 1


class TestHedging:
    def test_stranded_request_hedges_to_fast_shard(self):
        slow = _routed_shard("xc5vlx110t", 2)
        chaos = [ShardChaos(), ShardChaos()]
        chaos[slow] = ShardChaos(request_delay_s=15.0)
        config = ClusterConfig(
            shards=2,
            probe_interval_s=0.05,
            hedge_after_s=0.2,
            chaos=tuple(chaos),
        )
        with ClusterService(config) as cluster:
            started = time.perf_counter()
            result = cluster.submit(
                EvaluateRequest(_fir(), "xc5vlx110t")
            ).result(timeout=WAIT_S)
            elapsed = time.perf_counter() - started
            stats = cluster.stats()
        assert result == evaluate_prm(_fir(), "xc5vlx110t")
        assert elapsed < 10.0  # did not wait out the slow shard
        assert stats["hedges"] >= 1
        assert stats["hedges_won"] >= 1


class TestBackpressure:
    def test_saturated_cluster_sheds_with_jittered_retry_after(self):
        chaos = (ShardChaos(request_delay_s=5.0),)
        config = ClusterConfig(
            shards=1,
            shard_queue_depth=1,
            hedge_after_s=30.0,
            shed_retry_after_s=0.1,
            shed_retry_jitter=0.5,
            chaos=chaos,
        )
        with ClusterService(config) as cluster:
            # Distinct keys so neither coalesces with the first.
            cluster.submit(EvaluateRequest(_fir(), "xc5vlx110t"))
            with pytest.raises(Overloaded) as excinfo:
                cluster.submit(
                    EvaluateRequest(
                        paper_requirements("mips", "virtex5"), "xc5vlx110t"
                    )
                )
            shed = excinfo.value
            cluster.stop(drain=False)
        assert shed.retryable
        assert 0.1 <= shed.retry_after_s <= 0.1 * 1.5 + 1e-9
        assert shed.queue_depth == 1

    def test_submissions_during_drain_are_rejected(self):
        chaos = (ShardChaos(request_delay_s=1.0),)
        config = ClusterConfig(shards=1, hedge_after_s=30.0, chaos=chaos)
        cluster = ClusterService(config).start()
        import threading

        ticket = cluster.submit(EvaluateRequest(_fir(), "xc5vlx110t"))
        stopper = threading.Thread(
            target=cluster.stop, kwargs={"drain": True}, daemon=True
        )
        stopper.start()
        deadline = time.monotonic() + 10.0
        late_error = None
        while time.monotonic() < deadline:
            try:
                cluster.submit(EvaluateRequest(_fir(), "xc5vlx110t"))
            except Overloaded as err:
                late_error = err
                break
            time.sleep(0.01)
        stopper.join(timeout=WAIT_S)
        assert late_error is not None
        assert ticket.result(timeout=WAIT_S) == evaluate_prm(
            _fir(), "xc5vlx110t"
        )

    def test_stop_between_accept_check_and_admit_rejects(self, monkeypatch):
        cluster = ClusterService(ClusterConfig(shards=1)).start()

        def stop_then_miss(key, device):
            cluster.stop()
            return None

        monkeypatch.setattr(cluster.cache, "get", stop_then_miss)
        with pytest.raises(Overloaded):
            cluster.submit(EvaluateRequest(_fir(), "xc5vlx110t"))
        assert cluster.stats()["accepted"] == 0
        assert not cluster._inline_threads


class TestDurability:
    def test_corrupted_disk_entry_recomputed_not_served(self, tmp_path):
        config = ClusterConfig(
            shards=1, cache_memory_entries=1, cache_dir=str(tmp_path)
        )
        prms = _prms()
        with ClusterService(config) as cluster:
            for prm in prms:
                cluster.submit(
                    EvaluateRequest(prm, "xc5vlx110t")
                ).result(timeout=WAIT_S)
        entries = sorted(tmp_path.glob("*.entry"))
        assert len(entries) == len(prms)
        corrupt_cache_entry(entries[0], rng=random.Random(11))
        # Cold start on the damaged directory: the corrupted entry is
        # quarantined and recomputed; every answer still equals fresh.
        with ClusterService(config) as cluster:
            results = [
                cluster.submit(
                    EvaluateRequest(prm, "xc5vlx110t")
                ).result(timeout=WAIT_S)
                for prm in prms
            ]
            stats = cluster.stats()
        assert results == [
            evaluate_prm(prm, "xc5vlx110t") for prm in prms
        ]
        assert stats["quarantined"] == 1
        assert stats["typed_errors"] == 0


class TestObservability:
    def test_cluster_counters_emitted(self):
        with obs.capture(command="cluster-test") as session:
            with ClusterService(ClusterConfig(shards=1)) as cluster:
                cluster.submit(
                    EvaluateRequest(_fir(), "xc5vlx110t")
                ).result(timeout=WAIT_S)
                cluster.submit(
                    EvaluateRequest(_fir(), "xc5vlx110t")
                ).result(timeout=WAIT_S)
        payload = session.to_dict()
        counters = payload["metrics"]["counters"]
        assert counters["serve.cluster.accepted"] == 2
        assert counters["serve.cluster.completed"] == 2
        assert counters["serve.cluster.cache_hits"] == 1
        spans = [span["name"] for span in payload["spans"]]
        assert spans.count("cluster.dispatch") == 2

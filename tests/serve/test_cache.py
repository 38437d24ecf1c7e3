"""Durable content-addressed cache: integrity, atomicity, differential.

The serving tier's correctness story rests on two claims this module
pins down:

1. *Integrity*: a damaged disk entry (bit flip, truncation, torn write,
   stale format version) is never served — it is quarantined or
   invalidated and the result recomputed.
2. *Differential equality*: a result that travels through the codec
   (or the disk tier) is dataclass-equal to a fresh
   :func:`repro.core.api.evaluate_prm` run, byte-identical once
   canonically encoded.
"""

import random

import pytest

from repro.core.api import batch_evaluate, evaluate_prm
from repro.core.reconfig_model import ICAP_VIRTEX5_BYTES_PER_S
from repro.devices.catalog import get_device
from repro.errors import InvalidInput
from repro.faults import (
    corrupt_cache_entry,
    disk_full,
    leave_partial_temp_file,
    truncate_cache_entry,
)
from repro.serve import (
    DiskResultCache,
    LruResultCache,
    TieredResultCache,
    cache_key,
    decode_result,
    encode_result,
)
from repro.serve.cache import CACHE_FORMAT_VERSION, canonical_bytes

from tests.conftest import paper_requirements

RATE = ICAP_VIRTEX5_BYTES_PER_S


@pytest.fixture()
def v5_device():
    return get_device("xc5vlx110t")


@pytest.fixture()
def fir():
    return paper_requirements("fir", "virtex5")


def _store_one(directory, prm, device):
    """Evaluate + persist one entry; return (key, result, disk cache)."""
    disk = DiskResultCache(directory)
    result = evaluate_prm(prm, device.name)
    key = cache_key(prm, device, RATE)
    assert disk.put(key, encode_result(result, RATE))
    return key, result, disk


class TestCacheKey:
    def test_same_content_same_key(self, v5_device, fir):
        assert cache_key(fir, v5_device, RATE) == cache_key(
            fir, v5_device, RATE
        )

    def test_key_covers_device_prm_and_rate(self, v5_device, fir):
        base = cache_key(fir, v5_device, RATE)
        other_device = get_device("xc6vlx75t")
        other_prm = paper_requirements("mips", "virtex5")
        assert cache_key(fir, other_device, RATE) != base
        assert cache_key(other_prm, v5_device, RATE) != base
        assert cache_key(fir, v5_device, RATE * 2) != base

    def test_key_covers_prm_name(self, v5_device, fir):
        renamed = type(fir)(
            name="fir-renamed",
            lut_ff_pairs=fir.lut_ff_pairs,
            luts=fir.luts,
            ffs=fir.ffs,
            dsps=fir.dsps,
            brams=fir.brams,
        )
        assert cache_key(renamed, v5_device, RATE) != cache_key(
            fir, v5_device, RATE
        )


class TestCodecDifferential:
    def test_roundtrip_equals_fresh_evaluation(self, v5_device):
        for workload in ("fir", "mips", "sdram"):
            prm = paper_requirements(workload, "virtex5")
            fresh = evaluate_prm(prm, v5_device.name)
            decoded = decode_result(encode_result(fresh, RATE), v5_device)
            assert decoded == fresh
            assert canonical_bytes(
                encode_result(decoded, RATE)
            ) == canonical_bytes(encode_result(fresh, RATE))

    def test_roundtrip_matches_batch_engine(self, v5_device):
        prms = [
            paper_requirements(w, "virtex5") for w in ("fir", "mips", "sdram")
        ]
        batch = batch_evaluate(prms, v5_device.name)
        for index, prm in enumerate(prms):
            fresh = batch.result(index)
            decoded = decode_result(encode_result(fresh, RATE), v5_device)
            assert decoded == fresh


class TestLruTier:
    def test_eviction_order(self, v5_device, fir):
        cache = LruResultCache(max_entries=2)
        result = evaluate_prm(fir, v5_device.name)
        cache.put("a", result)
        cache.put("b", result)
        cache.get("a")  # refresh a; b becomes LRU
        cache.put("c", result)
        assert cache.get("b") is None
        assert cache.get("a") is result
        assert cache.get("c") is result

    def test_zero_capacity_rejected(self):
        with pytest.raises(InvalidInput):
            LruResultCache(max_entries=0)


class TestDiskIntegrity:
    def test_roundtrip_served_verbatim(self, tmp_path, v5_device, fir):
        key, result, disk = _store_one(tmp_path, fir, v5_device)
        entry = disk.get(key)
        assert entry is not None
        assert decode_result(entry, v5_device) == result

    def test_corrupted_entry_quarantined_never_served(
        self, tmp_path, v5_device, fir
    ):
        key, _, disk = _store_one(tmp_path, fir, v5_device)
        corrupt_cache_entry(disk.path_for(key), rng=random.Random(7))
        assert disk.get(key) is None
        assert disk.stats["quarantined"] == 1
        assert len(disk.quarantined_files()) == 1
        assert not disk.path_for(key).exists()
        # The quarantined bytes are kept aside for forensics, not served.
        assert disk.get(key) is None

    def test_truncated_entry_quarantined(self, tmp_path, v5_device, fir):
        key, _, disk = _store_one(tmp_path, fir, v5_device)
        truncate_cache_entry(disk.path_for(key), keep_fraction=0.5)
        assert disk.get(key) is None
        assert disk.stats["quarantined"] == 1

    def test_stale_version_invalidated(self, tmp_path, v5_device, fir):
        key, _, disk = _store_one(tmp_path, fir, v5_device)
        path = disk.path_for(key)
        raw = path.read_bytes()
        stale = raw.replace(
            f"RPRC{CACHE_FORMAT_VERSION}".encode(),
            f"RPRC{CACHE_FORMAT_VERSION + 1}".encode(),
            1,
        )
        path.write_bytes(stale)
        assert disk.get(key) is None
        assert disk.stats["invalidated"] == 1
        assert not path.exists()  # deleted, not quarantined

    def test_partial_temp_file_swept_at_open(self, tmp_path, v5_device, fir):
        key, result, _ = _store_one(tmp_path, fir, v5_device)
        partial = leave_partial_temp_file(tmp_path)
        assert partial.exists()
        reopened = DiskResultCache(tmp_path)  # simulated crash + restart
        assert not partial.exists()
        assert reopened.stats["swept_tmp"] == 1
        entry = reopened.get(key)  # real entries survive the sweep
        assert decode_result(entry, v5_device) == result

    def test_disk_full_write_fails_closed(self, tmp_path, v5_device, fir):
        disk = DiskResultCache(tmp_path)
        result = evaluate_prm(fir, v5_device.name)
        key = cache_key(fir, v5_device, RATE)
        with disk_full():
            assert disk.put(key, encode_result(result, RATE)) is False
        assert disk.stats["disk_write_errors"] == 1
        assert disk.get(key) is None  # nothing partial left behind
        assert not list(tmp_path.glob("tmp-*"))
        # Writes recover once space returns.
        assert disk.put(key, encode_result(result, RATE))
        assert decode_result(disk.get(key), v5_device) == result


class TestTieredCache:
    def test_cold_start_rebuilds_from_disk(self, tmp_path, v5_device, fir):
        result = evaluate_prm(fir, v5_device.name)
        key = cache_key(fir, v5_device, RATE)
        warm = TieredResultCache(directory=tmp_path)
        warm.put(key, result, encode_result(result, RATE))
        # New process, empty memory tier: the disk copy must satisfy it.
        cold = TieredResultCache(directory=tmp_path)
        hit = cold.get(key, v5_device)
        assert hit == result
        assert cold.stats["hits_disk"] == 1
        # Promotion: second lookup is a memory hit.
        assert cold.get(key, v5_device) == result
        assert cold.stats["hits_memory"] == 1

    def test_corruption_is_a_miss_then_recomputed(
        self, tmp_path, v5_device, fir
    ):
        result = evaluate_prm(fir, v5_device.name)
        key = cache_key(fir, v5_device, RATE)
        tiered = TieredResultCache(max_entries=1, directory=tmp_path)
        tiered.put(key, result, encode_result(result, RATE))
        corrupt_cache_entry(
            tiered.disk.path_for(key), rng=random.Random(3)
        )
        # Evict the memory copy so the damaged disk entry is the only one.
        other = evaluate_prm(
            paper_requirements("mips", "virtex5"), v5_device.name
        )
        tiered.put("other-key", other, encode_result(other, RATE))
        assert tiered.get(key, v5_device) is None
        stats = tiered.combined_stats()
        assert stats["quarantined"] == 1
        assert stats["misses"] == 1
        # The recompute path re-populates both tiers.
        tiered.put(key, result, encode_result(result, RATE))
        assert tiered.get(key, v5_device) == result

    def test_memory_only_mode(self, v5_device, fir):
        result = evaluate_prm(fir, v5_device.name)
        tiered = TieredResultCache(directory=None)
        tiered.put("k", result, encode_result(result, RATE))
        assert tiered.get("k", v5_device) == result
        assert tiered.disk is None

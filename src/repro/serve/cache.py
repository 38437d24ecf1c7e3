"""Two-tier content-addressed result cache for the serving tier.

The cost models are pure functions of ``(device, family constants, PRM
scalars, controller rate)``, so a cache in front of them can absorb most
real traffic.  This module provides the trustworthy version of that
cache the cluster front-end needs:

* :func:`cache_key` — a SHA-256 digest over the *content* of the
  request: the device name, fabric layout and every family constant,
  the five PRM requirement scalars, and the controller rate.  Two
  requests with the same key are guaranteed (by construction, not by
  convention) to have byte-identical answers.
* :func:`encode_result` / :func:`decode_result` — a canonical
  primitives-only codec for :class:`~repro.core.api.CostModelResult`.
  Only the *selected* geometry and placement are stored; every derived
  quantity (availability, utilization, bitstream size, reconfiguration
  time) is recomputed from the same deterministic model functions on
  decode, so a decoded result is dataclass-equal to a fresh
  :func:`~repro.core.api.evaluate_prm` run and a corrupted entry cannot
  smuggle in stale derived numbers.
* :class:`LruResultCache` — bounded in-memory tier (results are frozen
  dataclasses, safe to share between threads).
* :class:`DiskResultCache` — persistent tier: one file per key, written
  atomically (temp file + fsync + ``os.replace``) with a
  :func:`~repro.faults.reliable.payload_crc` checksum header (the same
  :class:`~repro.bitgen.crc.ConfigCrc` accumulation the verified-write
  path uses).  Corrupted or truncated entries are detected on read,
  **quarantined** (renamed aside, never served) and reported as misses
  so the front-end transparently recomputes; entries from a different
  cache format version are invalidated; leftover temp files from a
  crashed writer are swept at open.
* :class:`TieredResultCache` — the two tiers composed, with a stats
  dict (``hits_memory``/``hits_disk``/``misses``/``quarantined``/...)
  mirrored to ``serve.cluster.cache_*`` obs counters when a capture is
  active.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections import OrderedDict
from dataclasses import fields
from pathlib import Path
from threading import Lock
from typing import Any

from ..core.api import CostModelResult
from ..core.bitstream_model import estimate_bitstream
from ..core.params import PRMRequirements
from ..core.placement_search import PlacedPRR
from ..core.prr_model import PRRGeometry, clb_requirement
from ..core.reconfig_model import estimate_reconfig_time
from ..core.utilization import utilization
from ..devices.fabric import Device, Region
from ..devices.resources import ResourceVector
from ..errors import InvalidInput
from ..faults.reliable import payload_crc
from ..obs import trace as _obs

__all__ = [
    "CACHE_FORMAT_VERSION",
    "cache_key",
    "encode_result",
    "decode_result",
    "canonical_bytes",
    "LruResultCache",
    "DiskResultCache",
    "TieredResultCache",
    "CacheCorrupt",
    "open_default_cache_dir",
]

#: Bumped whenever the entry payload layout or the model semantics the
#: codec relies on change; on-disk entries with any other version are
#: invalidated (deleted and recomputed), never reinterpreted.
CACHE_FORMAT_VERSION = 1

#: Header magic for disk entries: ``RPRC<version> <crc-hex8> <len>\n``.
_MAGIC = f"RPRC{CACHE_FORMAT_VERSION}"

_ENTRY_SUFFIX = ".entry"
_QUARANTINE_SUFFIX = ".quarantined"
_TMP_PREFIX = "tmp-"


class CacheCorrupt(Exception):
    """Internal: a disk entry failed integrity verification."""


def _count(name: str, n: int = 1) -> None:
    registry = _obs.metrics()
    if registry is not None:
        registry.counter(name).inc(n)


# -- content-addressed key ---------------------------------------------------


def _family_constants(device: Device) -> dict[str, Any]:
    """Every family constant, field by field (dataclass order is fixed)."""
    return {
        f.name: getattr(device.family, f.name) for f in fields(device.family)
    }


def cache_key(
    prm: PRMRequirements, device: Device, controller_bytes_per_s: float
) -> str:
    """Content digest of one evaluate request.

    The key covers everything a served result depends on: the full
    device identity (name, rows, column layout, family constants), the
    PRM name and its five requirement scalars, and the controller rate.
    Two requests with equal keys therefore have interchangeable —
    byte-identical once canonically encoded — answers.
    """
    payload = {
        "v": CACHE_FORMAT_VERSION,
        "device": device.name,
        "rows": device.rows,
        "layout": device.layout_string(),
        "family": _family_constants(device),
        "prm": [
            prm.name,
            prm.lut_ff_pairs,
            prm.luts,
            prm.ffs,
            prm.dsps,
            prm.brams,
        ],
        "rate": float(controller_bytes_per_s),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- canonical result codec --------------------------------------------------


def encode_result(
    result: CostModelResult, controller_bytes_per_s: float
) -> dict[str, Any]:
    """Primitives-only encoding of one :class:`CostModelResult`.

    Stores the selected geometry/placement and the model inputs; all
    derived quantities are recomputed on decode.
    """
    geometry = result.placement.geometry
    region = result.placement.region
    prm = result.prm
    return {
        "version": CACHE_FORMAT_VERSION,
        "device": result.device_name,
        "prm": {
            "name": prm.name,
            "lut_ff_pairs": prm.lut_ff_pairs,
            "luts": prm.luts,
            "ffs": prm.ffs,
            "dsps": prm.dsps,
            "brams": prm.brams,
        },
        "rows": geometry.rows,
        "w_clb": geometry.columns.clb,
        "w_dsp": geometry.columns.dsp,
        "w_bram": geometry.columns.bram,
        "region": [region.row, region.col, region.height, region.width],
        "rate": float(controller_bytes_per_s),
    }


def decode_result(entry: dict[str, Any], device: Device) -> CostModelResult:
    """Rebuild the exact :class:`CostModelResult` from an encoded entry.

    *device* must be the resolved device the entry was computed on (the
    caller already holds it — the cache key pins the device content).
    Every derived field is recomputed through the same model functions
    the scalar path uses, so the decoded result is dataclass-equal to a
    fresh :func:`~repro.core.api.evaluate_prm` call.  Malformed entries
    raise :class:`CacheCorrupt`.
    """
    try:
        if entry["version"] != CACHE_FORMAT_VERSION:
            raise CacheCorrupt(f"version {entry.get('version')!r}")
        if entry["device"] != device.name:
            raise CacheCorrupt(
                f"entry device {entry['device']!r} != {device.name!r}"
            )
        p = entry["prm"]
        prm = PRMRequirements(
            name=p["name"],
            lut_ff_pairs=p["lut_ff_pairs"],
            luts=p["luts"],
            ffs=p["ffs"],
            dsps=p["dsps"],
            brams=p["brams"],
        )
        geometry = PRRGeometry(
            family=device.family,
            rows=int(entry["rows"]),
            columns=ResourceVector(
                clb=int(entry["w_clb"]),
                dsp=int(entry["w_dsp"]),
                bram=int(entry["w_bram"]),
            ),
        )
        row, col, height, width = (int(v) for v in entry["region"])
        region = Region(row=row, col=col, height=height, width=width)
        rate = float(entry["rate"])
        placement = PlacedPRR(device=device, geometry=geometry, region=region)
    except CacheCorrupt:
        raise
    except Exception as exc:  # noqa: BLE001 - any malformed shape is corrupt
        raise CacheCorrupt(str(exc)) from exc
    bitstream = estimate_bitstream(geometry)
    return CostModelResult(
        prm=prm,
        device_name=device.name,
        clb_req=clb_requirement(prm, device.family),
        placement=placement,
        utilization=utilization(prm, geometry),
        bitstream=bitstream,
        reconfig=estimate_reconfig_time(
            bitstream.total_bytes, controller_bytes_per_s=rate
        ),
    )


def canonical_bytes(entry: dict[str, Any]) -> bytes:
    """Deterministic byte serialization of an encoded entry.

    Sorted keys, no whitespace — the differential tests compare these
    bytes between cached and freshly computed results.
    """
    return json.dumps(entry, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


# -- in-memory tier ----------------------------------------------------------


class LruResultCache:
    """Bounded LRU over decoded results (thread-safe)."""

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries < 1:
            raise InvalidInput(
                f"cache max_entries must be >= 1, got {max_entries}"
            )
        self.max_entries = max_entries
        self._entries: OrderedDict[str, CostModelResult] = OrderedDict()
        self._lock = Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> CostModelResult | None:
        with self._lock:
            result = self._entries.get(key)
            if result is not None:
                self._entries.move_to_end(key)
            return result

    def put(self, key: str, result: CostModelResult) -> None:
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)


# -- persistent tier ---------------------------------------------------------


def _write_bytes(path: Path, data: bytes) -> None:
    """Low-level durable write; the disk-full fault injector patches this."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
    try:
        os.write(fd, data)
        os.fsync(fd)
    finally:
        os.close(fd)


class DiskResultCache:
    """One verified file per key; atomic writes, quarantine on damage.

    File layout: an ASCII header line ``RPRC<v> <crc-hex8> <len>\\n``
    followed by exactly ``len`` payload bytes (the canonical JSON entry).
    The CRC is :func:`~repro.faults.reliable.payload_crc` over the
    payload, so any flipped bit or truncation fails verification.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.stats = {
            "disk_write_errors": 0,
            "quarantined": 0,
            "invalidated": 0,
            "swept_tmp": 0,
        }
        self._lock = Lock()
        self._sweep()

    # -- paths ---------------------------------------------------------------

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}{_ENTRY_SUFFIX}"

    def entry_files(self) -> list[Path]:
        return sorted(self.directory.glob(f"*{_ENTRY_SUFFIX}"))

    def _sweep(self) -> None:
        """Remove temp files a crashed writer left behind (never served)."""
        for leftover in self.directory.glob(f"{_TMP_PREFIX}*"):
            try:
                leftover.unlink()
            except OSError:
                continue
            with self._lock:
                self.stats["swept_tmp"] += 1

    # -- read ----------------------------------------------------------------

    def get(self, key: str) -> dict[str, Any] | None:
        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError:
            return None
        try:
            entry = self._verify(raw)
        except CacheCorrupt as damage:
            if str(damage) == "stale-version":
                self._invalidate(path)
            else:
                self._quarantine(path)
            return None
        return entry

    def _verify(self, raw: bytes) -> dict[str, Any]:
        header, sep, payload = raw.partition(b"\n")
        if not sep:
            raise CacheCorrupt("truncated-header")
        parts = header.decode("ascii", errors="replace").split(" ")
        if len(parts) != 3:
            raise CacheCorrupt("malformed-header")
        magic, crc_hex, length = parts
        if magic != _MAGIC:
            if magic.startswith("RPRC"):
                raise CacheCorrupt("stale-version")
            raise CacheCorrupt("bad-magic")
        try:
            expected_crc = int(crc_hex, 16)
            expected_len = int(length)
        except ValueError as exc:
            raise CacheCorrupt("malformed-header") from exc
        if len(payload) != expected_len:
            raise CacheCorrupt("truncated-payload")
        if payload_crc(payload) != expected_crc:
            raise CacheCorrupt("crc-mismatch")
        try:
            entry = json.loads(payload)
        except ValueError as exc:
            raise CacheCorrupt("payload-not-json") from exc
        if not isinstance(entry, dict):
            raise CacheCorrupt("payload-not-object")
        if entry.get("version") != CACHE_FORMAT_VERSION:
            raise CacheCorrupt("stale-version")
        return entry

    def _quarantine(self, path: Path) -> None:
        with self._lock:
            try:
                os.replace(path, path.with_name(path.name + _QUARANTINE_SUFFIX))
            except OSError:
                try:
                    path.unlink()
                except OSError:
                    pass
            self.stats["quarantined"] += 1
        _count("serve.cluster.cache_quarantined")

    def _invalidate(self, path: Path) -> None:
        with self._lock:
            try:
                path.unlink()
            except OSError:
                pass
            self.stats["invalidated"] += 1
        _count("serve.cluster.cache_invalidated")

    def quarantined_files(self) -> list[Path]:
        return sorted(self.directory.glob(f"*{_QUARANTINE_SUFFIX}"))

    # -- write ---------------------------------------------------------------

    def put(self, key: str, entry: dict[str, Any]) -> bool:
        """Atomically persist one entry; ``False`` (never raise) on I/O error.

        A serving layer must not let a full disk or a permissions problem
        take down the compute path — a failed write is just a future miss.
        """
        payload = canonical_bytes(entry)
        header = f"{_MAGIC} {payload_crc(payload):08x} {len(payload)}\n"
        data = header.encode("ascii") + payload
        tmp_name = f"{_TMP_PREFIX}{key}-{os.getpid()}-{id(entry) & 0xFFFF}"
        tmp_path = self.directory / tmp_name
        try:
            _write_bytes(tmp_path, data)
            os.replace(tmp_path, self.path_for(key))
        except OSError:
            with self._lock:
                self.stats["disk_write_errors"] += 1
            _count("serve.cluster.cache_write_errors")
            try:
                tmp_path.unlink()
            except OSError:
                pass
            return False
        return True


# -- composed tiers ----------------------------------------------------------


class TieredResultCache:
    """Memory LRU in front of the verified disk tier.

    ``directory=None`` disables the persistent tier (memory-only).  A
    disk hit is promoted into the memory tier; a memory eviction does
    not touch disk (the disk copy is the durable one).  All lookups and
    stores also need the resolved :class:`Device` so decoded results are
    rebuilt against the caller's device object.
    """

    def __init__(
        self,
        *,
        max_entries: int = 1024,
        directory: str | os.PathLike | None = None,
    ) -> None:
        self.memory = LruResultCache(max_entries=max_entries)
        self.disk = DiskResultCache(directory) if directory is not None else None
        self.stats = {
            "hits_memory": 0,
            "hits_disk": 0,
            "misses": 0,
            "stores": 0,
        }
        self._lock = Lock()

    def _bump(self, stat: str) -> None:
        with self._lock:
            self.stats[stat] += 1

    @property
    def hits(self) -> int:
        return self.stats["hits_memory"] + self.stats["hits_disk"]

    def get(self, key: str, device: Device) -> CostModelResult | None:
        result = self.memory.get(key)
        if result is not None:
            self._bump("hits_memory")
            _count("serve.cluster.cache_hits")
            return result
        if self.disk is not None:
            entry = self.disk.get(key)
            if entry is not None:
                try:
                    result = decode_result(entry, device)
                except CacheCorrupt:
                    # Verified bytes that still fail semantic decode are
                    # treated exactly like bit-level damage.
                    self.disk._quarantine(self.disk.path_for(key))
                else:
                    self.memory.put(key, result)
                    self._bump("hits_disk")
                    _count("serve.cluster.cache_hits")
                    return result
        self._bump("misses")
        _count("serve.cluster.cache_misses")
        return None

    def put(self, key: str, result: CostModelResult, entry: dict[str, Any]) -> None:
        """Store in both tiers; *entry* is the result's :func:`encode_result`."""
        self.memory.put(key, result)
        if self.disk is not None:
            self.disk.put(key, entry)
        self._bump("stores")

    def combined_stats(self) -> dict[str, int]:
        stats = dict(self.stats)
        if self.disk is not None:
            stats.update(self.disk.stats)
        return stats


def open_default_cache_dir() -> Path:
    """Default persistent cache location (env-overridable)."""
    root = os.environ.get("REPRO_CACHE_DIR")
    if root:
        return Path(root)
    return Path(tempfile.gettempdir()) / "repro-serve-cache"

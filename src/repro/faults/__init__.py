"""Fault-tolerant reconfiguration runtime.

Real PR deployments pair the configuration port with CRC verification
and SEU scrubbing because transfers and configuration memory fail.  This
package supplies the failure side of the repo's otherwise-ideal models:

* :mod:`models` — pluggable fault models and the structured
  :class:`FaultEvent` log record;
* :mod:`injector` — a seedable :class:`FaultInjector` through which
  every probabilistic decision flows (deterministic experiments);
* :mod:`reliable` — :func:`verified_write`, the one write → verify →
  retry loop (a :class:`RetryPolicy` with backoff and a deadline), and
  :func:`payload_crc`, the byte-level verify;
* :mod:`degraded` — the policy of ``simulate_pr(..., faults=...)``:
  how many retries, when a failing PRR is quarantined and
  scrub-restored, and whether unplaceable jobs spill to the
  full-reconfiguration baseline path;
* :mod:`serve_injectors` — serve-tier chaos for the cluster soak:
  shard SIGKILL plans (:class:`ShardChaos`), cache-file corruption/
  truncation, torn-write temp files, and disk-full cache writes.
"""

from .degraded import DegradedModePolicy, QuarantineEscalation
from .injector import FaultInjector, TransferOutcome
from .models import (
    ControllerStallFault,
    FaultEvent,
    PermanentColumnFault,
    SeuArrivalFault,
    StorageFetchFault,
    TransferBitFlipFault,
)
from .reliable import (
    RetryPolicy,
    VerifiedWrite,
    payload_crc,
    verified_write,
)
from .serve_injectors import (
    ShardChaos,
    corrupt_cache_entry,
    disk_full,
    leave_partial_temp_file,
    truncate_cache_entry,
)

__all__ = [
    "FaultEvent",
    "TransferBitFlipFault",
    "StorageFetchFault",
    "ControllerStallFault",
    "SeuArrivalFault",
    "PermanentColumnFault",
    "QuarantineEscalation",
    "FaultInjector",
    "TransferOutcome",
    "RetryPolicy",
    "VerifiedWrite",
    "payload_crc",
    "verified_write",
    "DegradedModePolicy",
    "ShardChaos",
    "corrupt_cache_entry",
    "truncate_cache_entry",
    "leave_partial_temp_file",
    "disk_full",
]

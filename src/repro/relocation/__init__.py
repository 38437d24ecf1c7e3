"""Hardware task relocation and context save/restore.

The paper builds on the authors' prior work — on-chip context save and
restore (FCCM'13, ref. [5]) and hardware task relocation (ARC'13, ref.
[6]).  This package implements both on top of the bitstream substrate:
a configuration-memory model with write/readback paths
(:mod:`memory`), bitstream re-addressing between compatible PRRs
(:mod:`relocate`) and task-state snapshots that restore in place or into
another PRR (:mod:`context`).
"""

from .context import TaskContext, restore_context, save_context
from .memory import ConfigMemory, iter_burst_fars
from .scrubber import ScrubReport, Scrubber, golden_signatures, inject_upsets
from .relocate import (
    RelocationError,
    compatible_regions,
    find_compatible_regions,
    iter_compatible_regions,
    relocate_bitstream,
)

__all__ = [
    "ConfigMemory",
    "iter_burst_fars",
    "RelocationError",
    "compatible_regions",
    "find_compatible_regions",
    "iter_compatible_regions",
    "relocate_bitstream",
    "TaskContext",
    "save_context",
    "restore_context",
    "Scrubber",
    "ScrubReport",
    "golden_signatures",
    "inject_upsets",
]

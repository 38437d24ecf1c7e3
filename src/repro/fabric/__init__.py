"""Self-healing fabric runtime (live floorplan with defrag and rollback).

``repro.fabric`` keeps a multi-PRR floorplan healthy over a run's
lifetime: dynamic module admission/retirement, fragmentation tracking,
defragmentation via transactional copy → CRC verify → activate → free
migrations (with rollback on verify failure and crash recovery), and
permanent-fault column retirement with re-floorplanning.

See :class:`FabricRuntime` for the main entry point;
:func:`repro.multitask.scheduler.simulate_pr` accepts a runtime in
place of a PRR list and dispatches to :func:`simulate_on_fabric`.
"""

from ..devices.freespace import (
    fragmentation_index,
    free_cell_grid,
    largest_free_rectangle,
    total_free_cells,
)
from .defrag import MigrationStep, plan_defrag_pass
from .runtime import (
    AdmissionError,
    DefragResult,
    FabricConfig,
    FabricEvent,
    FabricModule,
    FabricRuntime,
)
from .schedule import simulate_on_fabric

__all__ = [
    "AdmissionError",
    "DefragResult",
    "FabricConfig",
    "FabricEvent",
    "FabricModule",
    "FabricRuntime",
    "MigrationStep",
    "fragmentation_index",
    "free_cell_grid",
    "largest_free_rectangle",
    "plan_defrag_pass",
    "simulate_on_fabric",
    "total_free_cells",
]

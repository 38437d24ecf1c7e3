"""The paper's contribution: PRR size/organization and bitstream cost models.

* :mod:`~repro.core.params` — model inputs (:class:`PRMRequirements`) and
  the Table I / Table III parameter glossaries.
* :mod:`~repro.core.prr_model` — eqs. (1)–(12): requirements → geometry.
* :mod:`~repro.core.utilization` — eqs. (13)–(17): RU / fragmentation.
* :mod:`~repro.core.placement_search` — the Fig. 1 flow on a real fabric.
* :mod:`~repro.core.bitstream_model` — eqs. (18)–(23): geometry → bytes.
* :mod:`~repro.core.reconfig_model` — bytes → reconfiguration time.
* :mod:`~repro.core.explorer` — PRM→PRR partitioning design-space search.
* :mod:`~repro.core.fastpath` — occupancy structure, placement caches and
  pruning bounds shared by the search fast paths.
* :mod:`~repro.core.batch` — numpy columnar scoring: whole PRM batches
  evaluated against the (geometry × device) grid as array ops, behind
  :func:`~repro.core.api.batch_evaluate`.  Placement runs on the scalar
  Fig. 1 search only.
* :mod:`~repro.core.api` — one-call convenience wrappers (scalar and
  batch).
"""

from .advisor import Advice, Finding, Severity, advise
from .api import (
    BatchCostResult,
    CostModelResult,
    batch_evaluate,
    evaluate_prm,
    evaluate_shared_prr,
)
from .batch import (
    BatchSelection,
    DeviceColumns,
    GeometryGrid,
    batch_bitstream_bytes,
    batch_prr_geometry,
    batch_reconfig_time,
    batch_select,
    batch_window_placement,
    device_columns,
    requirement_columns,
)
from .calibration import FittedConstants, SizeSample, fit_family_constants
from .floorplanner import (
    Floorplan,
    FloorplanError,
    floorplan,
    render_floorplan,
)
from .shapes import CompositePRR, composite_bitstream_bytes, find_lshape_prr
from .bitstream_model import (
    BitstreamEstimate,
    bitstream_size_bytes,
    config_frames_per_row,
    estimate_bitstream,
    full_device_bitstream_bytes,
    ncw_row,
    ndw_bram,
)
from .budget import Budget
from .explorer import (
    DEFAULT_BEAM_WIDTH,
    MAX_EXHAUSTIVE_PRMS,
    ExploreResult,
    PartitioningDesign,
    PRRAssignment,
    evaluate_partition,
    explore,
    iter_set_partitions,
    pareto_front,
)
from .fastpath import (
    GroupBounds,
    RegionOccupancy,
    group_lower_bounds,
)
from .params import PRMRequirements, TABLE1_PARAMETERS, TABLE3_PARAMETERS
from .placement_search import (
    PlacedPRR,
    PlacementNotFoundError,
    SearchTrace,
    find_prr,
    iter_feasible_placements,
    search_with_trace,
)
from .prr_model import (
    InfeasibleGeometryError,
    PRRGeometry,
    clb_requirement,
    merge_geometries,
    min_rows_for_dsps,
    prr_geometry_for_rows,
)
from .reconfig_model import (
    ICAP_VIRTEX5_BYTES_PER_S,
    ReconfigEstimate,
    estimate_reconfig_time,
)
from .utilization import UtilizationReport, utilization

__all__ = [
    "PRMRequirements",
    "TABLE1_PARAMETERS",
    "TABLE3_PARAMETERS",
    "clb_requirement",
    "min_rows_for_dsps",
    "PRRGeometry",
    "prr_geometry_for_rows",
    "merge_geometries",
    "InfeasibleGeometryError",
    "UtilizationReport",
    "utilization",
    "PlacedPRR",
    "PlacementNotFoundError",
    "SearchTrace",
    "find_prr",
    "iter_feasible_placements",
    "search_with_trace",
    "BitstreamEstimate",
    "estimate_bitstream",
    "bitstream_size_bytes",
    "full_device_bitstream_bytes",
    "config_frames_per_row",
    "ncw_row",
    "ndw_bram",
    "ReconfigEstimate",
    "estimate_reconfig_time",
    "ICAP_VIRTEX5_BYTES_PER_S",
    "PRRAssignment",
    "PartitioningDesign",
    "iter_set_partitions",
    "evaluate_partition",
    "explore",
    "pareto_front",
    "ExploreResult",
    "Budget",
    "MAX_EXHAUSTIVE_PRMS",
    "DEFAULT_BEAM_WIDTH",
    "RegionOccupancy",
    "GroupBounds",
    "group_lower_bounds",
    "CostModelResult",
    "Advice",
    "Finding",
    "Severity",
    "advise",
    "SizeSample",
    "FittedConstants",
    "fit_family_constants",
    "evaluate_prm",
    "evaluate_shared_prr",
    "BatchCostResult",
    "batch_evaluate",
    "BatchSelection",
    "DeviceColumns",
    "GeometryGrid",
    "batch_bitstream_bytes",
    "batch_prr_geometry",
    "batch_reconfig_time",
    "batch_select",
    "batch_window_placement",
    "device_columns",
    "requirement_columns",
    "Floorplan",
    "FloorplanError",
    "floorplan",
    "render_floorplan",
    "CompositePRR",
    "composite_bitstream_bytes",
    "find_lshape_prr",
]

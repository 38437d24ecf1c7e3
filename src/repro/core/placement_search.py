"""The Fig. 1 search flow: find the placed PRR for a PRM on a device.

"In order to produce the lowest internal fragmentation and lowest partial
bitstream size for a PRM, H should start at H = 1 and verify if it is
possible to distribute the CLBs, DSPs, and BRAMs in W contiguous columns
(no IOB or CLK columns in the PRR) using (2) to (6) for the target device.
The search for a PRR starts at the bottom of the device fabric (row = 1)
...  If it is not possible to find a PRR for the current H, H is
incremented and W_CLB, W_DSP (or H_DSP), and W_BRAM ... are recalculated
and the search for the PRR starts again from the bottom of the device
fabric."

The flow therefore enumerates candidate geometries over H = 1..R, checks
each for a physically contiguous column window (any column order), and —
since Table V reports "the smallest PRR size and the highest RU" (e.g.
FIR/LX110T selects H = 5, size 15, over the also-feasible H = 4, size 16) —
keeps the feasible candidate minimizing the selected objective:

* ``"size"`` (default): smallest ``PRR_size``, ties broken by smaller H,
  then bottom-most row, then left-most column;
* ``"bitstream"``: smallest estimated partial bitstream (eq. (18)); for
  the paper's six PRM/device cases the two objectives agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, Literal, Sequence

from ..devices.fabric import Device, Region
from ..devices.resources import ResourceVector
from ..errors import InfeasiblePlacement, InvalidInput
from .bitstream_model import cached_bitstream_bytes
from .fastpath import RegionOccupancy
from .params import PRMRequirements
from .prr_model import PRRGeometry, group_columns
from .utilization import UtilizationReport, utilization

__all__ = [
    "PlacedPRR",
    "PlacementNotFoundError",
    "Candidate",
    "rank_candidates",
    "place_ranked",
    "iter_feasible_placements",
    "find_prr",
    "SearchTrace",
    "search_with_trace",
]

Objective = Literal["size", "bitstream"]

#: A ranked Fig. 1 candidate, plain ints: (objective, H, W_CLB, W_DSP, W_BRAM).
Candidate = tuple[int, int, int, int, int]


class PlacementNotFoundError(InfeasiblePlacement):
    """No feasible PRR placement exists on the device for the PRM(s).

    Part of the :mod:`repro.errors` taxonomy
    (:class:`~repro.errors.InfeasiblePlacement`, itself a ``LookupError``
    for back-compat with pre-taxonomy handlers).
    """


@dataclass(frozen=True, slots=True)
class PlacedPRR:
    """A feasible PRR: geometry + concrete fabric location.

    ``region`` pins the PRR at fabric row ``r`` and leftmost column ``c``
    such that ``r + H - 1 <= R`` (Section III.B).
    """

    device: Device
    geometry: PRRGeometry
    region: Region

    def __post_init__(self) -> None:
        if self.region.height != self.geometry.rows:
            raise InvalidInput("region height must equal geometry rows")
        if self.region.width != self.geometry.width:
            raise InvalidInput("region width must equal geometry width")
        if self.device.region_column_counts(self.region) != self.geometry.columns:
            raise InvalidInput("region column mix does not match geometry")

    @property
    def size(self) -> int:
        return self.geometry.size

    @property
    def bitstream_bytes(self) -> int:
        """Eq. (18) estimate for this PRR (memoized per geometry)."""
        return cached_bitstream_bytes(self.geometry)

    def utilization_for(self, requirements: PRMRequirements) -> UtilizationReport:
        return utilization(requirements, self.geometry)

    def __repr__(self) -> str:
        return (
            f"PlacedPRR({self.device.name}, H={self.geometry.rows}, "
            f"W={self.geometry.width}, row={self.region.row}, "
            f"col={self.region.col})"
        )


def rank_candidates(
    device: Device,
    requirements: PRMRequirements | Sequence[PRMRequirements],
    *,
    objective: Objective = "size",
    max_rows: int | None = None,
) -> tuple[Candidate, ...]:
    """A group's Fig. 1 candidates, in the order the search tries them.

    One :data:`Candidate` per geometry-feasible H up to ``max_rows``,
    sorted by ``(PRR_size, H)``, or by ``(eq. (18) bytes, H)`` for
    ``objective="bitstream"``.  The list depends only on the device and
    the group, so a caller placing one group many times ranks it once.
    """
    limit = device.rows if max_rows is None else min(max_rows, device.rows)
    single = device.has_single_dsp_column
    per_h = group_columns(requirements, device.family, limit, single_dsp_column=single)
    ranked = []
    for rows, cols in enumerate(per_h, start=1):
        if cols is not None:
            if objective == "size":
                key = rows * (cols[0] + cols[1] + cols[2])
            else:
                key = cached_bitstream_bytes(_geometry(device, rows, *cols))
            ranked.append((key, rows, *cols))
    ranked.sort()  # H is unique per candidate, so the widths never decide
    return tuple(ranked)


def place_ranked(
    device: Device,
    ranked: Sequence[Candidate],
    forbidden: Sequence[Region] | RegionOccupancy = (),
) -> PlacedPRR | None:
    """The first of the *ranked* candidates that places, or ``None``.

    Each H contributes one candidate (its bottom-left window), so the
    first that places is the ``(objective, H, row, col)`` minimum; a
    :class:`PRRGeometry` is built only for the candidates tried.
    """
    occupancy = _occupancy(forbidden)
    for _, rows, clb, dsp, bram in ranked:
        geometry = _geometry(device, rows, clb, dsp, bram)
        placement = _place_geometry(device, geometry, occupancy)
        if placement is not None:
            return placement
    return None


def iter_feasible_placements(
    device: Device,
    requirements: PRMRequirements | Sequence[PRMRequirements],
    *,
    max_rows: int | None = None,
    forbidden: Sequence[Region] | RegionOccupancy = (),
) -> Iterator[PlacedPRR]:
    """Yield one placement per feasible H, in increasing-H order.

    For each H the bottom-most/left-most window avoiding ``forbidden``
    regions (already-allocated PRRs or the static region) is yielded.
    ``forbidden`` accepts a plain region sequence or a prebuilt
    :class:`~repro.core.fastpath.RegionOccupancy`.
    """
    occupancy = _occupancy(forbidden)
    by_rows = sorted(rank_candidates(device, requirements, max_rows=max_rows), key=itemgetter(1))
    for candidate in by_rows:
        placement = place_ranked(device, (candidate,), occupancy)
        if placement is not None:
            yield placement


def _geometry(device: Device, rows: int, clb: int, dsp: int, bram: int) -> PRRGeometry:
    return PRRGeometry(
        family=device.family,
        rows=rows,
        columns=ResourceVector(clb=clb, dsp=dsp, bram=bram),
    )


def _occupancy(forbidden: Sequence[Region] | RegionOccupancy) -> RegionOccupancy:
    if isinstance(forbidden, RegionOccupancy):
        return forbidden
    return RegionOccupancy(forbidden)


def _place_geometry(
    device: Device,
    geometry: PRRGeometry,
    forbidden: Sequence[Region] | RegionOccupancy,
) -> PlacedPRR | None:
    """Bottom-up, left-to-right scan for a window matching the geometry.

    Candidate column windows are row-independent (columns keep their kind
    for the full device height), so the feasible start columns come from
    the device's window index once and are reused across the row loop.
    """
    if geometry.rows > device.rows:
        return None
    starts = device.feasible_window_starts(geometry.columns)
    if not starts:
        return None
    occupancy = _occupancy(forbidden)
    height, width = geometry.rows, geometry.width
    for row in range(1, device.rows - height + 2):
        for col in starts:
            region = Region(row=row, col=col, height=height, width=width)
            if not occupancy.overlaps(region):
                return PlacedPRR(device=device, geometry=geometry, region=region)
    return None


def find_prr(
    device: Device,
    requirements: PRMRequirements | Sequence[PRMRequirements],
    *,
    objective: Objective = "size",
    max_rows: int | None = None,
    forbidden: Sequence[Region] | RegionOccupancy = (),
) -> PlacedPRR:
    """Run the Fig. 1 flow and return the best feasible placed PRR.

    Raises :class:`PlacementNotFoundError` when the device cannot host any
    feasible geometry (e.g. too few rows for a single-DSP-column demand, or
    no contiguous column window with the right mix).
    """
    ranked = rank_candidates(device, requirements, objective=objective, max_rows=max_rows)
    placement = place_ranked(device, ranked, forbidden)
    if placement is None:
        raise _not_found(device, requirements, objective)
    return placement


def _not_found(
    device: Device,
    requirements: PRMRequirements | Sequence[PRMRequirements],
    objective: Objective,
) -> PlacementNotFoundError:
    return PlacementNotFoundError(
        f"no feasible PRR on {device.name} for {_names(requirements)} "
        f"(objective={objective})"
    )


def _names(requirements: PRMRequirements | Sequence[PRMRequirements]) -> str:
    if isinstance(requirements, PRMRequirements):
        return requirements.name
    return "+".join(prm.name for prm in requirements)


@dataclass(frozen=True, slots=True)
class SearchTrace:
    """Record of the Fig. 1 flow for one PRM: every H examined.

    ``steps`` holds ``(H, geometry_or_None, placed)`` triples —
    ``geometry_or_None`` is ``None`` when eq. (4) made the H infeasible,
    and ``placed`` is ``False`` when no contiguous window existed.
    Used by the Fig. 1 benchmark and the ``repro-fpga trace`` CLI command.
    """

    device_name: str
    prm_name: str
    steps: tuple[tuple[int, PRRGeometry | None, bool], ...]
    selected: PlacedPRR

    def render(self) -> str:
        lines = [f"Fig. 1 search: {self.prm_name} on {self.device_name}"]
        for rows, geometry, placed in self.steps:
            if geometry is None:
                lines.append(f"  H={rows}: infeasible (single-DSP-column rule)")
                continue
            status = "placed" if placed else "no contiguous window"
            lines.append(
                f"  H={rows}: W_CLB={geometry.columns.clb} "
                f"W_DSP={geometry.columns.dsp} W_BRAM={geometry.columns.bram} "
                f"W={geometry.width} size={geometry.size} -> {status}"
            )
        sel = self.selected
        lines.append(
            f"  selected: H={sel.geometry.rows} W={sel.geometry.width} "
            f"size={sel.size} at row={sel.region.row}, col={sel.region.col}"
        )
        return "\n".join(lines)


def search_with_trace(
    device: Device,
    requirements: PRMRequirements | Sequence[PRMRequirements],
    *,
    objective: Objective = "size",
) -> SearchTrace:
    """Replay the Fig. 1 flow on the empty fabric, recording every H step.

    Steps and selection read one :func:`rank_candidates` list, and the
    selection is what :func:`find_prr` returns on the empty fabric.
    """
    ranked = rank_candidates(device, requirements, objective=objective)
    steps: list[tuple[int, PRRGeometry | None, bool]] = [
        (rows, None, False) for rows in range(1, device.rows + 1)
    ]
    for _, rows, clb, dsp, bram in ranked:
        geometry = _geometry(device, rows, clb, dsp, bram)
        placed = _place_geometry(device, geometry, ()) is not None
        steps[rows - 1] = (rows, geometry, placed)
    selected = place_ranked(device, ranked)
    if selected is None:
        raise _not_found(device, requirements, objective)
    return SearchTrace(
        device_name=device.name,
        prm_name=_names(requirements),
        steps=tuple(steps),
        selected=selected,
    )

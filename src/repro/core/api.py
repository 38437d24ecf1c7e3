"""One-call convenience API over the two cost models.

These helpers mirror the designer workflow of Section IV: synthesize (or
load) a PRM's requirements, run the PRR size/organization model, then the
bitstream size model, and read off the geometry, utilization, bitstream
size and reconfiguration time in one structured result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Sequence

import numpy as np

from ..devices.fabric import Device, Region
from ..devices.resources import ResourceVector
from ..errors import InvalidInput
from . import batch as _batch
from .bitstream_model import BitstreamEstimate, estimate_bitstream
from .params import PRMRequirements
from .placement_search import PlacedPRR, PlacementNotFoundError, find_prr
from .prr_model import PRRGeometry, clb_requirement
from .reconfig_model import (
    ICAP_VIRTEX5_BYTES_PER_S,
    ReconfigEstimate,
    estimate_reconfig_time,
)
from .utilization import UtilizationReport, utilization

__all__ = [
    "CostModelResult",
    "evaluate_prm",
    "evaluate_shared_prr",
    "BatchCostResult",
    "batch_evaluate",
]


def _resolve_device(device: Device | str) -> Device:
    """Accept a :class:`Device` or a catalog name (serving-layer input).

    Unknown names raise :class:`~repro.errors.InvalidInput` listing the
    valid choices (via :func:`repro.devices.catalog.get_device`).
    """
    if isinstance(device, Device):
        return device
    if isinstance(device, str):
        from ..devices.catalog import get_device

        return get_device(device)
    raise InvalidInput(
        f"device must be a Device or a catalog name, got {type(device).__name__}"
    )


def _validate_prm(prm: PRMRequirements) -> None:
    if not isinstance(prm, PRMRequirements):
        raise InvalidInput(
            f"expected PRMRequirements, got {type(prm).__name__}; build one "
            f"from a synthesis report via SynthesisReport.requirements"
        )


def _validate_controller_rate(controller_bytes_per_s: float) -> None:
    if (
        not isinstance(controller_bytes_per_s, (int, float))
        or isinstance(controller_bytes_per_s, bool)
        or not math.isfinite(controller_bytes_per_s)
        or controller_bytes_per_s <= 0
    ):
        raise InvalidInput(
            f"controller_bytes_per_s must be a positive finite number, got "
            f"{controller_bytes_per_s!r}"
        )


@dataclass(frozen=True, slots=True)
class CostModelResult:
    """Everything both cost models say about one PRM on one device."""

    prm: PRMRequirements
    device_name: str
    clb_req: int  #: eq. (1)
    placement: PlacedPRR
    utilization: UtilizationReport
    bitstream: BitstreamEstimate
    reconfig: ReconfigEstimate

    def table5_row(self) -> dict[str, int]:
        """The paper's Table V cells for this PRM/device pair."""
        geometry = self.placement.geometry
        avail = geometry.available
        row: dict[str, int] = {
            "LUT_FF_req": self.prm.lut_ff_pairs,
            "DSP_req": self.prm.dsps,
            "BRAM_req": self.prm.brams,
            "LUT_req": self.prm.luts,
            "FF_req": self.prm.ffs,
            "CLB_req": self.clb_req,
            "H_CLB": geometry.rows,
            "W_CLB": geometry.columns.clb,
            "H_DSP": geometry.rows if geometry.columns.dsp else 0,
            "W_DSP": geometry.columns.dsp,
            "H_BRAM": geometry.rows if geometry.columns.bram else 0,
            "W_BRAM": geometry.columns.bram,
            "CLB_avail": avail.clb,
            "FF_avail": geometry.ffs_available,
            "LUT_avail": geometry.luts_available,
            "DSP_avail": avail.dsp,
            "BRAM_avail": avail.bram,
        }
        row.update(self.utilization.as_percentages())
        return row

    def summary(self) -> str:
        g = self.placement.geometry
        return (
            f"{self.prm.name} on {self.device_name}: H={g.rows} "
            f"W_CLB={g.columns.clb} W_DSP={g.columns.dsp} "
            f"W_BRAM={g.columns.bram} size={g.size} | "
            f"bitstream={self.bitstream.total_bytes} B | "
            f"t_reconfig={self.reconfig.microseconds:.1f} us"
        )


def evaluate_prm(
    prm: PRMRequirements,
    device: Device | str,
    *,
    controller_bytes_per_s: float = ICAP_VIRTEX5_BYTES_PER_S,
) -> CostModelResult:
    """Run both cost models for one PRM on one device.

    ``device`` may be a :class:`Device` or a catalog name; malformed
    inputs raise :class:`~repro.errors.InvalidInput` instead of
    propagating nonsense geometry downstream.
    """
    _validate_prm(prm)
    _validate_controller_rate(controller_bytes_per_s)
    device = _resolve_device(device)
    placement = find_prr(device, prm)
    bitstream = estimate_bitstream(placement.geometry)
    return CostModelResult(
        prm=prm,
        device_name=device.name,
        clb_req=clb_requirement(prm, device.family),
        placement=placement,
        utilization=utilization(prm, placement.geometry),
        bitstream=bitstream,
        reconfig=estimate_reconfig_time(
            bitstream.total_bytes, controller_bytes_per_s=controller_bytes_per_s
        ),
    )


def evaluate_shared_prr(
    prms: list[PRMRequirements],
    device: Device | str,
    *,
    controller_bytes_per_s: float = ICAP_VIRTEX5_BYTES_PER_S,
) -> list[CostModelResult]:
    """Size one shared PRR for several PRMs; per-PRM utilization results.

    All returned results share the same placement (and therefore the same
    bitstream size — every PRM's partial bitstream configures the full
    shared PRR).
    """
    if not prms:
        raise InvalidInput("at least one PRM is required")
    for prm in prms:
        _validate_prm(prm)
    _validate_controller_rate(controller_bytes_per_s)
    device = _resolve_device(device)
    placement = find_prr(device, prms)
    bitstream = estimate_bitstream(placement.geometry)
    reconfig = estimate_reconfig_time(
        bitstream.total_bytes, controller_bytes_per_s=controller_bytes_per_s
    )
    return [
        CostModelResult(
            prm=prm,
            device_name=device.name,
            clb_req=clb_requirement(prm, device.family),
            placement=placement,
            utilization=utilization(prm, placement.geometry),
            bitstream=bitstream,
            reconfig=reconfig,
        )
        for prm in prms
    ]


@dataclass(frozen=True, slots=True)
class BatchCostResult:
    """Columnar answers for a whole PRM batch on one device.

    The hot outputs stay as numpy columns (``feasible``, ``rows``,
    ``bitstream_bytes``, ``reconfig_seconds``, ... — all length N);
    :meth:`result` materializes the exact scalar
    :class:`CostModelResult` for one index on demand, so callers that
    only rank or filter a batch never pay per-PRM object construction.

    Infeasible members (including all-zero requirement vectors, which
    the scalar path rejects with an exception) are *masked*:
    ``feasible[i]`` is ``False`` and the other columns hold zeros.
    """

    prms: tuple[PRMRequirements, ...]
    device: Device
    objective: str
    selection: "_batch.BatchSelection"
    controller_bytes_per_s: Any  #: (N,) float64
    reconfig_seconds: Any  #: (N,) float64 seconds (0 where infeasible)

    def __len__(self) -> int:
        return len(self.prms)

    @property
    def feasible(self):
        """(N,) bool — which PRMs found a placed PRR."""
        return self.selection.feasible

    @property
    def n_feasible(self) -> int:
        return self.selection.n_feasible

    @property
    def rows(self):
        """(N,) selected H (0 where infeasible)."""
        return self.selection.rows

    @property
    def size(self):
        """(N,) eq. (7) PRR size of the selected geometry."""
        return self.selection.size

    @property
    def bitstream_bytes(self):
        """(N,) eq. (18) S_bitstream of the selected geometry."""
        return self.selection.bitstream_bytes

    def result(self, index: int) -> CostModelResult:
        """Materialize the scalar :class:`CostModelResult` for one PRM.

        Equal (dataclass equality) to ``evaluate_prm(prms[index], ...)``;
        raises the scalar search's
        :class:`~repro.core.placement_search.PlacementNotFoundError`
        when the member is infeasible.
        """
        prm = self.prms[index]
        sel = self.selection
        if not bool(sel.feasible[index]):
            raise PlacementNotFoundError(
                f"no feasible PRR on {self.device.name} for {prm.name} "
                f"(objective={self.objective})"
            )
        geometry = PRRGeometry(
            family=self.device.family,
            rows=int(sel.rows[index]),
            columns=ResourceVector(
                clb=int(sel.w_clb[index]),
                dsp=int(sel.w_dsp[index]),
                bram=int(sel.w_bram[index]),
            ),
        )
        region = Region(
            row=1,
            col=int(sel.start_col[index]),
            height=geometry.rows,
            width=geometry.width,
        )
        bitstream = estimate_bitstream(geometry)
        return CostModelResult(
            prm=prm,
            device_name=self.device.name,
            clb_req=clb_requirement(prm, self.device.family),
            placement=PlacedPRR(
                device=self.device, geometry=geometry, region=region
            ),
            utilization=utilization(prm, geometry),
            bitstream=bitstream,
            reconfig=estimate_reconfig_time(
                bitstream.total_bytes,
                controller_bytes_per_s=float(self.controller_bytes_per_s[index]),
            ),
        )

    def results(self) -> list[CostModelResult | None]:
        """All members materialized; ``None`` where infeasible."""
        return [
            self.result(i) if bool(self.selection.feasible[i]) else None
            for i in range(len(self))
        ]

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready columnar export (plain Python lists)."""
        sel = self.selection
        return {
            "device": self.device.name,
            "objective": self.objective,
            "n_prms": len(self),
            "n_feasible": self.n_feasible,
            "prm_names": [prm.name for prm in self.prms],
            "feasible": sel.feasible.tolist(),
            "rows": sel.rows.tolist(),
            "w_clb": sel.w_clb.tolist(),
            "w_dsp": sel.w_dsp.tolist(),
            "w_bram": sel.w_bram.tolist(),
            "width": sel.width.tolist(),
            "size": sel.size.tolist(),
            "start_col": sel.start_col.tolist(),
            "clb_req": sel.clb_req.tolist(),
            "bitstream_bytes": sel.bitstream_bytes.tolist(),
            "reconfig_seconds": self.reconfig_seconds.tolist(),
        }


def batch_evaluate(
    prms: Sequence[PRMRequirements],
    device: Device | str,
    *,
    controller_bytes_per_s: float | Sequence[float] = ICAP_VIRTEX5_BYTES_PER_S,
    objective: str = "size",
) -> BatchCostResult:
    """Run both cost models for N PRMs on one device in one array pass.

    The batch analogue of calling :func:`evaluate_prm` in a loop: the
    geometry search (Fig. 1) runs once over the whole
    ``(N, device.rows)`` candidate grid via :mod:`repro.core.batch`;
    bitstream size (eq. (18)) and reconfiguration time are computed for
    the N selected geometries (over the grid only when
    ``objective="bitstream"`` ranks by bytes).
    ``controller_bytes_per_s`` may be one rate for the batch or a
    length-N sequence (one per PRM, as the serving layer supplies).
    Per-member infeasibility never raises — see :class:`BatchCostResult`.
    """
    prms = tuple(prms)
    if not all(map(isinstance, prms, repeat(PRMRequirements))):
        for prm in prms:
            _validate_prm(prm)  # raises for the first offending member
    device = _resolve_device(device)
    if isinstance(controller_bytes_per_s, (int, float)) and not isinstance(
        controller_bytes_per_s, bool
    ):
        _validate_controller_rate(controller_bytes_per_s)
        rates = np.full(len(prms), float(controller_bytes_per_s))
    else:
        rate_list = [float(rate) for rate in controller_bytes_per_s]
        if len(rate_list) != len(prms):
            raise InvalidInput(
                f"controller_bytes_per_s must be one rate or {len(prms)} "
                f"rates, got {len(rate_list)}"
            )
        for rate in rate_list:
            _validate_controller_rate(rate)
        rates = np.asarray(rate_list, dtype=np.float64)
    pairs, dsps, brams = _batch.requirement_columns(prms)
    selection = _batch.batch_select(
        device, pairs, dsps, brams, objective=objective
    )
    # Masked members have bitstream_bytes == 0, so their time is 0.0 too.
    seconds = _batch.batch_reconfig_time(
        selection.bitstream_bytes, controller_bytes_per_s=rates
    )
    return BatchCostResult(
        prms=prms,
        device=device,
        objective=objective,
        selection=selection,
        controller_bytes_per_s=rates,
        reconfig_seconds=seconds,
    )

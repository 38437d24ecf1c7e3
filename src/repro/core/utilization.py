"""Resource utilization and internal fragmentation — eqs. (13)–(17).

"Internal fragmentation is dictated by the PRR's resource utilization
(RU).  RU is the percentage of the resources used by the PRR's associated
PRMs compared to the PRR's available resources, wherein a high RU means a
low internal fragmentation."

* eq. (13): ``RU_CLB  = CLB_req  / CLB_avail``
* eq. (14): ``RU_FF   = FF_req   / FF_avail``
* eq. (15): ``RU_LUT  = LUT_req  / LUT_avail``
* eq. (16): ``RU_DSP  = DSP_req  / DSP_avail``
* eq. (17): ``RU_BRAM = BRAM_req / BRAM_avail``

Resources the PRM does not use at all (zero requirement) report 0% — the
paper's Table V does the same (e.g. FIR's RU_BRAM = 0%).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import InvalidInput
from .params import PRMRequirements
from .prr_model import PRRGeometry, clb_requirement

__all__ = ["UtilizationReport", "utilization"]


@dataclass(frozen=True, slots=True)
class UtilizationReport:
    """Per-resource utilization of a PRR by a PRM, as fractions in [0, 1].

    ``as_percentages`` matches the paper's integer-percent presentation.
    """

    clb: float  #: RU_CLB, eq. (13)
    ff: float  #: RU_FF, eq. (14)
    lut: float  #: RU_LUT, eq. (15)
    dsp: float  #: RU_DSP, eq. (16)
    bram: float  #: RU_BRAM, eq. (17)

    def as_percentages(self) -> dict[str, int]:
        """Rounded integer percentages keyed like the paper's RU rows."""
        return {
            "RU_CLB": round(self.clb * 100),
            "RU_FF": round(self.ff * 100),
            "RU_LUT": round(self.lut * 100),
            "RU_DSP": round(self.dsp * 100),
            "RU_BRAM": round(self.bram * 100),
        }

    @property
    def internal_fragmentation(self) -> dict[str, float]:
        """1 - RU per resource: the wasted fraction of each capacity."""
        return {
            "CLB": 1.0 - self.clb,
            "FF": 1.0 - self.ff,
            "LUT": 1.0 - self.lut,
            "DSP": 1.0 - self.dsp,
            "BRAM": 1.0 - self.bram,
        }

    @property
    def worst_primary(self) -> float:
        """The highest RU among the column-granting resources (CLB/DSP/BRAM).

        Useful as a packing-density signal for routability models: "high
        RUs lead to densely packed PRRs that may eventually cause routing
        problems".
        """
        return max(self.clb, self.dsp, self.bram)


def _ratio(used: int, available: int) -> float:
    """RU ratio with the zero-requirement convention of Table V."""
    if used == 0:
        return 0.0
    if available == 0:
        raise InvalidInput(
            f"requirement {used} cannot be satisfied by zero availability"
        )
    return used / available


def utilization(
    requirements: PRMRequirements, geometry: PRRGeometry
) -> UtilizationReport:
    """Compute eqs. (13)–(17) for *requirements* placed in *geometry*."""
    avail = geometry.available
    clb_req = clb_requirement(requirements, geometry.family)
    return UtilizationReport(
        clb=_ratio(clb_req, avail.clb),
        ff=_ratio(requirements.ffs, geometry.ffs_available),
        lut=_ratio(requirements.luts, geometry.luts_available),
        dsp=_ratio(requirements.dsps, avail.dsp),
        bram=_ratio(requirements.brams, avail.bram),
    )

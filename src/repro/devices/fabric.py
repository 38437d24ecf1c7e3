"""Device fabric model: a row/column grid of typed resource columns.

Virtex-5-class devices organize the fabric as ``rows x columns`` where every
column holds one resource kind for its full height and each (row, column)
cell corresponds to one column-worth of resources in that row (e.g. 20 CLBs
for a Virtex-5 CLB column).  A PRR is a rectangle: ``H`` contiguous rows by
``W`` contiguous columns, and may only cover CLB/DSP/BRAM columns.

:class:`Device` captures a concrete device: its family, row count and
column-kind sequence.  It answers the queries the Fig. 1 search flow and the
place-and-route substrate need: column windows, per-kind counts, resource
capacities of rectangular regions, and PRR validity checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .family import DeviceFamily
from .resources import ColumnKind, ResourceVector
from .window_index import ColumnWindowIndex

__all__ = ["Device", "Region", "column_kind_counts"]


def column_kind_counts(kinds: Sequence[ColumnKind]) -> ResourceVector:
    """Count CLB/DSP/BRAM columns in a kind sequence.

    Raises :class:`ValueError` if the sequence contains a kind that cannot
    be part of a PRR (IOB/CLK).
    """
    clb = dsp = bram = 0
    for kind in kinds:
        if kind is ColumnKind.CLB:
            clb += 1
        elif kind is ColumnKind.DSP:
            dsp += 1
        elif kind is ColumnKind.BRAM:
            bram += 1
        else:
            raise ValueError(f"{kind} column cannot be part of a PRR")
    return ResourceVector(clb=clb, dsp=dsp, bram=bram)


@dataclass(frozen=True, slots=True)
class Region:
    """A rectangular fabric region: rows ``[row, row+height)`` by columns
    ``[col, col+width)``.

    Rows are numbered bottom-up from 1 as in the paper ("The search for a
    PRR starts at the bottom of the device fabric (row = 1)"); columns are
    numbered left-to-right from 1.
    """

    row: int
    col: int
    height: int
    width: int

    def __post_init__(self) -> None:
        if self.row < 1 or self.col < 1:
            raise ValueError("row and col are 1-based and must be >= 1")
        if self.height < 1 or self.width < 1:
            raise ValueError("height and width must be >= 1")

    @property
    def row_span(self) -> range:
        """1-based rows covered, bottom to top."""
        return range(self.row, self.row + self.height)

    @property
    def col_span(self) -> range:
        """1-based columns covered, left to right."""
        return range(self.col, self.col + self.width)

    @property
    def size(self) -> int:
        """PRR_size = H * W (eq. (7))."""
        return self.height * self.width

    def overlaps(self, other: "Region") -> bool:
        """True when the two rectangles share at least one cell."""
        return not (
            self.row + self.height <= other.row
            or other.row + other.height <= self.row
            or self.col + self.width <= other.col
            or other.col + other.width <= self.col
        )

    def __repr__(self) -> str:
        return (
            f"Region(row={self.row}, col={self.col}, "
            f"height={self.height}, width={self.width})"
        )


@dataclass(frozen=True)
class Device:
    """A concrete FPGA device: family constants + fabric layout.

    Parameters
    ----------
    name:
        Device part name, e.g. ``"xc5vlx110t"``.
    family:
        The :class:`~repro.devices.family.DeviceFamily` constants.
    rows:
        Number of fabric rows (``R`` in the paper; clock regions stacked
        vertically — the LX110T has 8, the LX75T has 3).
    columns:
        Left-to-right sequence of column kinds.  The layout is uniform
        across rows, matching Virtex-class devices where a column keeps its
        kind for the full device height.
    """

    name: str
    family: DeviceFamily
    rows: int
    columns: tuple[ColumnKind, ...]
    description: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.rows < 1:
            raise ValueError("device must have at least one row")
        if not self.columns:
            raise ValueError("device must have at least one column")
        object.__setattr__(self, "columns", tuple(self.columns))

    # -- basic geometry -----------------------------------------------------

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    def column_kind(self, col: int) -> ColumnKind:
        """Kind of 1-based column *col*."""
        if not 1 <= col <= self.num_columns:
            raise IndexError(f"column {col} out of range 1..{self.num_columns}")
        return self.columns[col - 1]

    def columns_of_kind(self, kind: ColumnKind) -> tuple[int, ...]:
        """1-based indices of all columns of *kind*."""
        return tuple(
            index + 1 for index, k in enumerate(self.columns) if k is kind
        )

    def count_columns(self, kind: ColumnKind) -> int:
        return sum(1 for k in self.columns if k is kind)

    @property
    def dsp_column_count(self) -> int:
        """Number of DSP columns in the fabric.

        Drives the eq. (3) vs eq. (4) choice: "some Xilinx devices include
        only one DSP column in the fabric, which sets W_DSP = 1".
        """
        return self.count_columns(ColumnKind.DSP)

    @property
    def has_single_dsp_column(self) -> bool:
        return self.dsp_column_count == 1

    # -- capacities -----------------------------------------------------------

    @property
    def total_resources(self) -> ResourceVector:
        """Device-wide CLB/DSP/BRAM counts."""
        fam = self.family
        return ResourceVector(
            clb=self.count_columns(ColumnKind.CLB) * fam.clb_per_col * self.rows,
            dsp=self.count_columns(ColumnKind.DSP) * fam.dsp_per_col * self.rows,
            bram=self.count_columns(ColumnKind.BRAM) * fam.bram_per_col * self.rows,
        )

    @property
    def total_luts(self) -> int:
        return self.family.luts_in_clbs(self.total_resources.clb)

    @property
    def total_ffs(self) -> int:
        return self.family.ffs_in_clbs(self.total_resources.clb)

    def region_column_kinds(self, region: Region) -> tuple[ColumnKind, ...]:
        """Kinds of the columns covered by *region* (left to right)."""
        self._check_region_bounds(region)
        return self.columns[region.col - 1 : region.col - 1 + region.width]

    def region_column_counts(self, region: Region) -> ResourceVector:
        """(W_CLB, W_DSP, W_BRAM) of a region.

        Raises :class:`ValueError` if the region covers an IOB or CLK
        column, which disqualifies it as a PRR.
        """
        return column_kind_counts(self.region_column_kinds(region))

    def region_resources(self, region: Region) -> ResourceVector:
        """Eqs. (8), (11), (12): resources available in a region."""
        counts = self.region_column_counts(region)
        fam = self.family
        return ResourceVector(
            clb=region.height * counts.clb * fam.clb_per_col,
            dsp=region.height * counts.dsp * fam.dsp_per_col,
            bram=region.height * counts.bram * fam.bram_per_col,
        )

    # -- PRR validity -----------------------------------------------------------

    def is_valid_prr(self, region: Region) -> bool:
        """True when *region* is in bounds and covers no IOB/CLK column."""
        try:
            self._check_region_bounds(region)
        except ValueError:
            return False
        return all(
            kind.reconfigurable for kind in self.region_column_kinds(region)
        )

    def _check_region_bounds(self, region: Region) -> None:
        if region.row + region.height - 1 > self.rows:
            raise ValueError(
                f"region rows {region.row}..{region.row + region.height - 1} "
                f"exceed device rows 1..{self.rows}"
            )
        if region.col + region.width - 1 > self.num_columns:
            raise ValueError(
                f"region columns {region.col}..{region.col + region.width - 1} "
                f"exceed device columns 1..{self.num_columns}"
            )

    # -- window scanning (Fig. 1 support) -----------------------------------

    def iter_windows(self, width: int) -> Iterator[tuple[int, tuple[ColumnKind, ...]]]:
        """Yield ``(start_col, kinds)`` for every width-*width* column window.

        Windows containing IOB/CLK columns are still yielded (the caller
        filters); scanning is left-to-right as in the Fig. 1 flow.
        """
        if width < 1:
            raise ValueError("width must be >= 1")
        for start in range(1, self.num_columns - width + 2):
            yield start, self.columns[start - 1 : start - 1 + width]

    @property
    def window_index(self) -> ColumnWindowIndex:
        """Lazily built prefix-sum index over the column layout.

        The layout is immutable, so the index is computed once per device
        and cached on the instance; every fast-path fabric query goes
        through it.
        """
        index = self.__dict__.get("_window_index")
        if index is None:
            index = ColumnWindowIndex(self.columns)
            object.__setattr__(self, "_window_index", index)
        return index

    def feasible_window_starts(self, requirement: ResourceVector) -> tuple[int, ...]:
        """All 1-based start columns whose window matches *requirement*.

        Column windows are row-independent (a column keeps its kind for
        the full device height), so one lookup serves every fabric row.
        """
        return self.window_index.feasible_starts(requirement)

    def find_column_window(
        self, requirement: ResourceVector, *, start_col: int = 1
    ) -> int | None:
        """Find the left-most window matching a column-count requirement.

        The window width is ``requirement.total`` (eq. (6)), and its column
        multiset must equal the requirement exactly ("distributing the CLB,
        DSP, and BRAM columns in any order") with no IOB/CLK columns.
        Returns the 1-based start column, or ``None``.

        Served by :attr:`window_index` — O(log n) after the first query
        for a given mix.
        """
        if requirement.total == 0:
            raise ValueError("requirement must include at least one column")
        return self.window_index.find(requirement, start_col)

    # -- summary ------------------------------------------------------------

    def layout_string(self) -> str:
        """Compact one-character-per-column layout (C/D/B/I/K)."""
        letters = {
            ColumnKind.CLB: "C",
            ColumnKind.DSP: "D",
            ColumnKind.BRAM: "B",
            ColumnKind.IOB: "I",
            ColumnKind.CLK: "K",
        }
        return "".join(letters[kind] for kind in self.columns)

    def summary(self) -> str:
        """Human-readable capacity summary."""
        total = self.total_resources
        return (
            f"{self.name} ({self.family.name}): {self.rows} rows x "
            f"{self.num_columns} columns | CLBs={total.clb} "
            f"(LUTs={self.total_luts}, FFs={self.total_ffs}), "
            f"DSPs={total.dsp}, BRAMs={total.bram}"
        )

    def __repr__(self) -> str:
        return f"Device(name={self.name!r}, rows={self.rows}, cols={self.num_columns})"

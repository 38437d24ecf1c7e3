"""Vectorized batch cost-model core: numpy columnar evaluation.

The scalar models in :mod:`~repro.core.prr_model`,
:mod:`~repro.core.bitstream_model` and :mod:`~repro.core.reconfig_model`
answer one (PRM, geometry, device) question per call.  Every layer above
them — the Fig. 1 search, the explorer's partition enumeration, the
serving tier — pays that per-call Python cost once per candidate.  This
module evaluates *batches* instead, treating the PRM requirement vectors
and the candidate-H grid as numpy columns (the way bitstream tooling
treats whole bitstreams as frame arrays):

* :class:`DeviceColumns` — a struct-of-arrays view of one device: the
  per-kind column prefix sums already computed by
  :class:`~repro.devices.window_index.ColumnWindowIndex`, lifted into
  ``np.ndarray`` form, the exact-mix window table derived from them,
  and every family constant the models read.  Built once per device and
  cached on the instance.
* :func:`batch_prr_geometry` — eqs. (1)–(7) broadcast over an
  ``(N_prm, H)`` grid with a feasibility mask (the eq. (4)
  single-DSP-column rule, zero-width geometries).
* :func:`batch_window_placement` — the Fig. 1 window question ("does a
  contiguous column window with exactly this mix exist, and where is the
  left-most one?") answered for every grid cell at once by one lookup
  in the device's exact-mix window table.
* :func:`batch_bitstream_bytes` — eqs. (18)–(23) as array ops.
* :func:`batch_reconfig_time` — bytes → seconds, broadcasting over
  per-request controller/media throughputs.
* :func:`batch_select` — the full Fig. 1 selection (best feasible
  ``(size, H)`` — or ``(bytes, H)`` — candidate per PRM) in one pass,
  the array path behind :func:`~repro.core.api.batch_evaluate`.

Equivalence contract: on an empty fabric every function here is
bit-for-bit equal to its scalar counterpart (asserted by the
differential suites in ``tests/differential/test_batch_vs_scalar.py``).
Infeasible inputs are *masked*, not raised — a 10k-PRM batch with three
impossible members still returns 9 997 answers.

Placement itself — single groups and occupied fabrics — runs on the
scalar :func:`~repro.core.placement_search.find_prr`; this module only
scores N PRMs at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

import numpy as np

from ..devices.fabric import Device
from ..errors import InvalidInput
from ..obs import trace as _obs
from .params import PRMRequirements

__all__ = [
    "DeviceColumns",
    "device_columns",
    "GeometryGrid",
    "requirement_columns",
    "batch_prr_geometry",
    "batch_window_placement",
    "batch_bitstream_bytes",
    "batch_reconfig_time",
    "BatchSelection",
    "batch_select",
    "BATCH_SIZE_BUCKETS",
]

#: Fixed histogram boundaries for batch-size observations (PRMs per call).
BATCH_SIZE_BUCKETS: tuple[float, ...] = (1.0, 8.0, 64.0, 512.0, 4096.0, 32768.0)


def _record_batch_metrics(n_prms: int, n_cells: int, infeasible: int) -> None:
    """Publish one batch call's vectorization statistics (no-op when off).

    ``batch.vectorization_ratio`` is the running average of PRMs
    evaluated per Python-level engine call — the factor by which array
    ops replaced scalar calls in this capture.
    """
    registry = _obs.metrics()
    if registry is None:
        return
    calls = registry.counter("batch.calls")
    prms = registry.counter("batch.prms_evaluated")
    calls.inc()
    prms.inc(n_prms)
    registry.counter("batch.cells_evaluated").inc(n_cells)
    registry.counter("batch.infeasible_prms").inc(infeasible)
    registry.histogram("batch.size", BATCH_SIZE_BUCKETS).observe(n_prms)
    if calls.value:
        registry.gauge("batch.vectorization_ratio").set(
            prms.value / calls.value
        )


# -- device columns ----------------------------------------------------------


@dataclass(frozen=True)
class DeviceColumns:
    """Struct-of-arrays view of one device for columnar evaluation.

    The four prefix-sum arrays have length ``num_columns + 1``;
    ``clb[i]`` counts CLB columns among the first ``i`` fabric columns
    (likewise ``dsp``/``bram``, and ``blocked`` for IOB/CLK columns).
    They are the exact sequences the scalar
    :class:`~repro.devices.window_index.ColumnWindowIndex` computed, so
    batch and scalar answers can never disagree about the fabric.

    ``window_first[c, d, b]`` answers the Fig. 1 window question for one
    column mix: the 1-based left-most start of a contiguous window of
    exactly ``c`` CLB, ``d`` DSP and ``b`` BRAM columns and no IOB/CLK
    column, or 0 when no such window exists.  Each axis runs one past
    the device's count of that kind; that last slice is all zero, so a
    mix clipped to it reads "no window".
    """

    device_name: str
    rows: int
    num_columns: int
    single_dsp_column: bool
    clb_prefix: "np.ndarray"
    dsp_prefix: "np.ndarray"
    bram_prefix: "np.ndarray"
    blocked_prefix: "np.ndarray"
    window_first: "np.ndarray"
    # -- family constants (Tables II and IV) ---------------------------
    clb_per_col: int
    dsp_per_col: int
    bram_per_col: int
    luts_per_clb: int
    cf_clb: int
    cf_dsp: int
    cf_bram: int
    df_bram: int
    frame_words: int
    initial_words: int
    final_words: int
    far_fdri_words: int
    bytes_per_word: int

    @classmethod
    def from_device(cls, device: Device) -> "DeviceColumns":
        """Lift a device's window-index prefix sums into numpy columns."""
        prefixes = {
            kind: np.asarray(sums, dtype=np.int64)
            for kind, sums in device.window_index.prefix_sums().items()
        }
        family = device.family
        return cls(
            device_name=device.name,
            rows=device.rows,
            num_columns=device.num_columns,
            single_dsp_column=device.has_single_dsp_column,
            clb_prefix=prefixes["clb"],
            dsp_prefix=prefixes["dsp"],
            bram_prefix=prefixes["bram"],
            blocked_prefix=prefixes["blocked"],
            window_first=_window_table(**prefixes),
            clb_per_col=family.clb_per_col,
            dsp_per_col=family.dsp_per_col,
            bram_per_col=family.bram_per_col,
            luts_per_clb=family.luts_per_clb,
            cf_clb=family.cf_clb,
            cf_dsp=family.cf_dsp,
            cf_bram=family.cf_bram,
            df_bram=family.df_bram,
            frame_words=family.frame_words,
            initial_words=family.initial_words,
            final_words=family.final_words,
            far_fdri_words=family.far_fdri_words,
            bytes_per_word=family.bytes_per_word,
        )


def _window_table(clb, dsp, bram, blocked) -> "np.ndarray":
    """The exact-mix window table of :class:`DeviceColumns` (``window_first``).

    Every window ``[lo, hi)`` free of IOB/CLK columns is counted from the
    prefix sums in one pass — O(columns²) pairs, listed in ``lo`` order,
    so the first pair seen for a mix holds its left-most start.
    """
    shape = (int(clb[-1]) + 2, int(dsp[-1]) + 2, int(bram[-1]) + 2)
    table = np.zeros(shape, dtype=np.int64)
    lo, hi = np.triu_indices(len(clb), k=1)  # all 0 <= lo < hi <= n
    clear = blocked[hi] == blocked[lo]
    lo, hi = lo[clear], hi[clear]
    mix = np.ravel_multi_index(
        (clb[hi] - clb[lo], dsp[hi] - dsp[lo], bram[hi] - bram[lo]), shape
    )
    mixes, first_pair = np.unique(mix, return_index=True)
    table.flat[mixes] = lo[first_pair] + 1
    return table


def _window_starts(cols: DeviceColumns, w_clb, w_dsp, w_bram) -> "np.ndarray":
    """``window_first`` read at every cell of non-negative ``w_*`` arrays.

    A component above the device's count of its kind is clipped onto the
    table's all-zero last slice, so one flat index answers every cell.
    """
    table = cols.window_first
    c_out, d_out, b_out = (size - 1 for size in table.shape)
    index = np.minimum(w_clb, c_out)
    index *= d_out + 1
    index += np.minimum(w_dsp, d_out)
    index *= b_out + 1
    index += np.minimum(w_bram, b_out)
    return table.take(index)


def device_columns(device: Device) -> DeviceColumns:
    """The cached :class:`DeviceColumns` of *device* (built once).

    Like :attr:`~repro.devices.fabric.Device.window_index`, the columnar
    view derives purely from the immutable layout and family constants,
    so it is computed on first use and stored on the instance.
    """
    cached = device.__dict__.get("_device_columns")
    if cached is None:
        cached = DeviceColumns.from_device(device)
        object.__setattr__(device, "_device_columns", cached)
    return cached


# -- geometry grid (eqs. (1)-(7)) --------------------------------------------


@dataclass(frozen=True)
class GeometryGrid:
    """Eqs. (1)–(7) evaluated on an ``(N_prm, H)`` grid.

    Row ``i``, column ``j`` describes PRM ``i`` at ``H = j + 1``.
    ``feasible`` is the *geometry-level* mask: ``False`` where the
    eq. (4) single-DSP-column rule rejects the H, or where the merged
    column count is zero (a PRR needs at least one column).  Whether a
    contiguous fabric window exists is a separate question answered by
    :func:`batch_window_placement`.

    The ``(N, R)`` arrays are transposed views of H-major ``(R, N)``
    arrays: each H row then divides the whole batch by one scalar, which
    numpy does several times faster than a per-cell divisor.
    """

    device_name: str
    heights: "np.ndarray"  #: (R,) the H axis, 1..R
    clb_req: "np.ndarray"  #: (N,) eq. (1)
    feasible: "np.ndarray"  #: (N, R) bool
    w_clb: "np.ndarray"  #: (N, R)
    w_dsp: "np.ndarray"  #: (N, R)
    w_bram: "np.ndarray"  #: (N, R)
    width: "np.ndarray"  #: (N, R) eq. (6)
    size: "np.ndarray"  #: (N, R) eq. (7)

    @property
    def n_prms(self) -> int:
        return self.w_clb.shape[0]

    @property
    def n_heights(self) -> int:
        return self.w_clb.shape[1]


def _ceil_div(numerator, denominator):
    """Elementwise ``ceil(a / b)`` for non-negative integer arrays."""
    quotient = np.floor_divide(-numerator, denominator)
    return np.negative(quotient, out=quotient)


def requirement_columns(
    prms: Sequence[PRMRequirements],
) -> tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """Columnarize the three geometry-relevant requirement scalars.

    Returns ``(lut_ff_pairs, dsps, brams)`` as int64 arrays — the input
    shape :func:`batch_prr_geometry` and :func:`batch_select` take.
    """
    pairs, dsps, brams = (
        np.fromiter(map(attrgetter(field), prms), dtype=np.int64, count=len(prms))
        for field in ("lut_ff_pairs", "dsps", "brams")
    )
    return pairs, dsps, brams


def batch_prr_geometry(
    device: Device | DeviceColumns,
    lut_ff_pairs,
    dsps,
    brams,
) -> GeometryGrid:
    """Vectorized eqs. (1)–(7) over every (PRM, H) pair.

    ``lut_ff_pairs``/``dsps``/``brams`` are length-N integer arrays (or
    sequences).  Returns the full ``(N, device.rows)`` candidate grid —
    the batch analogue of one
    :func:`~repro.core.prr_model.group_columns` call per PRM.
    """
    cols = device if isinstance(device, DeviceColumns) else device_columns(device)
    pairs = np.asarray(lut_ff_pairs, dtype=np.int64)
    dsp_req = np.asarray(dsps, dtype=np.int64)
    bram_req = np.asarray(brams, dtype=np.int64)
    if not (pairs.shape == dsp_req.shape == bram_req.shape) or pairs.ndim != 1:
        raise InvalidInput(
            "lut_ff_pairs, dsps and brams must be 1-D arrays of equal length"
        )
    if pairs.size and (
        int(pairs.min()) < 0 or int(dsp_req.min()) < 0 or int(bram_req.min()) < 0
    ):
        raise InvalidInput("requirement scalars must be non-negative")

    heights = np.arange(1, cols.rows + 1, dtype=np.int64)  # (R,)
    h = heights[:, None]  # H-major: one row per H, one column per PRM
    clb_req = _ceil_div(pairs, cols.luts_per_clb)  # (N,) eq. (1)

    # Eq. (2): W_CLB = ceil(CLB_req / (H * CLB_col)); ceil(0/x) = 0.
    w_clb = _ceil_div(clb_req, h * cols.clb_per_col)
    # Eq. (5).
    w_bram = _ceil_div(bram_req, h * cols.bram_per_col)

    # Each W is >= 1 exactly when its requirement is > 0, so the "at
    # least one column" rule is per PRM, not per cell.
    any_column = (clb_req > 0) | (dsp_req > 0) | (bram_req > 0)  # (N,)
    if cols.single_dsp_column:
        # Eq. (4): W_DSP = 1 and the lone column's height must cover the
        # demand — H >= ceil(DSP_req / DSP_col) or the cell is infeasible.
        w_dsp = np.repeat((dsp_req > 0).astype(np.int64)[None, :], cols.rows, 0)
        h_dsp = _ceil_div(dsp_req, cols.dsp_per_col)  # (N,), 0 without DSPs
        feasible = (h_dsp <= h) & any_column
    else:
        # Eq. (3).
        w_dsp = _ceil_div(dsp_req, h * cols.dsp_per_col)
        feasible = np.repeat(any_column[None, :], cols.rows, 0)

    width = w_clb + w_dsp  # eq. (6)
    width += w_bram
    size = width * h  # eq. (7)
    return GeometryGrid(
        device_name=cols.device_name,
        heights=heights,
        clb_req=clb_req,
        feasible=feasible.T,
        w_clb=w_clb.T,
        w_dsp=w_dsp.T,
        w_bram=w_bram.T,
        width=width.T,
        size=size.T,
    )


# -- contiguous window placement ---------------------------------------------


def batch_window_placement(
    device: Device | DeviceColumns,
    w_clb,
    w_dsp,
    w_bram,
    mask=None,
) -> tuple["np.ndarray", "np.ndarray"]:
    """Left-most contiguous window per column mix, for a whole grid.

    For every cell of the ``w_*`` arrays (any common shape), answers the
    Fig. 1 window question on an empty fabric: is there a start column
    whose ``width``-wide window holds exactly this (CLB, DSP, BRAM) mix
    and no IOB/CLK column?  Returns ``(has_window, first_col)`` — bool
    and 1-based int arrays of the same shape (``first_col`` is 0 where
    no window exists).

    The answer depends on the mix alone, so each cell is one read of the
    device's exact-mix window table (:attr:`DeviceColumns.window_first`,
    built once per device) — no per-call scan of window starts.  Cells
    outside ``mask`` report no window.
    """
    cols = device if isinstance(device, DeviceColumns) else device_columns(device)
    mix = [np.asarray(w, dtype=np.int64) for w in (w_clb, w_dsp, w_bram)]
    if any(w.size and int(w.min()) < 0 for w in mix):
        raise InvalidInput("column counts must be non-negative")
    first = _window_starts(cols, *mix)
    if mask is not None:
        first = np.where(mask, first, 0)
    return first > 0, first


# -- bitstream + reconfiguration (eqs. (18)-(23)) ----------------------------


def batch_bitstream_bytes(
    device: Device | DeviceColumns,
    rows,
    w_clb,
    w_dsp,
    w_bram,
) -> "np.ndarray":
    """Vectorized eqs. (18)–(23): S_bitstream for every grid cell.

    Mirrors :func:`~repro.core.bitstream_model.estimate_bitstream` —
    including the pipeline-flush ``+ 1`` frames and the no-BRAM special
    case of eq. (23) — as five array expressions.
    """
    cols = device if isinstance(device, DeviceColumns) else device_columns(device)
    rows = np.asarray(rows, dtype=np.int64)
    w_clb = np.asarray(w_clb, dtype=np.int64)
    w_dsp = np.asarray(w_dsp, dtype=np.int64)
    w_bram = np.asarray(w_bram, dtype=np.int64)
    # Eqs. (20)-(22) then (19).
    frames = w_clb * cols.cf_clb + w_dsp * cols.cf_dsp + w_bram * cols.cf_bram
    ncw_row = cols.far_fdri_words + (frames + 1) * cols.frame_words
    # Eq. (23); NDW_BRAM = 0 when the PRR has no BRAM columns.
    ndw_bram = np.where(
        w_bram > 0,
        cols.far_fdri_words + (w_bram * cols.df_bram + 1) * cols.frame_words,
        np.int64(0),
    )
    # Eq. (18).
    total_words = (
        cols.initial_words + rows * (ncw_row + ndw_bram) + cols.final_words
    )
    return total_words * cols.bytes_per_word


def batch_reconfig_time(
    bitstream_bytes,
    *,
    controller_bytes_per_s=None,
    media_bytes_per_s=None,
    busy_factor: float = 0.0,
) -> "np.ndarray":
    """Vectorized bytes → seconds, broadcasting over throughputs.

    Mirrors :func:`~repro.core.reconfig_model.estimate_reconfig_time`;
    ``controller_bytes_per_s`` and ``media_bytes_per_s`` may be scalars
    or per-element arrays (a serving batch can carry one rate per
    request).
    """
    from .reconfig_model import ICAP_VIRTEX5_BYTES_PER_S

    sizes = np.asarray(bitstream_bytes, dtype=np.float64)
    if sizes.size and float(sizes.min()) < 0:
        raise InvalidInput("bitstream_bytes must be non-negative")
    if controller_bytes_per_s is None:
        controller_bytes_per_s = ICAP_VIRTEX5_BYTES_PER_S
    controller = np.asarray(controller_bytes_per_s, dtype=np.float64)
    if controller.size and float(controller.min()) <= 0:
        raise InvalidInput("controller throughput must be positive")
    if not 0.0 <= busy_factor < 1.0:
        raise InvalidInput("busy_factor must be in [0, 1)")
    bottleneck = controller * (1.0 - busy_factor)
    if media_bytes_per_s is not None:
        media = np.asarray(media_bytes_per_s, dtype=np.float64)
        if media.size and float(media.min()) <= 0:
            raise InvalidInput("media throughput must be positive")
        bottleneck = np.minimum(bottleneck, media)
    return sizes / bottleneck


# -- selection (the Fig. 1 flow, batched) ------------------------------------


@dataclass(frozen=True)
class BatchSelection:
    """Per-PRM Fig. 1 winners, columnar.

    All arrays have length N (the batch size).  Where ``feasible`` is
    ``False`` — no H produced both a valid geometry and a contiguous
    window — the other columns hold zeros rather than raising, so one
    impossible PRM never poisons a batch.
    """

    device_name: str
    objective: str
    clb_req: "np.ndarray"  #: (N,) eq. (1)
    feasible: "np.ndarray"  #: (N,) bool
    rows: "np.ndarray"  #: (N,) selected H
    w_clb: "np.ndarray"
    w_dsp: "np.ndarray"
    w_bram: "np.ndarray"
    width: "np.ndarray"
    size: "np.ndarray"
    start_col: "np.ndarray"  #: (N,) 1-based left-most feasible column
    bitstream_bytes: "np.ndarray"  #: (N,) eq. (18)

    def __len__(self) -> int:
        return int(self.feasible.shape[0])

    @property
    def n_feasible(self) -> int:
        return int(self.feasible.sum())


_OBJECTIVES = ("size", "bitstream")


def batch_select(
    device: Device,
    lut_ff_pairs,
    dsps,
    brams,
    *,
    objective: str = "size",
) -> BatchSelection:
    """Run the whole Fig. 1 flow for N PRMs in one array pass.

    Per PRM: evaluate every H (geometry grid), mask H values without a
    contiguous window, then pick the candidate minimizing
    ``(PRR_size, H)`` (objective ``"size"``, the default) or
    ``(S_bitstream, H)`` (objective ``"bitstream"``) — the same
    lexicographic key :func:`~repro.core.placement_search.find_prr`
    applies on an empty fabric, where the bottom-most row is always 1
    and the left-most start column is unique per H.  Eq. (18) bytes are
    computed for the whole grid only when they are the objective;
    otherwise for the N picked cells alone.
    """
    if objective not in _OBJECTIVES:
        raise InvalidInput(
            f"unknown objective {objective!r}; valid: {', '.join(_OBJECTIVES)}"
        )
    cols = device_columns(device)
    grid = batch_prr_geometry(cols, lut_ff_pairs, dsps, brams)
    # The grid's H-major (R, N) arrays: transposing the views back is free.
    w_clb, w_dsp, w_bram = grid.w_clb.T, grid.w_dsp.T, grid.w_bram.T
    first_col = _window_starts(cols, w_clb, w_dsp, w_bram)
    candidate = grid.feasible.T & (first_col > 0)
    if objective == "size":
        primary = grid.size.T
    else:
        primary = batch_bitstream_bytes(
            cols, grid.heights[:, None], w_clb, w_dsp, w_bram
        )

    # Lexicographic (primary, H) argmin: H strictly increases along the
    # axis, so masking losers to +inf and taking the *first* minimum
    # breaks primary ties toward the smaller H, exactly like the scalar
    # search (row is always 1 and the column is unique per H on an empty
    # fabric, so the remaining scalar tie-breaks never fire).
    big = np.iinfo(np.int64).max
    pick = np.where(candidate, primary, big).argmin(axis=0)  # (N,)
    feasible = candidate.any(axis=0)
    cell = pick * grid.n_prms + np.arange(grid.n_prms)  # flat (R, N) index

    def take(grid_array):
        return np.where(feasible, grid_array.take(cell), 0)

    rows = np.where(feasible, pick + 1, 0)  # heights[pick]
    picked_clb, picked_dsp, picked_bram = take(w_clb), take(w_dsp), take(w_bram)
    width = picked_clb + picked_dsp + picked_bram
    if objective == "size":
        picked_bytes = np.where(
            feasible,
            batch_bitstream_bytes(cols, rows, picked_clb, picked_dsp, picked_bram),
            0,
        )
    else:
        picked_bytes = take(primary)
    selection = BatchSelection(
        device_name=device.name,
        objective=objective,
        clb_req=grid.clb_req,
        feasible=feasible,
        rows=rows,
        w_clb=picked_clb,
        w_dsp=picked_dsp,
        w_bram=picked_bram,
        width=width,
        size=rows * width,
        start_col=take(first_col),
        bitstream_bytes=picked_bytes,
    )
    if _obs.enabled:
        _record_batch_metrics(
            n_prms=len(selection),
            n_cells=grid.n_prms * grid.n_heights,
            infeasible=len(selection) - selection.n_feasible,
        )
    return selection


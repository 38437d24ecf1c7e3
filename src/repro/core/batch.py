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
  ``np.ndarray`` form, plus every family constant the models read.
  Built once per device and cached on the instance.
* :func:`batch_prr_geometry` — eqs. (1)–(7) broadcast over an
  ``(N_prm, H)`` grid with a feasibility mask (the eq. (4)
  single-DSP-column rule, zero-width geometries).
* :func:`batch_window_placement` — the Fig. 1 window question ("does a
  contiguous column window with exactly this mix exist, and where is the
  left-most one?") answered for every grid cell at once from the prefix
  sums, deduplicated by distinct column mix.
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
    """

    device_name: str
    rows: int
    num_columns: int
    single_dsp_column: bool
    clb_prefix: "np.ndarray"
    dsp_prefix: "np.ndarray"
    bram_prefix: "np.ndarray"
    blocked_prefix: "np.ndarray"
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
        prefixes = device.window_index.prefix_sums()
        family = device.family
        return cls(
            device_name=device.name,
            rows=device.rows,
            num_columns=device.num_columns,
            single_dsp_column=device.has_single_dsp_column,
            clb_prefix=np.asarray(prefixes["clb"], dtype=np.int64),
            dsp_prefix=np.asarray(prefixes["dsp"], dtype=np.int64),
            bram_prefix=np.asarray(prefixes["bram"], dtype=np.int64),
            blocked_prefix=np.asarray(prefixes["blocked"], dtype=np.int64),
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
    return -(-numerator // denominator)


def requirement_columns(
    prms: Sequence[PRMRequirements],
) -> tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """Columnarize the three geometry-relevant requirement scalars.

    Returns ``(lut_ff_pairs, dsps, brams)`` as int64 arrays — the input
    shape :func:`batch_prr_geometry` and :func:`batch_select` take.
    """
    pairs = np.fromiter(
        (p.lut_ff_pairs for p in prms), dtype=np.int64, count=len(prms)
    )
    dsps = np.fromiter((p.dsps for p in prms), dtype=np.int64, count=len(prms))
    brams = np.fromiter((p.brams for p in prms), dtype=np.int64, count=len(prms))
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
    the batch analogue of calling
    :func:`~repro.core.prr_model.prr_geometry_for_rows` in the Fig. 1
    H-loop for each PRM.
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
    clb_req = _ceil_div(pairs, cols.luts_per_clb)  # (N,) eq. (1)

    # Eq. (2): W_CLB = ceil(CLB_req / (H * CLB_col)); ceil(0/x) = 0.
    w_clb = _ceil_div(clb_req[:, None], heights[None, :] * cols.clb_per_col)
    # Eq. (5).
    w_bram = _ceil_div(bram_req[:, None], heights[None, :] * cols.bram_per_col)

    has_dsp = dsp_req[:, None] > 0
    if cols.single_dsp_column:
        # Eq. (4): W_DSP = 1 and the lone column's height must cover the
        # demand — H >= ceil(DSP_req / DSP_col) or the cell is infeasible.
        h_dsp = _ceil_div(dsp_req, cols.dsp_per_col)  # (N,)
        w_dsp = np.where(has_dsp, np.int64(1), np.int64(0)) * np.ones_like(
            w_clb
        )
        feasible = ~(has_dsp & (h_dsp[:, None] > heights[None, :]))
    else:
        # Eq. (3).
        w_dsp = _ceil_div(dsp_req[:, None], heights[None, :] * cols.dsp_per_col)
        feasible = np.ones_like(w_clb, dtype=bool)

    width = w_clb + w_dsp + w_bram  # eq. (6)
    feasible = feasible & (width >= 1)  # a PRR needs at least one column
    size = heights[None, :] * width  # eq. (7)
    return GeometryGrid(
        device_name=cols.device_name,
        heights=heights,
        clb_req=clb_req,
        feasible=feasible,
        w_clb=w_clb,
        w_dsp=w_dsp,
        w_bram=w_bram,
        width=width,
        size=size,
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

    Distinct mixes are deduplicated first (a 10k-PRM grid typically
    contains only tens of distinct mixes), then all (mix, start) pairs
    are checked in one prefix-sum subtraction per kind — no per-start
    Python loop.  ``mask`` limits the work to cells that are
    geometry-feasible.
    """
    cols = device if isinstance(device, DeviceColumns) else device_columns(device)
    w_clb = np.asarray(w_clb, dtype=np.int64)
    w_dsp = np.asarray(w_dsp, dtype=np.int64)
    w_bram = np.asarray(w_bram, dtype=np.int64)
    width = w_clb + w_dsp + w_bram
    n = cols.num_columns
    has = np.zeros(width.shape, dtype=bool)
    first = np.zeros(width.shape, dtype=np.int64)
    live = (width >= 1) & (width <= n)
    if mask is not None:
        live = live & np.asarray(mask, dtype=bool)
    if not live.any():
        return has, first

    # Encode each live mix as one integer; components are <= width <= n.
    base = np.int64(n + 1)
    keys = (w_clb[live] * base + w_dsp[live]) * base + w_bram[live]
    uniq, inverse = np.unique(keys, return_inverse=True)
    u_bram = uniq % base
    u_dsp = (uniq // base) % base
    u_clb = uniq // (base * base)
    u_width = u_clb + u_dsp + u_bram  # (U,)

    lo = np.arange(n, dtype=np.int64)  # (n,) 0-based window starts
    hi = lo[None, :] + u_width[:, None]  # (U, n) exclusive ends
    in_bounds = hi <= n
    hi = np.minimum(hi, n)
    ok = (
        in_bounds
        & (cols.blocked_prefix[hi] - cols.blocked_prefix[lo[None, :]] == 0)
        & (cols.clb_prefix[hi] - cols.clb_prefix[lo[None, :]] == u_clb[:, None])
        & (cols.dsp_prefix[hi] - cols.dsp_prefix[lo[None, :]] == u_dsp[:, None])
        & (
            cols.bram_prefix[hi] - cols.bram_prefix[lo[None, :]]
            == u_bram[:, None]
        )
    )
    u_has = ok.any(axis=1)
    u_first = np.where(u_has, ok.argmax(axis=1) + 1, 0)  # 1-based
    has[live] = u_has[inverse]
    first[live] = u_first[inverse]
    return has, first


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
    contiguous window, compute eq. (18) bytes, then pick the candidate
    minimizing ``(PRR_size, H)`` (objective ``"size"``, the default) or
    ``(S_bitstream, H)`` (objective ``"bitstream"``) — the same
    lexicographic key :func:`~repro.core.placement_search.find_prr`
    applies on an empty fabric, where the bottom-most row is always 1
    and the left-most start column is unique per H.
    """
    if objective not in _OBJECTIVES:
        raise InvalidInput(
            f"unknown objective {objective!r}; valid: {', '.join(_OBJECTIVES)}"
        )
    cols = device_columns(device)
    grid = batch_prr_geometry(cols, lut_ff_pairs, dsps, brams)
    has_window, first_col = batch_window_placement(
        cols, grid.w_clb, grid.w_dsp, grid.w_bram, mask=grid.feasible
    )
    candidate = grid.feasible & has_window  # (N, R)
    bytes_grid = batch_bitstream_bytes(
        cols, grid.heights[None, :], grid.w_clb, grid.w_dsp, grid.w_bram
    )

    primary = grid.size if objective == "size" else bytes_grid
    # Lexicographic (primary, H) argmin: H strictly increases along the
    # axis, so masking losers to +inf and taking the *first* minimum
    # breaks primary ties toward the smaller H, exactly like the scalar
    # search (row is always 1 and the column is unique per H on an empty
    # fabric, so the remaining scalar tie-breaks never fire).
    big = np.iinfo(np.int64).max
    masked = np.where(candidate, primary, big)
    pick = masked.argmin(axis=1)  # (N,)
    feasible = candidate.any(axis=1)

    def take(grid_array):
        taken = np.take_along_axis(grid_array, pick[:, None], axis=1)[:, 0]
        return np.where(feasible, taken, 0)

    selection = BatchSelection(
        device_name=device.name,
        objective=objective,
        clb_req=grid.clb_req,
        feasible=feasible,
        rows=np.where(feasible, grid.heights[pick], 0),
        w_clb=take(grid.w_clb),
        w_dsp=take(grid.w_dsp),
        w_bram=take(grid.w_bram),
        width=take(grid.width),
        size=take(grid.size),
        start_col=take(first_col),
        bitstream_bytes=take(bytes_grid),
    )
    if _obs.enabled:
        _record_batch_metrics(
            n_prms=len(selection),
            n_cells=grid.n_prms * grid.n_heights,
            infeasible=len(selection) - selection.n_feasible,
        )
    return selection


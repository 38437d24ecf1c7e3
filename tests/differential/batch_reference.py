"""Test-only reference for the batch engine's window placement and pick.

The per-call scan :mod:`repro.core.batch` used before the exact-mix
window table, kept as the oracle for the differential suite
(``test_batch_vs_reference.py``) and the batch perf gate
(``benchmarks/test_perf_batch.py``).  Nothing under ``src/`` imports
this module.

* :func:`window_placement_unique` — deduplicates the grid's distinct
  column mixes with ``np.unique``, then checks every (mix, start) pair by
  prefix-sum subtraction;
* :func:`batch_select_reference` — the Fig. 1 selection over the full
  grid: window scan, eq. (18) bytes for every cell and one
  ``take_along_axis`` per output column.
"""

from __future__ import annotations

import numpy as np

from repro.core.batch import (
    BatchSelection,
    batch_bitstream_bytes,
    batch_prr_geometry,
    device_columns,
)


def window_placement_unique(cols, w_clb, w_dsp, w_bram, mask=None):
    """``(has_window, first_col)`` per cell, by scanning every start."""
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


def batch_select_reference(device, lut_ff_pairs, dsps, brams, *, objective="size"):
    """:func:`repro.core.batch.batch_select` computed over the whole grid."""
    cols = device_columns(device)
    grid = batch_prr_geometry(cols, lut_ff_pairs, dsps, brams)
    has_window, first_col = window_placement_unique(
        cols, grid.w_clb, grid.w_dsp, grid.w_bram, mask=grid.feasible
    )
    candidate = grid.feasible & has_window  # (N, R)
    bytes_grid = batch_bitstream_bytes(
        cols, grid.heights[None, :], grid.w_clb, grid.w_dsp, grid.w_bram
    )
    primary = grid.size if objective == "size" else bytes_grid
    masked = np.where(candidate, primary, np.iinfo(np.int64).max)
    pick = masked.argmin(axis=1)  # (N,)
    feasible = candidate.any(axis=1)

    def take(grid_array):
        taken = np.take_along_axis(grid_array, pick[:, None], axis=1)[:, 0]
        return np.where(feasible, taken, 0)

    return BatchSelection(
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


def assert_selections_equal(got: BatchSelection, want: BatchSelection) -> None:
    """Every column bit-identical, dtype included."""
    assert (got.device_name, got.objective) == (want.device_name, want.objective)
    for name in (
        "clb_req", "feasible", "rows", "w_clb", "w_dsp", "w_bram",
        "width", "size", "start_col", "bitstream_bytes",
    ):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, (name, a.dtype, b.dtype)
        assert np.array_equal(a, b), name

"""Differential: the exact-mix window table and the batch pick vs their oracles.

:attr:`repro.core.batch.DeviceColumns.window_first` answers the Fig. 1
window question once per column mix.  It must equal the naive window
scan (:func:`placement_reference.find_column_window_naive`) for every
mix up to the device's column totals.  :func:`repro.core.batch.batch_select`,
which reads that table and prices only the picked cells, must equal the
per-call ``np.unique`` scan over the full grid
(:mod:`batch_reference`) column for column, dtype included.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import batch
from repro.devices import ResourceVector, synthetic_device
from repro.devices.catalog import DEVICES, get_device

from .batch_reference import (
    assert_selections_equal,
    batch_select_reference,
    window_placement_unique,
)
from .placement_reference import find_column_window_naive
from .test_batch_vs_scalar import fabrics

#: IOB-bounded with a CLK column, one DSP column and two BRAM columns.
SINGLE_DSP = synthetic_device(
    rows=4, clb_runs=(3, 2, 4, 1), dsp_positions=(1,), bram_positions=(0, 2)
)


def assert_table_matches_naive(device):
    cols = batch.device_columns(device)
    table = cols.window_first
    totals = tuple(
        int(prefix[-1]) for prefix in (cols.clb_prefix, cols.dsp_prefix, cols.bram_prefix)
    )
    assert table.shape == tuple(total + 2 for total in totals)
    for clb, dsp, bram in itertools.product(*(range(total + 1) for total in totals)):
        mix = ResourceVector(clb=clb, dsp=dsp, bram=bram)
        want = find_column_window_naive(device, mix) if mix.total else None
        assert int(table[clb, dsp, bram]) == (want or 0), mix
    # The slice one past each total is the clip target: never a window.
    assert not table[-1].any()
    assert not table[:, -1].any()
    assert not table[:, :, -1].any()


@pytest.mark.parametrize("device_name", sorted(DEVICES))
def test_catalog_window_table_matches_naive_scan(device_name):
    assert_table_matches_naive(get_device(device_name))


def test_single_dsp_synthetic_window_table_matches_naive_scan():
    assert SINGLE_DSP.has_single_dsp_column
    kinds = {kind.name for kind in SINGLE_DSP.columns}
    assert {"IOB", "CLK"} <= kinds
    assert_table_matches_naive(SINGLE_DSP)


@given(device=fabrics())
@settings(max_examples=40, deadline=None)
def test_random_fabric_window_table_matches_naive_scan(device):
    assert_table_matches_naive(device)


@st.composite
def requirement_columns(draw):
    """Requirement columns mixing zero-width, infeasible and ordinary PRMs."""
    n = draw(st.integers(0, 12))
    pairs = draw(
        st.lists(st.one_of(st.just(0), st.integers(0, 40_000)), min_size=n, max_size=n)
    )
    dsps = draw(
        st.lists(st.one_of(st.just(0), st.integers(0, 200)), min_size=n, max_size=n)
    )
    brams = draw(
        st.lists(st.one_of(st.just(0), st.integers(0, 100)), min_size=n, max_size=n)
    )
    return pairs, dsps, brams


@given(
    device=st.one_of(fabrics(), st.sampled_from([SINGLE_DSP, get_device("xc6vlx75t")])),
    columns=requirement_columns(),
    objective=st.sampled_from(["size", "bitstream"]),
)
@settings(max_examples=80, deadline=None)
def test_batch_select_equals_unique_scan_reference(device, columns, objective):
    pairs, dsps, brams = columns
    got = batch.batch_select(device, pairs, dsps, brams, objective=objective)
    want = batch_select_reference(device, pairs, dsps, brams, objective=objective)
    assert_selections_equal(got, want)


def test_reference_cases_cover_zero_width_and_infeasible_members():
    device = get_device("xc5vlx110t")
    # A zero-width PRM, one too big for any window, one needing more DSPs
    # than the lone DSP column holds, and an ordinary one.
    pairs, dsps, brams = [0, 10**6, 100, 3000], [0, 0, 10**4, 4], [0, 0, 0, 2]
    for objective in ("size", "bitstream"):
        got = batch.batch_select(device, pairs, dsps, brams, objective=objective)
        assert got.feasible.tolist() == [False, False, False, True]
        assert_selections_equal(
            got, batch_select_reference(device, pairs, dsps, brams, objective=objective)
        )


@given(device=fabrics(), columns=requirement_columns())
@settings(max_examples=40, deadline=None)
def test_window_placement_equals_unique_scan(device, columns):
    cols = batch.device_columns(device)
    grid = batch.batch_prr_geometry(cols, *columns)
    for mask in (None, grid.feasible):
        has, first = batch.batch_window_placement(
            cols, grid.w_clb, grid.w_dsp, grid.w_bram, mask=mask
        )
        want_has, want_first = window_placement_unique(
            cols, grid.w_clb, grid.w_dsp, grid.w_bram, mask=mask
        )
        assert np.array_equal(has, want_has)
        assert np.array_equal(first, want_first)

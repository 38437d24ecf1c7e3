"""Differential: indexed column-window queries vs the naive scan.

The :class:`ColumnWindowIndex` fast path must be observationally
identical to ``find_column_window_naive`` on *any* fabric, not just the
catalog layouts — randomized devices exercise prefix-sum edge cases
(windows touching IOB/CLK columns, empty mixes, out-of-range starts).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import synthetic_device
from repro.devices.resources import ColumnKind, ResourceVector

from .placement_reference import find_column_window_naive


@st.composite
def devices(draw):
    rows = draw(st.integers(1, 4))
    n_runs = draw(st.integers(1, 6))
    clb_runs = tuple(draw(st.integers(1, 10)) for _ in range(n_runs))
    boundaries = max(n_runs - 1, 0)
    dsp_positions = (
        tuple(
            sorted(
                draw(st.sets(st.integers(0, boundaries - 1), max_size=boundaries))
            )
        )
        if boundaries
        else ()
    )
    bram_positions = (
        tuple(
            sorted(
                draw(st.sets(st.integers(0, boundaries - 1), max_size=boundaries))
            )
        )
        if boundaries
        else ()
    )
    return synthetic_device(
        rows=rows,
        clb_runs=clb_runs,
        dsp_positions=dsp_positions,
        bram_positions=bram_positions,
    )


@st.composite
def requirements(draw):
    clb = draw(st.integers(0, 6))
    dsp = draw(st.integers(0, 2))
    bram = draw(st.integers(0, 2))
    if clb + dsp + bram == 0:
        clb = 1
    return ResourceVector(clb=clb, dsp=dsp, bram=bram)


@given(devices(), requirements(), st.integers(1, 40))
@settings(max_examples=120, deadline=None)
def test_find_matches_naive(device, requirement, start_col):
    """Indexed and naive lookups agree on every (mix, start) query."""
    assert device.find_column_window(
        requirement, start_col=start_col
    ) == find_column_window_naive(device, requirement, start_col=start_col)


@given(devices(), requirements())
@settings(max_examples=80, deadline=None)
def test_feasible_starts_match_naive_enumeration(device, requirement):
    """The cached start list equals a column-by-column naive sweep."""
    naive = [
        col
        for col in range(1, device.num_columns - requirement.total + 2)
        if find_column_window_naive(device, requirement, start_col=col) == col
    ]
    assert list(device.feasible_window_starts(requirement)) == naive


@given(devices(), st.data())
@settings(max_examples=60, deadline=None)
def test_existing_window_is_always_found(device, data):
    """A mix read off the fabric itself must be found by both paths."""
    width = data.draw(st.integers(1, min(4, device.num_columns)))
    start = data.draw(st.integers(1, device.num_columns - width + 1))
    kinds = device.columns[start - 1 : start - 1 + width]
    if not all(kind.reconfigurable for kind in kinds):
        return
    requirement = ResourceVector(
        clb=sum(k is ColumnKind.CLB for k in kinds),
        dsp=sum(k is ColumnKind.DSP for k in kinds),
        bram=sum(k is ColumnKind.BRAM for k in kinds),
    )
    found = device.find_column_window(requirement)
    assert found is not None and found <= start
    assert found == find_column_window_naive(device, requirement)

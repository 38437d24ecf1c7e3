"""Differential: window-indexed compatible-region search vs the naive scan.

``find_compatible_regions`` prefilters candidate start columns with the
device's :class:`ColumnWindowIndex` (counts-multiset match) before the
exact column-kind-sequence check; ``find_compatible_regions_naive``
walks every region.  They must agree — same regions, same (row-major)
order — on any fabric, any source region, and any exclusion list,
because the defragmentation planner's move choices (and therefore every
migration the runtime executes) ride on this list.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import Region, synthetic_device
from repro.relocation import find_compatible_regions

from .placement_reference import find_compatible_regions_naive


@st.composite
def devices(draw):
    rows = draw(st.integers(1, 4))
    n_runs = draw(st.integers(1, 5))
    clb_runs = tuple(draw(st.integers(1, 8)) for _ in range(n_runs))
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
def cases(draw):
    device = draw(devices())
    row = draw(st.integers(1, device.rows))
    height = draw(st.integers(1, device.rows - row + 1))
    col = draw(st.integers(1, device.num_columns))
    width = draw(st.integers(1, device.num_columns - col + 1))
    source = Region(row=row, col=col, height=height, width=width)
    n_excl = draw(st.integers(0, 3))
    exclude = []
    for _ in range(n_excl):
        erow = draw(st.integers(1, device.rows))
        eheight = draw(st.integers(1, device.rows - erow + 1))
        ecol = draw(st.integers(1, device.num_columns))
        ewidth = draw(st.integers(1, device.num_columns - ecol + 1))
        exclude.append(Region(row=erow, col=ecol, height=eheight, width=ewidth))
    include_source = draw(st.booleans())
    return device, source, tuple(exclude), include_source


@settings(max_examples=200, deadline=None)
@given(case=cases())
def test_fast_path_matches_naive_scan(case):
    device, source, exclude, include_source = case
    fast = find_compatible_regions(
        device, source, include_source=include_source, exclude=exclude
    )
    naive = find_compatible_regions_naive(
        device, source, include_source=include_source, exclude=exclude
    )
    assert fast == naive


def test_exclude_removes_overlapping_targets():
    device = synthetic_device(rows=1, clb_runs=(8,), name="excl")
    source = Region(row=1, col=2, height=1, width=2)
    unrestricted = find_compatible_regions(device, source)
    assert unrestricted
    blocker = unrestricted[0]
    remaining = find_compatible_regions(device, source, exclude=[blocker])
    assert blocker not in remaining
    assert all(not region.overlaps(blocker) for region in remaining)
    assert set(remaining) <= set(unrestricted)

"""Differential: the live-fabric admission path vs its test-only references.

``FabricRuntime.admit`` runs three searches on every arrival, and each
has a faster formulation in ``src/`` and the original one in
``fabric_reference.py``:

* free-space accounting — numpy grid and vectorized row-pair sweep vs a
  list grid and the per-row histogram sweep;
* the Fig. 1 search — rank geometries and stop at the first H that
  places vs build every H's placement and take the minimum;
* defrag planning — first compatible target in ``(row, col)`` order vs
  the minimum over the full target list.

They must agree exactly (areas, float indices, placements, steps and
error types), because every admission, defrag pass and migration of a
fabric run is decided from these answers.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fastpath import RegionOccupancy
from repro.core.params import PRMRequirements
from repro.core.placement_search import PlacementNotFoundError, find_prr
from repro.devices import XC5VLX110T, XC6VLX75T, Region, synthetic_device
from repro.devices.catalog import DEVICES
from repro.fabric import (
    fragmentation_index,
    free_cell_grid,
    largest_free_rectangle,
    plan_defrag_pass,
    total_free_cells,
)

from tests.differential import fabric_reference as ref

SYNTHETIC = synthetic_device(
    rows=4,
    clb_runs=(4, 6, 3, 5),
    dsp_positions=(0, 2),
    bram_positions=(1,),
    name="synthetic-diff",
)
FREE_SPACE_DEVICES = (XC5VLX110T, XC6VLX75T, SYNTHETIC)


@st.composite
def fabrics(draw):
    rows = draw(st.integers(1, 6))
    n_runs = draw(st.integers(1, 5))
    clb_runs = tuple(draw(st.integers(1, 8)) for _ in range(n_runs))
    boundaries = max(n_runs - 1, 0)
    positions = st.sets(st.integers(0, boundaries - 1), max_size=boundaries)
    return synthetic_device(
        rows=rows,
        clb_runs=clb_runs,
        dsp_positions=tuple(sorted(draw(positions))) if boundaries else (),
        bram_positions=tuple(sorted(draw(positions))) if boundaries else (),
    )


@st.composite
def regions_on(draw, device, max_size=8):
    """Any in-bounds rectangles (they may overlap and cover IOB/CLK)."""
    regions = []
    for _ in range(draw(st.integers(0, max_size))):
        row = draw(st.integers(1, device.rows))
        col = draw(st.integers(1, device.num_columns))
        regions.append(
            Region(
                row=row,
                col=col,
                height=draw(st.integers(1, device.rows - row + 1)),
                width=draw(st.integers(1, min(12, device.num_columns - col + 1))),
            )
        )
    return regions


@st.composite
def prm_vectors(draw):
    pairs = draw(st.integers(0, 4_000))
    luts = draw(st.integers(0, pairs)) if pairs else 0
    ffs = draw(st.integers(max(0, pairs - luts), pairs)) if pairs else 0
    return PRMRequirements(
        name=f"prm{draw(st.integers(0, 10**6))}",
        lut_ff_pairs=pairs,
        luts=luts,
        ffs=ffs,
        dsps=draw(st.integers(0, 24)),
        brams=draw(st.integers(0, 12)),
    )


def outcome(fn):
    """The placement, or the error's type and message."""
    try:
        return fn()
    except (PlacementNotFoundError, ValueError) as error:
        return (type(error), str(error))


# -- free space -----------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 16).flatmap(
        lambda rows: st.integers(1, 80).flatmap(
            lambda cols: st.lists(
                st.lists(st.booleans(), min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            )
        )
    )
)
def test_random_grid_rectangle_and_index_match_histogram_sweep(grid):
    expected_area = ref.largest_rectangle(grid)
    expected_index = ref.fragmentation_index(grid)
    assert largest_free_rectangle(grid) == expected_area
    assert fragmentation_index(grid) == expected_index
    assert total_free_cells(grid) == ref.total_free_cells(grid)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_device_grids_match_reference(data):
    device = data.draw(st.sampled_from(FREE_SPACE_DEVICES))
    occupied = data.draw(regions_on(device))
    retired = data.draw(
        st.lists(st.integers(1, device.num_columns), max_size=6)
    )
    grid = free_cell_grid(device, occupied, retired)
    expected = ref.free_cell_grid(device, occupied, retired)
    assert grid.tolist() == expected
    assert largest_free_rectangle(grid) == ref.largest_rectangle(expected)
    assert fragmentation_index(grid) == ref.fragmentation_index(expected)


def test_empty_and_degenerate_grids():
    assert largest_free_rectangle([]) == ref.largest_rectangle([]) == 0
    assert fragmentation_index([[False] * 5]) == 0.0
    assert largest_free_rectangle([[True] * 7] * 3) == 21


# -- Fig. 1 search ----------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_early_exit_find_prr_matches_min_over_all_h(data):
    device = data.draw(
        st.one_of(st.sampled_from(list(DEVICES.values())), fabrics())
    )
    prm = data.draw(prm_vectors())
    objective = data.draw(st.sampled_from(["size", "bitstream"]))
    max_rows = data.draw(st.none() | st.integers(1, device.rows + 1))
    forbidden = data.draw(regions_on(device, max_size=5))
    if data.draw(st.booleans()):
        forbidden = RegionOccupancy(forbidden)
    fast = outcome(
        lambda: find_prr(
            device, prm, objective=objective, max_rows=max_rows, forbidden=forbidden
        )
    )
    slow = outcome(
        lambda: ref.find_prr(
            device, prm, objective=objective, max_rows=max_rows, forbidden=forbidden
        )
    )
    if isinstance(slow, tuple):
        # Same error type; the reference words its message generically.
        assert isinstance(fast, tuple) and fast[0] is slow[0]
        if slow[0] is not PlacementNotFoundError:
            assert fast == slow
    else:
        assert fast == slow


# -- defrag planning --------------------------------------------------------


@st.composite
def layouts(draw):
    """A device with non-overlapping valid PRRs, a blacklist and a movable set."""
    device = draw(st.one_of(st.sampled_from(FREE_SPACE_DEVICES), fabrics()))
    placements: dict[str, Region] = {}
    for candidate in draw(regions_on(device, max_size=10)):
        if device.is_valid_prr(candidate) and not any(
            candidate.overlaps(other) for other in placements.values()
        ):
            placements[f"m{len(placements)}"] = candidate
    retired = draw(st.sets(st.integers(1, device.num_columns), max_size=3))
    blacklist = [
        Region(row=1, col=col, height=device.rows, width=1)
        for col in sorted(retired)
        if not any(col in r.col_span for r in placements.values())
    ]
    movable = draw(st.none() | st.sets(st.sampled_from(sorted(placements) or ["x"])))
    return device, placements, blacklist, movable


@settings(max_examples=200, deadline=None)
@given(layouts())
def test_first_hit_defrag_plan_matches_full_list_planner(layout):
    device, placements, blacklist, movable = layout
    assert plan_defrag_pass(
        device, placements, blacklist, movable=movable
    ) == ref.plan_defrag_pass(device, placements, blacklist, movable=movable)

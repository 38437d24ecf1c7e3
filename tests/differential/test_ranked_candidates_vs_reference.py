"""The ranked Fig. 1 candidate list against the per-H reference derivation.

:func:`repro.core.prr_model.group_columns` evaluates eqs. (1)–(6) for
every H at once, on the group's largest demands, and
:func:`repro.core.placement_search.rank_candidates` ranks the resulting
integer triples.  The oracle
(:mod:`tests.differential.placement_reference`) keeps the per-PRM,
per-H :class:`ResourceVector` merge and sorts whole geometries by
``(objective, H)``.  Every consumer of the ranked list must agree with
it: the placement search, its feasible-placement iterator, the Fig. 1
trace and the floorplanner's per-demand candidate counts.

Run with ``PYTHONPATH=src python -m pytest
tests/differential/test_ranked_candidates_vs_reference.py -q``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.floorplanner import FloorplanError, floorplan
from repro.core.params import PRMRequirements
from repro.core.placement_search import (
    PlacementNotFoundError,
    SearchTrace,
    find_prr,
    iter_feasible_placements,
    rank_candidates,
    search_with_trace,
)
from repro.core.prr_model import (
    InfeasibleGeometryError,
    group_columns,
    prr_geometry_for_rows,
)
from repro.devices import DEVICES, Region

from tests.differential import placement_reference as reference

DEVICE_NAMES = sorted(DEVICES)


@st.composite
def prms(draw, index: int) -> PRMRequirements:
    pairs = draw(st.integers(1, 12_000))
    luts = draw(st.integers(0, pairs))
    ffs = draw(st.integers(pairs - luts, pairs))
    return PRMRequirements(
        f"p{index}",
        lut_ff_pairs=pairs,
        luts=luts,
        ffs=ffs,
        dsps=draw(st.sampled_from([0, 0, 1, 8, 16, 33, 64, 150])),
        brams=draw(st.sampled_from([0, 0, 1, 4, 9, 30, 70])),
    )


@st.composite
def regions(draw, device) -> list[Region]:
    out = []
    for _ in range(draw(st.integers(0, 4))):
        row = draw(st.integers(1, device.rows))
        col = draw(st.integers(1, device.num_columns))
        out.append(
            Region(
                row=row,
                col=col,
                height=draw(st.integers(1, device.rows - row + 1)),
                width=draw(st.integers(1, min(8, device.num_columns - col + 1))),
            )
        )
    return out


@st.composite
def cases(draw):
    device = DEVICES[draw(st.sampled_from(DEVICE_NAMES))]
    size = draw(st.integers(1, 4))
    group = [draw(prms(index)) for index in range(size)]
    objective = draw(st.sampled_from(["size", "bitstream"]))
    max_rows = draw(st.one_of(st.none(), st.integers(1, device.rows + 1)))
    forbidden = draw(regions(device))
    return device, group, objective, max_rows, forbidden


@given(cases())
@settings(max_examples=120, deadline=None)
def test_per_h_columns_match_reference(case):
    device, group, _, max_rows, _ = case
    limit = device.rows if max_rows is None else min(max_rows, device.rows)
    expected = reference.geometries_by_rows(device, group, limit)
    got = group_columns(
        group,
        device.family,
        limit,
        single_dsp_column=device.has_single_dsp_column,
    )
    assert [
        None if g is None else (g.columns.clb, g.columns.dsp, g.columns.bram)
        for g in expected
    ] == list(got)
    for rows, geometry in enumerate(expected, start=1):
        if geometry is None:
            try:
                prr_geometry_for_rows(
                    group,
                    device.family,
                    rows,
                    single_dsp_column=device.has_single_dsp_column,
                )
            except InfeasibleGeometryError as error:
                assert "needs H >=" in str(error)
            else:
                raise AssertionError(f"H={rows} should be infeasible")
        else:
            assert geometry == prr_geometry_for_rows(
                list(reversed(group)),
                device.family,
                rows,
                single_dsp_column=device.has_single_dsp_column,
            )


@given(cases())
@settings(max_examples=120, deadline=None)
def test_find_prr_and_ranking_match_reference(case):
    device, group, objective, max_rows, forbidden = case
    ranked = reference.ranked_geometries(
        device, group, objective=objective, max_rows=max_rows
    )
    got = rank_candidates(device, group, objective=objective, max_rows=max_rows)
    assert [(g.rows, g.columns.clb, g.columns.dsp, g.columns.bram) for g in ranked] == [
        candidate[1:] for candidate in got
    ]

    expected = reference.find_prr_reference(
        device, group, objective=objective, max_rows=max_rows, forbidden=forbidden
    )
    try:
        placed = find_prr(
            device, group, objective=objective, max_rows=max_rows, forbidden=forbidden
        )
    except PlacementNotFoundError:
        placed = None
    assert placed == expected

    assert list(
        iter_feasible_placements(
            device, group, max_rows=max_rows, forbidden=forbidden
        )
    ) == reference.feasible_placements_reference(
        device, group, max_rows=max_rows, forbidden=forbidden
    )


@given(cases())
@settings(max_examples=80, deadline=None)
def test_search_trace_matches_reference(case):
    device, group, objective, _, _ = case
    steps = reference.trace_steps_reference(device, group)
    selected = reference.find_prr_reference(device, group, objective=objective)
    try:
        trace = search_with_trace(device, group, objective=objective)
    except PlacementNotFoundError:
        assert selected is None
        return
    assert list(trace.steps) == steps
    assert trace.selected == selected
    expected = SearchTrace(
        device_name=device.name,
        prm_name=trace.prm_name,
        steps=tuple(steps),
        selected=selected,
    )
    assert trace.render() == expected.render()


@given(cases())
@settings(max_examples=40, deadline=None)
def test_floorplan_candidate_counts_match_reference(case):
    device, group, _, _, forbidden = case
    # Each PRM alone plus the whole group sharing one PRR; an unreachable
    # static-region budget makes every call fail with its diagnostics.
    groups = [[prm] for prm in group] + ([group] if len(group) > 1 else [])
    try:
        floorplan(
            device,
            groups,
            static_min_cells=device.rows * device.num_columns + 1,
            max_orders=3,
            forbidden=forbidden,
        )
    except FloorplanError as error:
        counts = error.candidate_counts
    else:
        raise AssertionError("an unreachable budget must fail")
    assert counts == {
        "+".join(prm.name for prm in members): reference.count_windows_reference(
            device, members, forbidden
        )
        for members in groups
    }

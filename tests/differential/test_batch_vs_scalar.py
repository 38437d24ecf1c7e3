"""Differential: the numpy batch engine vs the scalar models.

The batch engine re-derives eqs. (1)–(23) and the Fig. 1 selection as
array expressions; nothing but these tests guarantees the two
formulations agree.  Random PRM requirement vectors on random synthetic
fabrics (plus the full catalog) are pushed through both paths and every
observable — feasibility verdict, selected H, column mix, placement
column, bitstream bytes, reconfiguration seconds — must match exactly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import batch
from repro.core.api import batch_evaluate, evaluate_prm
from repro.core.params import PRMRequirements
from repro.core.placement_search import PlacementNotFoundError, find_prr
from repro.devices import synthetic_device


@st.composite
def fabrics(draw):
    rows = draw(st.integers(1, 8))
    n_runs = draw(st.integers(1, 5))
    clb_runs = tuple(draw(st.integers(1, 8)) for _ in range(n_runs))
    boundaries = max(n_runs - 1, 0)
    dsp_positions = (
        tuple(sorted(draw(st.sets(st.integers(0, boundaries - 1), max_size=boundaries))))
        if boundaries
        else ()
    )
    bram_positions = (
        tuple(sorted(draw(st.sets(st.integers(0, boundaries - 1), max_size=boundaries))))
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
def prm_vectors(draw):
    pairs = draw(st.integers(0, 30_000))
    luts = draw(st.integers(0, pairs)) if pairs else 0
    ffs = draw(st.integers(max(0, pairs - luts), pairs)) if pairs else 0
    return PRMRequirements(
        name=f"prm{draw(st.integers(0, 10**6))}",
        lut_ff_pairs=pairs,
        luts=luts,
        ffs=ffs,
        dsps=draw(st.integers(0, 120)),
        brams=draw(st.integers(0, 60)),
    )


def scalar_verdict(device, prm, objective):
    """(feasible, H, W_CLB, W_DSP, W_BRAM, col, bytes) via the scalar path."""
    try:
        placed = find_prr(device, prm, objective=objective)
    except (PlacementNotFoundError, ValueError):
        # ValueError covers all-zero requirement vectors, which the
        # scalar geometry constructor rejects and the batch engine masks.
        return (False, 0, 0, 0, 0, 0, 0)
    return (
        True,
        placed.geometry.rows,
        placed.geometry.columns.clb,
        placed.geometry.columns.dsp,
        placed.geometry.columns.bram,
        placed.region.col,
        placed.bitstream_bytes,
    )


@given(
    device=fabrics(),
    prms=st.lists(prm_vectors(), min_size=1, max_size=8),
    objective=st.sampled_from(["size", "bitstream"]),
)
@settings(max_examples=60, deadline=None)
def test_batch_select_equals_scalar_loop(device, prms, objective):
    sel = batch.batch_select(
        device,
        [p.lut_ff_pairs for p in prms],
        [p.dsps for p in prms],
        [p.brams for p in prms],
        objective=objective,
    )
    for i, prm in enumerate(prms):
        got = (
            bool(sel.feasible[i]),
            int(sel.rows[i]),
            int(sel.w_clb[i]),
            int(sel.w_dsp[i]),
            int(sel.w_bram[i]),
            int(sel.start_col[i]),
            int(sel.bitstream_bytes[i]),
        )
        assert got == scalar_verdict(device, prm, objective)


@given(device=fabrics(), prms=st.lists(prm_vectors(), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_batch_evaluate_equals_looped_evaluate_prm(device, prms):
    result = batch_evaluate(prms, device)
    for i, prm in enumerate(prms):
        try:
            expected = evaluate_prm(prm, device)
        except (PlacementNotFoundError, ValueError):
            assert not bool(result.feasible[i])
            continue
        assert bool(result.feasible[i])
        assert result.result(i) == expected


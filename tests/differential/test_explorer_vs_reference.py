"""Differential: the subset-table explorer vs the per-partition reference.

``repro.core.explorer`` evaluates partitions through one per-run subset
table and interned occupancy states; ``explorer_reference`` re-runs the
Fig. 1 search per partition through a placement cache.  Every mode must
return the same designs in the same order — objective ties are broken
by enumeration order and PRRs are listed largest group first, so equal
lists also pin both orders.  Randomized PRM sets cover 1–8 PRMs,
duplicate LUT–FF pair counts (ties in the largest-first group order) and
DSP demands no small H can hold on the single-DSP-column LX110T.
"""

import dataclasses
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.explorer import (
    _mask_partitions,
    evaluate_partition,
    explore,
    iter_set_partitions,
    pareto_front,
)
from repro.core.fastpath import SubsetTable, group_lower_bounds
from repro.core.params import PRMRequirements
from repro.devices.catalog import XC5VLX110T, XC6VLX75T, make_device
from repro.devices.family import VIRTEX5

from tests.differential import explorer_reference as reference

#: The dse_sweep benchmark's fabric: 8 rows, four DSP and six BRAM columns.
WIDE = make_device(
    "wide-v5",
    VIRTEX5,
    rows=8,
    layout=(
        "I C*12 B C*10 D C*12 B C*10 D C*12 B K "
        "C*12 B C*10 D C*12 B C*10 D C*12 I"
    ),
)

DEVICES = st.sampled_from([XC5VLX110T, XC6VLX75T, WIDE])


#: PRM kinds, weighted toward plain logic.  No PRM mixes DSPs and BRAMs:
#: no window of these fabrics holds both without a wide CLB run, so one
#: such PRM would leave most sets without any feasible design.
KINDS = ["logic", "logic", "logic", "dsp", "tall_dsp", "bram", "bram"]


@st.composite
def prm_sets(draw, min_size=1, max_size=8):
    count = draw(st.integers(min_size, max_size))
    prms = []
    for i in range(count):
        # A small pool of pair counts makes equal largest-member keys common.
        pairs = draw(st.one_of(st.sampled_from([320, 640, 1280]), st.integers(1, 1_500)))
        luts = draw(st.integers(0, pairs))
        ffs = draw(st.integers(pairs - luts, pairs))
        kind = draw(st.sampled_from(KINDS))
        dsps = brams = 0
        if kind == "dsp":
            dsps = draw(st.integers(1, 8))
        elif kind == "tall_dsp":
            # 9–40 DSPs need H >= 2 on the LX110T's single DSP column;
            # 65–80 fit no H there at all.
            dsps = draw(st.sampled_from([9, 17, 25, 40, 65, 80]))
        elif kind == "bram":
            brams = draw(st.integers(1, 12))
        prms.append(PRMRequirements(f"p{i}", pairs, luts, ffs, dsps=dsps, brams=brams))
    return prms


def assert_same_bounds(device, prms):
    table = SubsetTable(device, prms)
    for mask in range(1, 1 << len(prms)):
        group = [prm for i, prm in enumerate(prms) if mask >> i & 1]
        want = reference.group_lower_bounds(device, group)
        assert table.bounds(mask) == want
        assert group_lower_bounds(device, group) == want


@given(DEVICES, prm_sets(max_size=6))
@settings(max_examples=60, deadline=None)
def test_exhaustive_matches_reference(device, prms):
    assert explore(device, prms, mode="exhaustive") == reference.explore(device, prms)
    assert_same_bounds(device, prms)


@given(DEVICES, prm_sets(min_size=7, max_size=8))
@settings(max_examples=6, deadline=None)
def test_exhaustive_matches_reference_at_seven_and_eight_prms(device, prms):
    assert explore(device, prms, mode="exhaustive") == reference.explore(device, prms)


@given(DEVICES, prm_sets(max_size=6), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_max_prrs_matches_reference(device, prms, max_prrs):
    for mode in ("exhaustive", "pruned", "beam"):
        assert explore(device, prms, mode=mode, max_prrs=max_prrs) == reference.explore(
            device, prms, mode=mode, max_prrs=max_prrs
        ), mode


# The reference's pruned mode rescans every completed design per bound and
# needs ~20 s on a 7–8 PRM set whose designs all tie; the fixed 8-PRM
# cases below cover that size.
@given(DEVICES, prm_sets(max_size=6))
@settings(max_examples=40, deadline=None)
def test_pruned_matches_reference(device, prms):
    assert explore(device, prms, mode="pruned") == reference.explore(
        device, prms, mode="pruned"
    )


@given(DEVICES, prm_sets(), st.sampled_from([1, 8]))
@settings(max_examples=40, deadline=None)
def test_beam_matches_reference(device, prms, beam_width):
    assert explore(device, prms, mode="beam", beam_width=beam_width) == reference.explore(
        device, prms, mode="beam", beam_width=beam_width
    )


@given(DEVICES, prm_sets(max_size=6), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_evaluate_partition_matches_reference(device, prms, rng):
    # Arbitrary member and group order, and a PRM repeated across groups.
    pool = prms + [rng.choice(prms)]
    rng.shuffle(pool)
    cuts = sorted(rng.sample(range(1, len(pool)), rng.randint(0, len(pool) - 1)))
    groups = [pool[a:b] for a, b in zip([0, *cuts], [*cuts, len(pool)])]
    assert evaluate_partition(device, groups) == reference.evaluate_partition(
        device, groups
    )


def test_partitions_follow_the_recursive_enumeration():
    for n in range(9):
        want = list(reference.iter_set_partitions(range(n)))
        assert list(iter_set_partitions(range(n))) == want
        assert _mask_partitions(n) == [
            tuple(sum(1 << i for i in group) for group in partition) for partition in want
        ]
    letters = list("abcde")
    assert list(iter_set_partitions(letters)) == list(reference.iter_set_partitions(letters))


@given(DEVICES, prm_sets(max_size=4), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_pareto_front_matches_reference(device, prms, rng):
    # A renamed twin gives distinct groupings with equal objectives.
    prms = prms + [dataclasses.replace(rng.choice(prms), name="twin")]
    explored = list(explore(device, prms, mode="exhaustive"))
    # A random sublist drops some dominators, so ties reach the front; the
    # extra draws repeat designs.
    designs = rng.sample(explored, rng.randint(0, len(explored)))
    designs += [rng.choice(explored) for _ in range(len(explored) // 3)]
    rng.shuffle(designs)
    got = pareto_front(designs)
    want = reference.pareto_front(designs)
    assert [id(d) for d in got] == [id(d) for d in want]


def _eight_prm_set(seed=7):
    """A dse_sweep-like set: 8 PRMs of 300–700 pairs, two with DSPs and
    two with BRAMs."""
    rng = random.Random(seed)
    kinds = ["dsp", "dsp", "bram", "bram", "logic", "logic", "logic", "logic"]
    rng.shuffle(kinds)
    prms = []
    for j, kind in enumerate(kinds):
        pairs = rng.randint(300, 700)
        prms.append(
            PRMRequirements(
                f"s{j}",
                lut_ff_pairs=pairs,
                luts=pairs - rng.randint(0, pairs // 3),
                ffs=rng.randint(pairs // 3, pairs),
                dsps=rng.randint(2, 8) if kind == "dsp" else 0,
                brams=rng.randint(1, 4) if kind == "bram" else 0,
            )
        )
    return prms


@pytest.mark.parametrize("device", [XC5VLX110T, XC6VLX75T, WIDE], ids=lambda d: d.name)
@pytest.mark.parametrize(
    "kwargs",
    [
        {"mode": "exhaustive"},
        {"mode": "pruned"},
        {"mode": "beam", "beam_width": 1},
        {"mode": "beam", "beam_width": 8},
        {"mode": "exhaustive", "max_prrs": 3},
    ],
    ids=lambda kw: "-".join(map(str, kw.values())),
)
def test_eight_prm_set_matches_reference(device, kwargs):
    prms = _eight_prm_set()
    assert explore(device, prms, **kwargs) == reference.explore(device, prms, **kwargs)


def test_pareto_front_of_full_sweep_is_fast_and_exact():
    designs = explore(WIDE, _eight_prm_set())
    assert len(designs) > 1_000
    start = time.perf_counter()
    front = pareto_front(designs)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.3, f"pareto_front took {elapsed:.2f}s on {len(designs)} designs"
    assert [id(d) for d in front] == [id(d) for d in reference.pareto_front(designs)]

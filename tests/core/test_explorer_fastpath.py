"""Acceptance tests for the fast-path explorer (ISSUE criteria).

* the pruned search returns a byte-identical Pareto front to exhaustive
  enumeration on the paper's 3-PRM workload / XC5VLX110T;
* a 10-PRM exploration completes via the beam fallback instead of
  raising, and its best design is no worse than exhaustive search's on
  an 8-PRM subset.
"""

import pytest

from repro.core.explorer import (
    DEFAULT_BEAM_WIDTH,
    MAX_EXHAUSTIVE_PRMS,
    explore,
    pareto_front,
)

from scripts.bench_explorer import WIDE_DEVICE, synthetic_prms
from repro.devices.catalog import XC5VLX110T


@pytest.fixture(scope="module")
def v5_prms():
    from tests.conftest import paper_requirements

    return [
        paper_requirements("fir", "virtex5"),
        paper_requirements("mips", "virtex5"),
        paper_requirements("sdram", "virtex5"),
    ]


class TestPrunedMatchesExhaustive:
    def test_paper_front_byte_identical(self, v5_prms):
        exhaustive = explore(XC5VLX110T, v5_prms, mode="exhaustive")
        pruned = explore(XC5VLX110T, v5_prms, mode="pruned")
        assert pareto_front(pruned) == pareto_front(exhaustive)
        # the front objects themselves compare equal field-by-field
        for fast, slow in zip(pareto_front(pruned), pareto_front(exhaustive)):
            assert fast.assignments == slow.assignments
            assert fast.objectives == slow.objectives

    def test_synthetic8_front_identical(self):
        # Tie order among equal-objective designs follows enumeration
        # order, so compare the fronts as canonically sorted sets.
        def canon(design):
            return (
                design.objectives,
                sorted(
                    tuple(sorted(p.name for p in g.prms))
                    for g in design.assignments
                ),
            )

        prms = synthetic_prms(8)
        exhaustive = explore(WIDE_DEVICE, prms, mode="exhaustive")
        pruned = explore(WIDE_DEVICE, prms, mode="pruned")
        assert sorted(map(canon, pareto_front(pruned))) == sorted(
            map(canon, pareto_front(exhaustive))
        )

    def test_pruned_front_members_exist_exhaustively(self, v5_prms):
        exhaustive = explore(XC5VLX110T, v5_prms, mode="exhaustive")
        pruned = explore(XC5VLX110T, v5_prms, mode="pruned")
        objectives = {d.objectives for d in exhaustive}
        assert all(d.objectives in objectives for d in pruned)


class TestBeamFallback:
    def test_ten_prms_complete_without_raising(self):
        prms = synthetic_prms(10)
        assert len(prms) > MAX_EXHAUSTIVE_PRMS
        designs = explore(WIDE_DEVICE, prms)  # auto -> beam
        assert designs
        objectives = [d.objectives for d in designs]
        assert objectives == sorted(objectives)
        for design in designs:
            placed = sorted(
                prm.name
                for assignment in design.assignments
                for prm in assignment.prms
            )
            assert placed == sorted(p.name for p in prms)

    def test_beam_best_no_worse_than_exhaustive_on_8(self):
        prms = synthetic_prms(8)
        exhaustive = explore(WIDE_DEVICE, prms, mode="exhaustive")
        beam = explore(
            WIDE_DEVICE, prms, mode="beam", beam_width=DEFAULT_BEAM_WIDTH
        )
        assert beam
        assert beam[0].objectives <= exhaustive[0].objectives

    def test_beam_width_one_is_greedy_but_valid(self):
        prms = synthetic_prms(9)
        designs = explore(WIDE_DEVICE, prms, mode="beam", beam_width=1)
        assert designs
        assert len({tuple(sorted(d.objectives for d in designs))}) == 1

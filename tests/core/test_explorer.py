"""Unit tests for the partitioning design-space explorer."""

import pytest

from repro.core.explorer import (
    evaluate_partition,
    explore,
    iter_set_partitions,
    pareto_front,
)
from repro.devices.catalog import XC5VLX110T, XC6VLX75T
from repro.errors import InvalidInput

from tests.conftest import paper_requirements


def bell(n):
    partitions = list(iter_set_partitions(range(n)))
    return len(partitions)


class TestSetPartitions:
    def test_bell_numbers(self):
        assert bell(0) == 1
        assert bell(1) == 1
        assert bell(2) == 2
        assert bell(3) == 5
        assert bell(4) == 15

    def test_partitions_cover_all_items(self):
        for partition in iter_set_partitions([0, 1, 2]):
            flat = sorted(x for group in partition for x in group)
            assert flat == [0, 1, 2]

    def test_partitions_unique(self):
        seen = set()
        for partition in iter_set_partitions(range(4)):
            key = frozenset(frozenset(g) for g in partition)
            assert key not in seen
            seen.add(key)


@pytest.fixture(scope="module")
def v5_prms():
    return [
        paper_requirements("fir", "virtex5"),
        paper_requirements("mips", "virtex5"),
        paper_requirements("sdram", "virtex5"),
    ]


@pytest.fixture(scope="module")
def v6_prms():
    return [
        paper_requirements("fir", "virtex6"),
        paper_requirements("mips", "virtex6"),
        paper_requirements("sdram", "virtex6"),
    ]


class TestEvaluatePartition:
    def test_singletons_place_disjointly(self, v5_prms):
        design = evaluate_partition(XC5VLX110T, [[p] for p in v5_prms])
        assert design is not None
        regions = [a.placement.region for a in design.assignments]
        for i, a in enumerate(regions):
            for b in regions[i + 1 :]:
                assert not a.overlaps(b)

    def test_metrics_positive(self, v5_prms):
        design = evaluate_partition(XC5VLX110T, [[p] for p in v5_prms])
        assert design.total_prr_size > 0
        assert design.total_bitstream_bytes > 0
        assert design.worst_reconfig_seconds > 0

    def test_shared_bitstream_counts_per_prm(self, v6_prms):
        shared = evaluate_partition(XC6VLX75T, [v6_prms])
        assert shared is not None
        assignment = shared.assignments[0]
        assert (
            shared.total_bitstream_bytes
            == assignment.bitstream_bytes * len(v6_prms)
        )

    def test_summary_mentions_groups(self, v5_prms):
        design = evaluate_partition(XC5VLX110T, [[p] for p in v5_prms])
        assert "fir" in design.summary() and "PRR" in design.summary()


class TestExplore:
    def test_explore_v5_returns_sorted(self, v5_prms):
        designs = explore(XC5VLX110T, v5_prms)
        assert designs
        objectives = [d.objectives for d in designs]
        assert objectives == sorted(objectives)

    def test_explore_v6_includes_fully_shared(self, v6_prms):
        designs = explore(XC6VLX75T, v6_prms)
        assert any(d.num_prrs == 1 for d in designs)
        assert any(d.num_prrs == 3 for d in designs)

    def test_max_prrs_filter(self, v6_prms):
        designs = explore(XC6VLX75T, v6_prms, max_prrs=1)
        assert designs and all(d.num_prrs == 1 for d in designs)

    @pytest.mark.parametrize("max_prrs", [0, -1])
    @pytest.mark.parametrize("mode", ["auto", "exhaustive", "pruned", "beam"])
    def test_max_prrs_below_one_rejected(self, v5_prms, mode, max_prrs):
        with pytest.raises(InvalidInput, match="max_prrs"):
            explore(XC5VLX110T, v5_prms, mode=mode, max_prrs=max_prrs)
        with pytest.raises(InvalidInput, match="max_prrs"):
            explore(
                XC5VLX110T, v5_prms, mode=mode, max_prrs=max_prrs, deadline_s=5.0
            )

    @pytest.mark.parametrize("beam_width", [0, -1])
    @pytest.mark.parametrize("mode", ["auto", "exhaustive", "pruned", "beam"])
    def test_beam_width_below_one_rejected(self, v5_prms, mode, beam_width):
        # Rejected in every mode, not only where the beam would run.
        with pytest.raises(InvalidInput, match="beam_width"):
            explore(XC5VLX110T, v5_prms, mode=mode, beam_width=beam_width)
        with pytest.raises(InvalidInput, match="beam_width"):
            explore(
                XC5VLX110T, v5_prms, mode=mode, beam_width=beam_width,
                deadline_s=5.0,
            )

    def test_nonpositive_controller_rate_is_typed(self, v5_prms):
        with pytest.raises(InvalidInput, match="controller throughput"):
            explore(XC5VLX110T, v5_prms, controller_bytes_per_s=0)

    def test_too_many_prms_fall_back_to_beam(self, v5_prms):
        # mode="auto" degrades to beam search above MAX_EXHAUSTIVE_PRMS
        # instead of raising; only an explicit exhaustive request is capped.
        designs = explore(XC5VLX110T, v5_prms * 3)
        assert designs
        objectives = [d.objectives for d in designs]
        assert objectives == sorted(objectives)
        with pytest.raises(ValueError, match="capped"):
            explore(XC5VLX110T, v5_prms * 3, mode="exhaustive")


class TestPareto:
    def test_front_is_nondominated(self, v6_prms):
        designs = explore(XC6VLX75T, v6_prms)
        front = pareto_front(designs)
        assert front
        for candidate in front:
            for other in designs:
                if all(
                    x <= y
                    for x, y in zip(other.objectives, candidate.objectives)
                ):
                    assert other.objectives == candidate.objectives or any(
                        x < y
                        for x, y in zip(candidate.objectives, other.objectives)
                    )

    def test_front_subset_of_designs(self, v6_prms):
        designs = explore(XC6VLX75T, v6_prms)
        front = pareto_front(designs)
        assert all(d in designs for d in front)

"""Each generator is a pure function of its seed and states its traffic shape."""

import pytest

import gen

from repro.core import evaluate_prm
from repro.errors import InfeasiblePlacement


def test_paper_pass_is_deterministic_per_seed():
    assert gen.paper_pass(7, 3) == gen.paper_pass(7, 3)
    assert gen.paper_pass(7, 3) != gen.paper_pass(8, 3)
    spec = gen.paper_pass(7, 3)
    assert len(spec.order) == 6 and len(set(spec.order)) == 6
    for _, stream in spec.streams:
        assert len(stream.arrivals_s) == gen.JOBS_PER_STREAM
        assert list(stream.arrivals_s) == sorted(stream.arrivals_s)


def test_dse_iteration_is_deterministic_and_never_repeats_a_prm():
    first = gen.dse_iteration(4, 0)
    assert first == gen.dse_iteration(4, 0)
    assert first != gen.dse_iteration(5, 0)
    second = gen.dse_iteration(4, 1)
    names = [p.name for it in (first, second) for p in it.prm_set + it.vector]
    assert len(names) == len(set(names))
    assert len(first.vector) >= 10_000
    assert len(first.prm_set) == 8


def take(stream, n):
    return [stream.next() for _ in range(n)]


def test_serve_stream_is_deterministic_per_seed():
    assert take(gen.ServeStream(9), 300) == take(gen.ServeStream(9), 300)
    assert take(gen.ServeStream(9), 300) != take(gen.ServeStream(10), 300)


def test_serve_stream_shape():
    items = take(gen.ServeStream(11), 5000)
    repeats = sum(not item.first_seen for item in items) / len(items)
    assert repeats == pytest.approx(gen.REPEAT_SHARE, abs=0.03)
    for start in range(0, len(items), gen.REPEAT_BLOCK):
        block = items[start : start + gen.REPEAT_BLOCK]
        hot = sum(item.prm.name.startswith("hot") for item in block)
        assert hot == round(gen.REPEAT_SHARE * gen.REPEAT_BLOCK)
    hot_keys = {(i.prm.name, i.device) for i in items if i.prm.name.startswith("hot")}
    assert len(hot_keys) == gen.HOT_KEYS
    assert {i.device for i in items} == set(gen.CATALOG_DEVICE_NAMES)
    fresh = [i for i in items if i.first_seen and not i.prm.name.startswith("hot")]
    assert len({i.prm.name for i in fresh}) == len(fresh)
    infeasible = sum(i.expect_infeasible for i in fresh) / len(fresh)
    assert infeasible == pytest.approx(gen.INFEASIBLE_SHARE, abs=0.02)


def test_serve_classes_are_feasible_or_infeasible_as_stated():
    items = take(gen.ServeStream(12), 1500)
    for item in items[::7] + [i for i in items if i.expect_infeasible]:
        if item.expect_infeasible:
            with pytest.raises(InfeasiblePlacement):
                evaluate_prm(item.prm, item.device)
            evaluate_prm(item.prm, "xc5vlx110t")
        else:
            evaluate_prm(item.prm, item.device)

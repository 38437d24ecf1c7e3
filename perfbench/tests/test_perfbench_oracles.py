"""Each oracle passes on the library's real answer and fires on a seeded wrong one."""

import dataclasses
from pathlib import Path
from types import SimpleNamespace

import pytest

import gen
import oracles

from repro.bitgen import generate_partial_bitstream, parse_bitstream
from repro.core import PRMRequirements, batch_evaluate, evaluate_prm, explore
from repro.devices import XC5VLX110T, Region
from repro.errors import InfeasiblePlacement, InvalidInput
from repro.fabric import FabricRuntime
from repro.synth import synthesize
from repro.workloads import build_fir

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def golden():
    return oracles.load_table5(ROOT / oracles.GOLDEN_TABLE5)


@pytest.fixture(scope="module")
def fir_flow():
    report = synthesize(build_fir(XC5VLX110T.family), XC5VLX110T.family)
    result = evaluate_prm(report.requirements, XC5VLX110T)
    data = generate_partial_bitstream(
        XC5VLX110T, result.placement.region, design_name=report.design_name
    ).to_bytes()
    return result, data, parse_bitstream(data)


def flow_problems(golden, result, data, parsed, **overrides):
    args = dict(
        key=("fir", "xc5vlx110t"),
        table5_row=result.table5_row(),
        model_bytes=result.bitstream.total_bytes,
        generated_bytes=len(data),
        parsed_bytes=parsed.size_bytes,
        crc_ok=parsed.crc_ok,
        golden=golden,
    )
    args.update(overrides)
    return oracles.check_flow(**args)


def test_golden_table5_has_the_six_paper_cases(golden):
    assert sorted(golden) == sorted(
        (name, device.name) for name, _ in gen.PAPER_BUILDERS for device in gen.PAPER_DEVICES
    )


def test_flow_oracle_passes_on_real_flow(golden, fir_flow):
    assert flow_problems(golden, *fir_flow) == []


def test_flow_oracle_fires_on_tampered_byte_count(golden, fir_flow):
    result, data, parsed = fir_flow
    problems = flow_problems(golden, *fir_flow, parsed_bytes=parsed.size_bytes + 4)
    assert problems and "bitstream bytes" in problems[0]
    assert flow_problems(golden, *fir_flow, model_bytes=len(data) - 4)


def test_flow_oracle_fires_on_crc_and_table5_mismatch(golden, fir_flow):
    result = fir_flow[0]
    assert flow_problems(golden, *fir_flow, crc_ok=False)
    row = dict(result.table5_row(), H_CLB=result.table5_row()["H_CLB"] + 1)
    problems = flow_problems(golden, *fir_flow, table5_row=row)
    assert problems and "H_CLB" in problems[0]


def test_schedule_oracle_fires_when_jobs_go_missing():
    assert oracles.check_schedule("s", 190, 10, 200) == []
    assert oracles.check_schedule("s", 189, 10, 200)


def test_fabric_oracle_fires_on_overlapping_modules():
    runtime = FabricRuntime(XC5VLX110T)
    per_col = XC5VLX110T.family.clb_per_col * XC5VLX110T.family.luts_per_clb
    for name in ("a", "b"):
        runtime.admit(name, PRMRequirements(name, 2 * per_col, 2 * per_col, 2 * per_col))
    assert oracles.check_fabric("f", runtime) == []
    runtime.modules["b"].placement = runtime.modules["a"].placement
    assert oracles.check_fabric("f", runtime)


def test_batch_oracle_matches_scalar_and_fires_on_mutation():
    it = gen.dse_iteration(seed=3, index=0)
    batch = batch_evaluate(it.vector, XC5VLX110T)
    saw_infeasible = saw_feasible = False
    for j in it.scalar_sample[:60]:
        try:
            scalar = evaluate_prm(it.vector[j], XC5VLX110T)
        except InfeasiblePlacement as error:
            scalar = error
        assert oracles.check_batch_vs_scalar("b", batch, j, scalar) == []
        if isinstance(scalar, InfeasiblePlacement):
            saw_infeasible = True
            feasible_index = next(i for i in range(len(batch)) if batch.feasible[i])
            assert oracles.check_batch_vs_scalar("b", batch, feasible_index, scalar)
        else:
            saw_feasible = True
            wrong = dataclasses.replace(scalar, clb_req=scalar.clb_req + 1)
            assert oracles.check_batch_vs_scalar("b", batch, j, wrong)
    assert saw_feasible and saw_infeasible


def test_front_oracle_fires_on_dropped_front_design():
    device = gen.make_wide_device()
    prms = list(gen.dse_iteration(seed=5, index=0).prm_set[:5])
    designs = explore(device, prms)
    exhaustive = explore(device, prms, mode="exhaustive")
    assert oracles.check_front("f", designs, exhaustive) == []
    front = oracles.front_signature(designs)
    dropped = front[0]
    kept = [d for d in designs if (d.objectives, oracles.grouping(d)) != dropped]
    assert len(kept) == len(designs) - 1
    assert oracles.check_front("f", kept, exhaustive)


def test_front_signature_keeps_only_non_dominated_designs():
    def design(name, objectives):
        prm = SimpleNamespace(name=name)
        return SimpleNamespace(
            objectives=objectives, assignments=(SimpleNamespace(prms=(prm,)),)
        )

    designs = [design("a", (1, 5, 1.0)), design("b", (2, 2, 1.0)),
               design("c", (2, 5, 1.0)), design("d", (1, 5, 1.0))]
    assert [g for _, g in oracles.front_signature(designs)] == [
        (("a",),), (("d",),), (("b",),)
    ]


def test_floorplan_oracle_fires_on_overlap():
    def prr(col):
        return SimpleNamespace(region=Region(row=1, col=col, height=1, width=2))

    assert oracles.check_floorplan("p", SimpleNamespace(prrs=(prr(2), prr(4))), 2) == []
    assert oracles.check_floorplan("p", SimpleNamespace(prrs=(prr(2), prr(3))), 2)
    assert oracles.check_floorplan("p", SimpleNamespace(prrs=(prr(2),)), 2)


def test_serve_oracle_accepts_matching_answers_and_fires_on_mutation():
    prm = PRMRequirements("x", 500, 400, 300)
    fresh = evaluate_prm(prm, "xc5vlx110t")
    assert oracles.check_served("r", evaluate_prm(prm, "xc5vlx110t"), fresh) == []
    mutated = dataclasses.replace(fresh, clb_req=fresh.clb_req + 1)
    assert oracles.check_served("r", mutated, fresh)


def test_serve_oracle_judges_typed_errors_by_class():
    fresh_error = InfeasiblePlacement("fresh")
    assert oracles.check_served("r", InfeasiblePlacement("served"), fresh_error) == []
    assert oracles.check_served("r", InvalidInput("served"), fresh_error)
    assert oracles.check_served("r", RuntimeError("boom"), fresh_error)
    fresh = evaluate_prm(PRMRequirements("y", 500, 400, 300), "xc5vlx110t")
    assert oracles.check_served("r", InfeasiblePlacement("served"), fresh)
    assert oracles.check_served("r", fresh, fresh_error)

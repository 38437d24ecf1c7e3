"""Output-digest gate: recorded outputs the model must reproduce exactly.

A change that preserves outputs (a speed-up, a refactor) passes these
checks unchanged.  A change that moves a model output on purpose
re-records only the affected record — ``REPORT.txt``, one of the
``BENCH_*.json`` files via its script, or :data:`TABLE_V_BITSTREAMS` —
and explains every changed field.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from repro.bitgen import generate_partial_bitstream, parse_bitstream
from repro.cli import main
from repro.core import evaluate_prm
from repro.reports import EVALUATION_CASES
from repro.synth import synthesize

ROOT = Path(__file__).resolve().parent.parent

#: sha256 over the six Table V partial bitstreams and their parses.
TABLE_V_BITSTREAMS = "8612781ead7f38d815055f453d004be4e08ae3d37f51ae4b790bf3c6e629f4aa"


def test_report_matches_recorded_text(capsys):
    assert main(["report"]) == 0
    assert capsys.readouterr().out == (ROOT / "REPORT.txt").read_text()


def test_table_v_bitstreams_match_recorded_digest():
    digest = hashlib.sha256()
    for device, builder in EVALUATION_CASES:
        report = synthesize(builder(device.family), device.family)
        region = evaluate_prm(report.requirements, device).placement.region
        data = generate_partial_bitstream(
            device, region, design_name=report.design_name
        ).to_bytes()
        parsed = parse_bitstream(data)
        blocks = [
            (b.far.block_type, b.far.row, b.far.major, b.far.minor, b.far.top,
             b.data_words, b.preamble_words)
            for b in parsed.blocks
        ]
        fields = (
            report.design_name,
            device.name,
            parsed.total_words,
            parsed.initial_words,
            parsed.final_words,
            blocks,
            [int(command) for command in parsed.commands],
            parsed.crc_checked,
            parsed.crc_ok,
        )
        digest.update(data)
        digest.update(repr(fields).encode())
    assert digest.hexdigest() == TABLE_V_BITSTREAMS


@pytest.mark.parametrize(
    "script, record",
    [
        ("bench_defrag.py", "BENCH_defrag.json"),
        ("bench_reliability.py", "BENCH_reliability.json"),
    ],
)
def test_bench_script_reproduces_record(script, record):
    spec = importlib.util.spec_from_file_location(
        script.removesuffix(".py"), ROOT / "scripts" / script
    )
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    written = json.dumps(bench.sweep(), indent=2) + "\n"
    assert written == (ROOT / record).read_text()

"""Bitgen perf gate: array write+parse must stay >= 5x the per-word reference.

The paper's productivity claim (Table VIII) needs bitstream bytes in
seconds, and ``bitgen`` write+parse dominates the designer flow.  For the
MIPS PRM on the XC6VLX75T (the largest of the six Table V bitstreams),
generating and parsing with :mod:`repro.bitgen` must beat the per-word
reference in ``tests/differential/bitgen_reference.py`` by at least 5x.
An idle 2-vCPU Xeon host measures about 50x; the 5x gate tolerates
loaded CI boxes while still catching a change that puts a per-word loop
back on the burst path.  Byte identity and equal parse results are
asserted before timing, so a fast-but-wrong writer cannot pass.
"""

from __future__ import annotations

import time

from repro.bitgen import generate_partial_bitstream, parse_bitstream
from repro.core.api import evaluate_prm
from repro.devices import XC6VLX75T

from tests.conftest import paper_requirements
from tests.differential import bitgen_reference as ref

GATE_SPEEDUP = 5.0
REPEATS = 5


def _best_of(fn) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_bitgen_write_parse_5x_faster_than_reference():
    region = evaluate_prm(
        paper_requirements("mips", "virtex6"), XC6VLX75T
    ).placement.region

    def fast():
        data = generate_partial_bitstream(
            XC6VLX75T, region, design_name="mips"
        ).to_bytes()
        return data, parse_bitstream(data)

    def reference():
        data = ref.generate_bytes(XC6VLX75T, (region,), design_name="mips")
        return data, ref.parse_bitstream(data)

    data, parsed = fast()
    expected, expected_parsed = reference()
    assert data == expected
    assert parsed == expected_parsed and parsed.crc_ok

    fast_s = _best_of(fast)
    reference_s = _best_of(reference)
    speedup = reference_s / fast_s
    print(
        f"\nbitgen gate: {len(data)} bytes, reference={reference_s * 1e3:.1f} ms "
        f"array={fast_s * 1e3:.1f} ms speedup={speedup:.1f}x"
    )
    assert speedup >= GATE_SPEEDUP, (
        f"bitgen write+parse only {speedup:.1f}x faster than the per-word "
        f"reference; the >= {GATE_SPEEDUP}x gate failed"
    )

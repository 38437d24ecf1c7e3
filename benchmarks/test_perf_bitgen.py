"""Bitgen perf gates on the MIPS PRM on the XC6VLX75T.

The paper's productivity claim (Table VIII) needs bitstream bytes in
seconds, and ``bitgen`` write+parse dominates the designer flow.  For the
MIPS PRM on the XC6VLX75T (the largest of the six Table V bitstreams):

* generating and parsing with :mod:`repro.bitgen` must beat the per-word
  reference in ``tests/differential/bitgen_reference.py`` by at least 5x.
  A 2-vCPU Xeon host measures about 150x; the 5x gate tolerates
  loaded CI boxes while still catching a change that puts a per-word
  loop back on the burst path;
* the table-driven payload kernel must beat the xorshift step loop it
  replaced (kept in the same reference module) by at least 3x over the
  bitstream's bursts.  The same host measures 6-11x; the gate catches
  a change that puts a per-frame-word loop back.

Equal outputs are asserted before timing, so a fast-but-wrong kernel
cannot pass.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bitgen import generate_partial_bitstream, parse_bitstream
from repro.bitgen.generator import _burst_fars, _seed, _xorshift_frames
from repro.core.api import evaluate_prm
from repro.devices import BLOCK_TYPE_BRAM_CONTENT, BLOCK_TYPE_CONFIG, XC6VLX75T

from tests.conftest import paper_requirements
from tests.differential import bitgen_reference as ref

GATE_SPEEDUP = 5.0
KERNEL_GATE_SPEEDUP = 3.0
REPEATS = 5


def _best_of(fn) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _mips_region():
    return evaluate_prm(
        paper_requirements("mips", "virtex6"), XC6VLX75T
    ).placement.region


def test_bitgen_write_parse_5x_faster_than_reference():
    region = _mips_region()

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


def test_table_payloads_3x_faster_than_step_loop():
    region = _mips_region()
    bursts = [
        _burst_fars(XC6VLX75T, region, row, block_type)
        for row in region.row_span
        for block_type in (BLOCK_TYPE_CONFIG, BLOCK_TYPE_BRAM_CONTENT)
    ]
    bursts = [fars for fars in bursts if fars.size]
    seed = _seed("mips")
    frame_words = XC6VLX75T.family.frame_words

    def table():
        return [_xorshift_frames(seed, fars, frame_words) for fars in bursts]

    def steps():
        return [ref.xorshift_frames_steps(seed, fars, frame_words) for fars in bursts]

    for mine, expected in zip(table(), steps()):
        assert np.array_equal(mine, expected)

    table_s = _best_of(table)
    steps_s = _best_of(steps)
    speedup = steps_s / table_s
    frames = sum(fars.size for fars in bursts)
    print(
        f"\npayload kernel gate: {len(bursts)} bursts, {frames} frames, "
        f"step loop={steps_s * 1e3:.2f} ms table={table_s * 1e3:.2f} ms "
        f"speedup={speedup:.1f}x"
    )
    assert speedup >= KERNEL_GATE_SPEEDUP, (
        f"table payloads only {speedup:.1f}x faster than the step loop; "
        f"the >= {KERNEL_GATE_SPEEDUP}x gate failed"
    )

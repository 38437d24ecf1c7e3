"""Explorer perf gate: the subset table against the per-partition reference.

``explore`` evaluates each PRM subset's geometry once and memoizes the
Fig. 1 step of each (occupancy state, subset) pair;
``tests/differential/explorer_reference.py`` re-runs the placement
search per set partition through a placement cache.  On a fixed
synthetic 8-PRM set on the wide fabric of the ``dse_sweep`` benchmark
(Bell(8) = 4,140 partitions), the default exhaustive explore must return
the reference's design list exactly, then run >= 3x faster.

Each timed call starts with the cost-model memo caches cleared, as a
fresh PRM set finds them.  An idle 2-vCPU Xeon host measures 7-9x;
the gate tolerates loaded CI boxes while still catching a change that
puts per-partition geometry or placement work back on the path.
"""

from __future__ import annotations

import time

from repro.core.bitstream_model import clear_bitstream_cache
from repro.core.explorer import explore

from scripts.bench_explorer import WIDE_DEVICE, synthetic_prms
from tests.differential import explorer_reference as reference

EXPLORE_GATE = 3.0
REPEATS = 5


def _cold(fn):
    clear_bitstream_cache()
    reference.clear_bounds_cache()
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_explore_equal_to_reference_and_3x_faster():
    prms = synthetic_prms(8)
    designs = explore(WIDE_DEVICE, prms)
    assert len(designs) > 500  # most of the 4,140 partitions place
    assert designs == reference.explore(WIDE_DEVICE, prms)

    new_s = ref_s = float("inf")
    for _ in range(REPEATS):  # alternate so load drift hits both sides
        new_s = min(new_s, _cold(lambda: explore(WIDE_DEVICE, prms)))
        ref_s = min(ref_s, _cold(lambda: reference.explore(WIDE_DEVICE, prms)))
    speedup = ref_s / new_s
    assert speedup >= EXPLORE_GATE, (
        f"explore {new_s * 1e3:.1f} ms vs reference {ref_s * 1e3:.1f} ms: "
        f"{speedup:.1f}x < {EXPLORE_GATE}x"
    )

"""Ablation I: online PRR allocation with relocation-based defragmentation.

A dynamic admit/retire stream fragments the fabric; the
:class:`~repro.fabric.FabricRuntime` that compacts live modules with
compatibility-checked migrations sustains admission streams the same
runtime with ``auto_defrag`` off fails.  Reported: failure counts with
and without defragmentation, migrations performed, and the
external-fragmentation trajectory.
"""

import numpy as np

from repro.core.params import PRMRequirements
from repro.devices import VIRTEX5, make_device
from repro.fabric import AdmissionError, FabricConfig, FabricRuntime


def toy_device():
    return make_device("toy_alloc_bench", VIRTEX5, rows=2, layout="I C*16 I")


def prm(width_cols: int) -> PRMRequirements:
    pairs = width_cols * 20 * 8
    return PRMRequirements(f"w{width_cols}", pairs, pairs * 3 // 4, pairs // 2)


def run_stream(defragment: bool, *, seed: int = 2015, steps: int = 120):
    """A churn stream: random admissions (width 1-3) and retirements."""
    rng = np.random.default_rng(seed)
    config = FabricConfig() if defragment else FabricConfig(auto_defrag=False)
    runtime = FabricRuntime(toy_device(), config=config)
    live: list[str] = []
    failures = 0
    next_id = 0
    for _ in range(steps):
        if live and rng.random() < 0.45:
            victim = live.pop(rng.integers(len(live)))
            runtime.retire(victim)
        else:
            name = f"a{next_id}"
            next_id += 1
            try:
                runtime.admit(name, prm(int(rng.integers(1, 4))))
                live.append(name)
            except AdmissionError:
                failures += 1
    return runtime, failures


def test_defrag_reduces_failures(benchmark):
    def both():
        _, plain_failures = run_stream(defragment=False)
        compacting, defrag_failures = run_stream(defragment=True)
        return plain_failures, defrag_failures, compacting.migrations

    plain_failures, defrag_failures, migrations = benchmark(both)
    assert defrag_failures <= plain_failures
    assert migrations > 0
    print()
    print(
        f"failures: plain={plain_failures} defrag={defrag_failures} "
        f"(migrations performed: {migrations})"
    )


def test_fragmentation_stays_bounded_with_defrag():
    runtime, _ = run_stream(defragment=True, seed=7)
    assert 0.0 <= runtime.fragmentation_index() <= 1.0
    runtime.check_invariants()


def test_streams_are_deterministic():
    a1, f1 = run_stream(defragment=True, seed=42)
    a2, f2 = run_stream(defragment=True, seed=42)
    assert f1 == f2
    assert a1.occupied_regions() == a2.occupied_regions()

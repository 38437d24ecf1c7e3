"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of ``(seed, index)``: the same seed
gives the same inputs, whatever the timing of the run that consumes
them.  Nothing here calls into the cost models; the workloads hand the
generated inputs to the library's public functions.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass

from repro.core import PRMRequirements
from repro.devices import XC5VLX110T, XC6VLX75T
from repro.devices.catalog import make_device
from repro.devices.family import VIRTEX5
from repro.workloads import build_fir, build_mips, build_sdram

#: The paper's evaluation PRMs and devices (Tables V-VIII).
PAPER_BUILDERS = (("fir", build_fir), ("mips", build_mips), ("sdram", build_sdram))
PAPER_DEVICES = (XC5VLX110T, XC6VLX75T)
CATALOG_DEVICE_NAMES = tuple(device.name for device in PAPER_DEVICES)

# paper_flow scheduling stream: a fixed job count per stream keeps the
# per-pass scheduling work the same size on every seed.
JOBS_PER_STREAM = 200
ARRIVAL_RATE_PER_S = 1000.0
EXEC_SECONDS_RANGE = (0.5e-3, 2e-3)
IDLE_RETIRE_S = 1e-3  #: fabric churn: modules idle this long retire

# dse_sweep sizes.
#: Column kinds of each 8-PRM set.  A fixed mix keeps the explore cost of
#: one set close to the next, so a run's median settles in a few dozen sets.
DSE_SET_KINDS = ("dsp", "dsp", "bram", "bram", "clb", "clb", "clb", "clb")
DSE_VECTOR_SIZE = 10_000
DSE_SCALAR_SAMPLE = 200  #: scalar evaluate_prm calls per device per iteration

# serve_mix traffic shape.
HOT_KEYS = 64
REPEAT_SHARE = 0.70  #: requests that repeat a hot key
#: Every block of this many consecutive requests holds exactly
#: REPEAT_SHARE of hot-key repeats.  A per-request coin flip let the
#: first-seen share of a 30-s run vary by +-1 point between seeds, and
#: each point moved serve_mix's mean latency and throughput by ~3.5%.
REPEAT_BLOCK = 10
#: Share of first-seen keys that are sized to fit the XC5VLX110T but
#: not the XC6VLX75T and are sent to the XC6VLX75T; the expected answer
#: is a typed InfeasiblePlacement.
INFEASIBLE_SHARE = 0.05
INFEASIBLE_DEVICE = XC6VLX75T.name
#: CLB-only pair counts above the XC6VLX75T's largest PRR and below the
#: XC5VLX110T's (5750 and 12800 pairs respectively).
INFEASIBLE_PAIRS_RANGE = (7_000, 11_000)


def make_wide_device():
    """A wide synthetic Virtex-5 fabric for design-space exploration.

    Built fresh on each call so that each measured phase starts with a
    cold window index.
    """
    return make_device(
        "perfbench-wide-v5",
        VIRTEX5,
        rows=8,
        layout=(
            "I C*12 B C*10 D C*12 B C*10 D C*12 B K "
            "C*12 B C*10 D C*12 B C*10 D C*12 I"
        ),
        description="Synthetic wide Virtex-5 fabric for the dse_sweep workload.",
    )


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # String seeds hash through SHA-512, so streams do not depend on
    # PYTHONHASHSEED and do not overlap between workloads or indices.
    return random.Random(f"{workload}/{seed}/{index}")


# -- paper_flow -------------------------------------------------------------


@dataclass(frozen=True)
class JobStreamSpec:
    """One seeded Poisson job stream over a device's three paper PRMs."""

    arrivals_s: tuple[float, ...]
    task_index: tuple[int, ...]  #: index into PAPER_BUILDERS per job
    exec_seconds: tuple[float, float, float]  #: per PAPER_BUILDERS entry


@dataclass(frozen=True)
class PaperPass:
    """One round-robin pass: six designer flows, then two schedules per device."""

    index: int
    order: tuple[tuple[str, str], ...]  #: (builder name, device name)
    streams: tuple[tuple[str, JobStreamSpec], ...]  #: (device name, stream)


def paper_pass(seed: int, index: int) -> PaperPass:
    rng = _rng("paper_flow", seed, index)
    cases = [
        (name, device.name) for device in PAPER_DEVICES for name, _ in PAPER_BUILDERS
    ]
    start = (seed + index) % len(cases)
    order = tuple(cases[start:] + cases[:start])
    streams = []
    for device in PAPER_DEVICES:
        t = 0.0
        arrivals = []
        for _ in range(JOBS_PER_STREAM):
            t += rng.expovariate(ARRIVAL_RATE_PER_S)
            arrivals.append(t)
        streams.append(
            (
                device.name,
                JobStreamSpec(
                    arrivals_s=tuple(arrivals),
                    task_index=tuple(
                        rng.randrange(len(PAPER_BUILDERS))
                        for _ in range(JOBS_PER_STREAM)
                    ),
                    exec_seconds=tuple(
                        rng.uniform(*EXEC_SECONDS_RANGE) for _ in PAPER_BUILDERS
                    ),
                ),
            )
        )
    return PaperPass(index=index, order=order, streams=tuple(streams))


# -- dse_sweep --------------------------------------------------------------


@dataclass(frozen=True)
class DseIteration:
    """A fresh PRM set, a fresh PRM vector and the scalar sample indices.

    PRM names carry the iteration index, so no PRM repeats within a run
    and the library's per-process caches see a cold working set.
    """

    index: int
    prm_set: tuple[PRMRequirements, ...]
    vector: tuple[PRMRequirements, ...]
    scalar_sample: tuple[int, ...]  #: indices into ``vector``


def dse_iteration(seed: int, index: int) -> DseIteration:
    rng = _rng("dse_sweep", seed, index)
    kinds = list(DSE_SET_KINDS)
    rng.shuffle(kinds)
    prm_set = []
    for j, kind in enumerate(kinds):
        pairs = rng.randint(300, 700)
        prm_set.append(
            PRMRequirements(
                f"d{index}s{j}",
                lut_ff_pairs=pairs,
                luts=pairs - rng.randint(0, pairs // 3),
                ffs=rng.randint(pairs // 3, pairs),
                dsps=rng.randint(2, 8) if kind == "dsp" else 0,
                brams=rng.randint(1, 4) if kind == "bram" else 0,
            )
        )
    vector = []
    for j in range(DSE_VECTOR_SIZE):
        pairs = rng.randint(40, 24_000)
        vector.append(
            PRMRequirements(
                f"d{index}v{j}",
                lut_ff_pairs=pairs,
                luts=pairs - rng.randint(0, pairs // 4),
                ffs=rng.randint(pairs // 4, pairs),
                dsps=rng.randint(0, 48) if j % 4 == 0 else 0,
                brams=rng.randint(0, 24) if j % 4 == 1 else 0,
            )
        )
    sample = tuple(sorted(rng.sample(range(DSE_VECTOR_SIZE), DSE_SCALAR_SAMPLE)))
    return DseIteration(index, tuple(prm_set), tuple(vector), sample)


# -- serve_mix --------------------------------------------------------------


def _serve_prm(rng: random.Random, name: str) -> PRMRequirements:
    """A PRM that fits both catalog devices (it never mixes DSP and BRAM)."""
    pairs = rng.randint(100, 4000)
    kind = rng.random()
    return PRMRequirements(
        name,
        lut_ff_pairs=pairs,
        luts=pairs - rng.randint(0, pairs // 3),
        ffs=rng.randint(pairs // 3, pairs),
        dsps=rng.randint(1, 8) if kind < 0.3 else 0,
        brams=rng.randint(1, 4) if 0.3 <= kind < 0.6 else 0,
    )


@dataclass(frozen=True)
class ServeItem:
    """One request of the serve_mix stream, with the generator's own record."""

    index: int
    prm: PRMRequirements
    device: str
    first_seen: bool  #: the key has not been sent before in this stream
    expect_infeasible: bool  #: generated in the infeasible class


class ServeStream:
    """The seeded serve_mix request stream, handed out in order.

    Thread-safe: clients of a closed loop take the next request from one
    shared sequence, so the sequence of requests is the same for a seed
    whatever the interleaving of clients.
    """

    def __init__(self, seed: int) -> None:
        self._seed = seed
        rng = _rng("serve_mix", seed, -1)
        self.hot = tuple(
            (
                _serve_prm(rng, f"hot{k}"),
                CATALOG_DEVICE_NAMES[k % len(CATALOG_DEVICE_NAMES)],
            )
            for k in range(HOT_KEYS)
        )
        self._seen_hot: set[int] = set()
        self._block = (-1, frozenset())  #: (block index, positions that repeat)
        self._next = 0
        self._lock = threading.Lock()

    def warmup_prm(self, attempt: int) -> PRMRequirements:
        """A key outside the stream, for a setup's first answered request."""
        return _serve_prm(_rng("serve_mix/warmup", self._seed, attempt), f"warmup{attempt}")

    def _repeat_positions(self, block: int) -> frozenset[int]:
        if self._block[0] != block:
            rng = _rng("serve_mix/block", self._seed, block)
            count = round(REPEAT_SHARE * REPEAT_BLOCK)
            self._block = (block, frozenset(rng.sample(range(REPEAT_BLOCK), count)))
        return self._block[1]

    def next(self) -> ServeItem:
        with self._lock:
            index = self._next
            self._next += 1
            rng = _rng("serve_mix", self._seed, index)
            if index % REPEAT_BLOCK in self._repeat_positions(index // REPEAT_BLOCK):
                k = rng.randrange(HOT_KEYS)
                prm, device = self.hot[k]
                first = k not in self._seen_hot
                self._seen_hot.add(k)
                return ServeItem(index, prm, device, first, False)
            if rng.random() < INFEASIBLE_SHARE:
                pairs = rng.randint(*INFEASIBLE_PAIRS_RANGE)
                prm = PRMRequirements(
                    f"big{index}", pairs, pairs, rng.randint(pairs // 3, pairs)
                )
                return ServeItem(index, prm, INFEASIBLE_DEVICE, True, True)
            prm = _serve_prm(rng, f"new{index}")
            device = CATALOG_DEVICE_NAMES[rng.randrange(len(CATALOG_DEVICE_NAMES))]
            return ServeItem(index, prm, device, True, False)

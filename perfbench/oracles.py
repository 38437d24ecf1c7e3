"""Output oracles: each returns a list of problems, empty when the answer is right.

Every oracle compares the program's answer with an independent source
that holds on a correct build: the paper's golden Table V, the
bitstream's own size and CRC, the scalar cost model, the exhaustive
explorer, or simple accounting identities.
"""

from __future__ import annotations

import itertools
from pathlib import Path

from repro.errors import InfeasiblePlacement, ReproError

GOLDEN_TABLE5 = Path("tests") / "reports" / "golden" / "table5.txt"


# -- paper_flow -------------------------------------------------------------


def load_table5(path: Path) -> dict[tuple[str, str], dict[str, int]]:
    """Parse the golden Table V grid into ``{(prm, device): row}``."""
    lines = [line.split() for line in path.read_text().splitlines() if line.strip()]
    header = lines[0]
    rows = {}
    for cells in lines[2:]:  # line 1 is the dashed rule
        row = dict(zip(header, cells))
        prm, device = row.pop("prm"), row.pop("device")
        rows[(prm, device)] = {key: int(value) for key, value in row.items()}
    return rows


def check_flow(
    key: tuple[str, str],
    table5_row: dict[str, int],
    model_bytes: int,
    generated_bytes: int,
    parsed_bytes: int,
    crc_ok: bool,
    golden: dict[tuple[str, str], dict[str, int]],
) -> list[str]:
    problems = []
    if not model_bytes == generated_bytes == parsed_bytes:
        problems.append(
            f"{key}: bitstream bytes model={model_bytes} "
            f"generated={generated_bytes} parsed={parsed_bytes}"
        )
    if not crc_ok:
        problems.append(f"{key}: parsed bitstream CRC mismatch")
    expected = golden.get(key)
    if expected is None:
        problems.append(f"{key}: no golden Table V row")
    elif table5_row != expected:
        diff = sorted(
            k for k in set(expected) | set(table5_row)
            if expected.get(k) != table5_row.get(k)
        )
        problems.append(f"{key}: Table V row differs from golden in {diff}")
    return problems


def check_schedule(label: str, completed: int, dropped: int, offered: int) -> list[str]:
    if completed + dropped != offered:
        return [
            f"{label}: completed {completed} + dropped {dropped} != offered {offered}"
        ]
    return []


def check_fabric(label: str, runtime) -> list[str]:
    try:
        runtime.check_invariants()
    except AssertionError as error:
        return [f"{label}: fabric invariant violated: {error}"]
    return []


# -- dse_sweep --------------------------------------------------------------


def check_batch_vs_scalar(label: str, batch_result, index: int, scalar) -> list[str]:
    """``scalar`` is the evaluate_prm result, or the error it raised."""
    if isinstance(scalar, BaseException):
        if not isinstance(scalar, InfeasiblePlacement):
            return [f"{label}: scalar raised untyped {type(scalar).__name__}"]
        if bool(batch_result.feasible[index]):
            return [f"{label}: batch feasible where scalar is infeasible"]
        return []
    if not bool(batch_result.feasible[index]):
        return [f"{label}: batch infeasible where scalar is feasible"]
    if batch_result.result(index) != scalar:
        return [f"{label}: batch result differs from scalar evaluate_prm"]
    return []


def grouping(design) -> tuple:
    """A design's PRM-to-PRR grouping, independent of PRR order."""
    return tuple(sorted(tuple(sorted(p.name for p in a.prms)) for a in design.assignments))


def front_signature(designs) -> list[tuple]:
    """The Pareto front of *designs* as sorted ``(objectives, grouping)`` pairs.

    A design is on the front when no other design is at least as good on
    every objective and better on one.  Sorting by objectives puts every
    dominating design before the ones it dominates, and domination is
    transitive, so each candidate only needs testing against the front
    found so far.
    """
    keyed = sorted((design.objectives, grouping(design)) for design in designs)
    front: list[tuple] = []
    for objectives, groups in keyed:
        if not any(
            all(f <= c for f, c in zip(kept, objectives)) and kept != objectives
            for kept, _ in front
        ):
            front.append((objectives, groups))
    return front


def check_front(label: str, default_designs, exhaustive_designs) -> list[str]:
    """The default explore's front must equal the exhaustive explore's."""
    got, want = front_signature(default_designs), front_signature(exhaustive_designs)
    if got != want:
        return [
            f"{label}: default explore front ({len(got)} designs) != "
            f"exhaustive front ({len(want)} designs)"
        ]
    return []


def check_floorplan(label: str, plan, groups: int) -> list[str]:
    problems = []
    if len(plan.prrs) != groups:
        problems.append(f"{label}: floorplan has {len(plan.prrs)} PRRs for {groups} groups")
    for a, b in itertools.combinations(plan.prrs, 2):
        if a.region.overlaps(b.region):
            problems.append(f"{label}: floorplan regions {a.region} and {b.region} overlap")
    return problems


# -- serve_mix --------------------------------------------------------------


def check_served(label: str, served, fresh) -> list[str]:
    """``served``/``fresh`` are a result or the error raised for the request.

    A typed error is a correct answer when the fresh in-process call
    raises an error of the same taxonomy class (same ``code``).
    """
    if isinstance(served, BaseException):
        if not isinstance(served, ReproError):
            return [f"{label}: untyped error {type(served).__name__}: {served}"]
        if not isinstance(fresh, ReproError):
            return [f"{label}: served {served.code} but fresh evaluate_prm succeeded"]
        if served.code != fresh.code:
            return [f"{label}: served {served.code}, fresh raised {fresh.code}"]
        return []
    if isinstance(fresh, BaseException):
        return [f"{label}: served a result but fresh evaluate_prm raised {type(fresh).__name__}"]
    if served != fresh:
        return [f"{label}: served result differs from fresh evaluate_prm"]
    return []

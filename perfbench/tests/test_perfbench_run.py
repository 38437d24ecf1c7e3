"""End-to-end runs of the benchmark command, kept short.

Checks that each workload prints, as its last line, exactly the metric
names BENCHMARK.json declares, that all oracles pass on this tree, and
that the command refuses to run without the library's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, workload: str, trace: int, seconds: str = "1"):
    command = [sys.executable, *SPEC["command"][1:]]
    return subprocess.run(
        [*command, "--workload", workload, "--seed", "1", "--seconds", seconds,
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_printed_metrics_match_declaration(workload, trace):
    done = bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert "determinism" not in done.stdout
    else:
        assert "determinism: " in done.stdout


def test_declared_workloads_match_the_command():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.UNITS)


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_tail_is_p90_or_leaves_ten_samples_beyond():
    value, percentile, beyond = run.tail([float(i) for i in range(1000)])
    assert (value, percentile, beyond) == (899.0, 90.0, 100)
    value, percentile, beyond = run.tail([float(i) for i in range(30)])
    assert (value, beyond) == (19.0, 10) and percentile == pytest.approx(66.67, abs=0.01)
    assert run.tail([1.0, 2.0]) == (2.0, 100.0, 0)

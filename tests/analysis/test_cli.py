"""CLI front ends: ``python -m repro.analysis`` and ``repro-fpga analyze``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

from repro.analysis import ALL_RULES, load_baseline
from repro.analysis import main as analysis_main
from repro.cli import main as repro_main

from .conftest import REPO_ROOT

_FIXTURE = """
    def f():
        raise ValueError("bad")
"""


def _write_fixture(tmp_path):
    pkg = tmp_path / "repro"
    pkg.mkdir()
    (pkg / "mod.py").write_text(textwrap.dedent(_FIXTURE), encoding="utf-8")


def test_list_rules_names_all_six(capsys):
    assert analysis_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for name in ALL_RULES:
        assert name in out
    assert len(ALL_RULES) == 5


def test_fail_on_new_is_the_gate(tmp_path, capsys):
    _write_fixture(tmp_path)
    base = ["--root", str(tmp_path), "--no-baseline", str(tmp_path)]
    assert analysis_main(base) == 0  # report-only mode never fails
    assert analysis_main(base + ["--fail-on-new"]) == 1
    out = capsys.readouterr().out
    assert "repro/mod.py:3" in out
    assert "[typed-errors]" in out


def test_update_baseline_then_gate_passes(tmp_path, capsys):
    _write_fixture(tmp_path)
    baseline = tmp_path / "baseline.json"
    common = ["--root", str(tmp_path), "--baseline", str(baseline), str(tmp_path)]
    assert analysis_main(common + ["--update-baseline"]) == 0
    assert len(load_baseline(baseline)) == 1
    assert analysis_main(common + ["--fail-on-new"]) == 0
    assert "0 new finding(s), 1 baselined" in capsys.readouterr().out


def test_json_format_reports_new_and_baselined(tmp_path, capsys):
    _write_fixture(tmp_path)
    code = analysis_main(
        ["--root", str(tmp_path), "--no-baseline", "--format", "json", str(tmp_path)]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_checked"] == 1
    assert [f["rule"] for f in payload["new"]] == ["typed-errors"]
    assert payload["new"][0]["fingerprint"]


def test_unknown_rule_is_a_typed_cli_error(capsys):
    code = analysis_main(["--rules", "no-such-rule"])
    assert code == 2  # InvalidInput exit code
    assert "unknown rule" in capsys.readouterr().err


def test_repro_cli_analyze_subcommand(tmp_path, capsys):
    _write_fixture(tmp_path)
    code = repro_main(
        [
            "analyze",
            "--root",
            str(tmp_path),
            "--no-baseline",
            "--fail-on-new",
            str(tmp_path),
        ]
    )
    assert code == 1
    assert "[typed-errors]" in capsys.readouterr().out


def test_python_dash_m_entry_point():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--list-rules"],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0
    assert "lock-discipline" in proc.stdout

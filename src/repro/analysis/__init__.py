"""``repro.analysis`` — domain-aware static analysis for this codebase.

The packages under :mod:`repro` rely on invariants no general-purpose
linter knows about: the PR 4 determinism suite assumes no wall clock or
unseeded RNG leaks into model paths, the PR 5 error taxonomy assumes
nothing raises bare stdlib exceptions, and the PR 7 cluster assumes
every shared field is touched under its lock.  This package machine-
checks those invariants with a small AST rule engine:

=================  =========================================================
rule               invariant enforced
=================  =========================================================
lock-discipline    attributes assigned under ``with self._lock`` are never
                   mutated outside it; two locks are always acquired in one
                   order
determinism        no wall clock, unseeded RNG, or unordered ``set``
                   iteration on the model paths (``core``, ``bitgen``,
                   ``multitask``, ``devices``)
typed-errors       raises stay inside the :class:`~repro.errors.ReproError`
                   taxonomy; ``except Exception`` never silently swallows
units              no ``+``/``-``/comparison mixing ``_s``/``_ms``/
                   ``_bytes``/``_words``/``_frames`` quantities without an
                   explicit conversion
obs-hygiene        spans open only under ``with``; metric names are declared
                   in :data:`repro.obs.metrics.METRIC_NAMES`
=================  =========================================================

Findings carry ``file:line``, the rule id, and a fix hint.  Pre-existing
findings are grandfathered in a checked-in baseline file
(``analysis-baseline.json``); CI gates on zero *new* findings via
``repro-fpga analyze --fail-on-new`` (also ``python -m repro.analysis``).
Individual lines opt out with ``# analysis: allow(<rule>): <reason>``.
"""

from __future__ import annotations

from .baseline import Baseline, diff_findings, load_baseline, write_baseline
from .config import AnalysisConfig, RuleOptions, default_config
from .engine import AnalysisReport, analyze, iter_python_files
from .findings import Finding
from .registry import ALL_RULES
from .visitor import ModuleInfo, Rule

__all__ = [
    "ALL_RULES",
    "AnalysisConfig",
    "AnalysisReport",
    "Baseline",
    "Finding",
    "ModuleInfo",
    "Rule",
    "RuleOptions",
    "analyze",
    "default_config",
    "diff_findings",
    "iter_python_files",
    "load_baseline",
    "main",
    "write_baseline",
]


def main(argv=None) -> int:
    """CLI entry point (lazy import keeps ``import repro.analysis`` light)."""
    from .cli import main as _main

    return _main(argv)

"""Per-rule configuration and this repository's curated defaults."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..errors import InvalidInput

__all__ = ["RuleOptions", "AnalysisConfig", "default_config", "open_config"]


@dataclass(frozen=True, slots=True)
class RuleOptions:
    """Scope and knobs for one rule.

    ``include``/``exclude`` are root-relative posix path prefixes; an
    empty ``include`` means every analyzed file is in scope.  ``options``
    carries rule-specific knobs (e.g. ``allow_classes`` for
    ``typed-errors``).
    """

    enabled: bool = True
    include: tuple[str, ...] = ()
    exclude: tuple[str, ...] = ()
    options: Mapping[str, Any] = field(default_factory=dict)

    def in_scope(self, relpath: str) -> bool:
        if not self.enabled:
            return False
        if any(relpath.startswith(prefix) for prefix in self.exclude):
            return False
        if not self.include:
            return True
        return any(relpath.startswith(prefix) for prefix in self.include)


@dataclass(frozen=True, slots=True)
class AnalysisConfig:
    """Configuration for one analysis run: per-rule scopes and knobs."""

    rules: Mapping[str, RuleOptions] = field(default_factory=dict)

    def for_rule(self, name: str) -> RuleOptions:
        return self.rules.get(name, RuleOptions())

    def restricted_to(self, names: tuple[str, ...]) -> "AnalysisConfig":
        """A copy with every rule outside *names* disabled."""
        from .registry import ALL_RULES

        unknown = sorted(set(names) - set(ALL_RULES))
        if unknown:
            raise InvalidInput(
                f"unknown rule(s) {', '.join(unknown)}; "
                f"known: {', '.join(sorted(ALL_RULES))}"
            )
        rules = dict(self.rules)
        for rule_name in ALL_RULES:
            base = self.for_rule(rule_name)
            if rule_name not in names:
                rules[rule_name] = RuleOptions(
                    enabled=False,
                    include=base.include,
                    exclude=base.exclude,
                    options=base.options,
                )
        return AnalysisConfig(rules=rules)


def default_config() -> AnalysisConfig:
    """The curated configuration for analyzing this repository.

    Scopes mirror the invariants each rule protects: lock discipline on
    the threaded serving tier, determinism on the model paths the PR 4
    suite covers, the error taxonomy everywhere except the analyzer
    itself.
    """
    return AnalysisConfig(
        rules={
            "lock-discipline": RuleOptions(include=("repro/serve/",)),
            "determinism": RuleOptions(
                include=(
                    "repro/core/",
                    "repro/bitgen/",
                    "repro/multitask/",
                    "repro/devices/",
                    "repro/fabric/",
                ),
            ),
            "typed-errors": RuleOptions(
                include=("repro/",),
                exclude=("repro/analysis/",),
                options={
                    # CacheCorrupt is internal control flow: every raise
                    # is caught inside serve/cache.py and converted to a
                    # miss + quarantine; it never crosses the module API.
                    "allow_classes": ("CacheCorrupt",),
                },
            ),
            "units": RuleOptions(include=("repro/",)),
            "obs-hygiene": RuleOptions(
                include=("repro/",),
                # the obs package *defines* the span/metric machinery;
                # the analyzer package quotes rule patterns in docs.
                exclude=("repro/obs/", "repro/analysis/"),
            ),
        }
    )


def open_config(include_everything: bool = False) -> AnalysisConfig:
    """A config with every rule enabled everywhere (fixture testing)."""
    if not include_everything:
        return default_config()
    return AnalysisConfig(rules={})

"""Rule registry: name -> instance, in stable reporting order."""

from __future__ import annotations

from .rules import (
    DeterminismRule,
    LockDisciplineRule,
    ObsHygieneRule,
    TypedErrorsRule,
    UnitsRule,
)
from .visitor import Rule

__all__ = ["ALL_RULES"]

ALL_RULES: dict[str, Rule] = {
    rule.name: rule
    for rule in (
        LockDisciplineRule(),
        DeterminismRule(),
        TypedErrorsRule(),
        UnitsRule(),
        ObsHygieneRule(),
    )
}

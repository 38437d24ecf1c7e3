"""The shipped domain rules; the registry lives in
:mod:`repro.analysis.registry`."""

from __future__ import annotations

from .determinism import DeterminismRule
from .lock_discipline import LockDisciplineRule
from .obs_hygiene import ObsHygieneRule
from .typed_errors import TypedErrorsRule
from .units import UnitsRule

__all__ = [
    "DeterminismRule",
    "LockDisciplineRule",
    "ObsHygieneRule",
    "TypedErrorsRule",
    "UnitsRule",
]

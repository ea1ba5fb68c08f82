"""The built-in contract checkers.

Importing this package registers all four with :mod:`repro.lint.registry`
(each module applies the ``@register`` decorator at import time); the
registry imports it lazily, so ``repro.lint`` stays cheap to import.
"""

from repro.lint.checkers.canonical_fields import CanonicalFieldsChecker
from repro.lint.checkers.determinism import DeterminismChecker
from repro.lint.checkers.lock_discipline import LockDisciplineChecker
from repro.lint.checkers.picklability import PicklabilityChecker

__all__ = [
    "CanonicalFieldsChecker",
    "DeterminismChecker",
    "LockDisciplineChecker",
    "PicklabilityChecker",
]

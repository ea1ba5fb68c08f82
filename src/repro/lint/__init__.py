"""repro.lint — contract-enforcing static analysis for the repro tree.

The determinism, serialisation and concurrency contracts this codebase is
built on live in docstrings and reviewers' heads; this package turns them
into AST-level checks that run in CI.  ``python -m repro.lint check src
--strict`` is the gate: exit 0 means every canonical module is free of
wall clocks and unseeded RNG, record dicts stay within ``CANONICAL_FIELDS``,
nothing unpicklable reaches a process boundary, and lock-protected state is
never touched bare.  (The backend ``evaluate`` protocol needs no checker:
:class:`repro.pipeline.backends.Backend` validates every subclass when the
class is defined.)

Programmatic entry point::

    from repro.lint import run_lint
    report = run_lint(["src"])
    assert report.exit_code(strict=True) == 0, report.format_text()

Inline ``# repro: allow[check-id] why`` pragmas at sanctioned sites are the
only way to suppress a finding.
"""

from repro.lint.engine import LintReport, run_lint
from repro.lint.findings import ERROR, WARNING, Finding
from repro.lint.registry import (
    Checker,
    LintContext,
    checker_classes,
    default_checkers,
    register,
)

__all__ = [
    "Checker",
    "ERROR",
    "Finding",
    "LintContext",
    "LintReport",
    "WARNING",
    "checker_classes",
    "default_checkers",
    "register",
    "run_lint",
]

"""The structured output of every lint pass: :class:`Finding` objects.

A finding pins one contract violation to a ``path:line:col`` location with
the check that produced it, a severity and a human-actionable message.
Findings are value objects: the engine sorts, deduplicates and serialises
them, and the CLI renders them one per line in the classic
``path:line:col: [check] message`` compiler shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

#: Severity levels, in increasing order of gravity.
WARNING = "warning"
ERROR = "error"

_SEVERITY_RANK = {ERROR: 0, WARNING: 1}


@dataclass(frozen=True)
class Finding:
    """One contract violation at one source location."""

    check: str  #: stable check id (``determinism``, ``picklability``, ...)
    path: str  #: file path, relative to the lint root when possible
    line: int  #: 1-based line of the offending node
    col: int  #: 0-based column of the offending node
    message: str  #: what is wrong and what the contract expects
    severity: str = ERROR

    # ------------------------------------------------------------------ #
    @property
    def location(self) -> str:
        """``path:line:col`` — clickable in editors and CI logs."""
        return f"{self.path}:{self.line}:{self.col}"

    def format(self) -> str:
        """One CLI line: ``path:line:col: [check] severity: message``."""
        return f"{self.location}: [{self.check}] {self.severity}: {self.message}"

    def sort_key(self) -> Tuple[str, int, int, str]:
        """Stable report order: by file, then position, then check id."""
        return (self.path, self.line, self.col, self.check)

    def to_dict(self) -> Dict[str, Any]:
        """JSON projection (the ``--json`` report)."""
        return {
            "check": self.check,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity,
            "message": self.message,
        }


def severity_rank(severity: str) -> int:
    """Sort rank of a severity (errors first, unknown last)."""
    return _SEVERITY_RANK.get(severity, len(_SEVERITY_RANK))

"""The lint engine: collect files, run checkers, apply suppressions.

One :func:`run_lint` call is one conformance sweep: parse every file under
the given paths, run each registered checker's per-file pass, then the
cross-module ``finish`` passes, and set aside the raw findings that an
inline pragma allows (site-local, justified) — pragmas are the one
suppression layer.  The result is a :class:`LintReport` that knows how to
render itself for terminals and CI, and what exit code the run earned
under the sweep-diff convention (0 clean / 1 findings).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.lint.findings import ERROR, Finding, severity_rank
from repro.lint.registry import Checker, LintContext, default_checkers
from repro.lint.source import SourceFile, collect_sources


@dataclass
class LintReport:
    """Everything one lint run produced, suppressed findings included."""

    findings: List[Finding] = field(default_factory=list)  #: active (gating)
    pragma_suppressed: List[Finding] = field(default_factory=list)
    files: int = 0
    checkers: List[str] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    @property
    def errors(self) -> int:
        return sum(1 for f in self.findings if f.severity == ERROR)

    @property
    def warnings(self) -> int:
        return len(self.findings) - self.errors

    def exit_code(self, strict: bool = False) -> int:
        """0 clean / 1 findings, per the sweep-diff convention.

        Errors always gate.  ``--strict`` additionally gates warnings.
        """
        if self.errors:
            return 1
        if strict and self.findings:
            return 1
        return 0

    # ------------------------------------------------------------------ #
    def format_text(self) -> str:
        """The human report: one finding per line plus a summary."""
        lines = [f.format() for f in self.findings]
        summary = (
            f"{self.files} file(s): {self.errors} error(s), "
            f"{self.warnings} warning(s)"
        )
        if self.pragma_suppressed:
            summary += f" ({len(self.pragma_suppressed)} pragma-suppressed)"
        lines.append(summary)
        return "\n".join(lines)

    def to_json(self) -> Dict[str, object]:
        """The machine report (CI artifact, ``--json``)."""
        return {
            "format": 2,
            "files": self.files,
            "checkers": list(self.checkers),
            "summary": {
                "errors": self.errors,
                "warnings": self.warnings,
                "pragma_suppressed": len(self.pragma_suppressed),
            },
            "findings": [f.to_dict() for f in self.findings],
            "pragma_suppressed": [f.to_dict() for f in self.pragma_suppressed],
        }

    def format_json(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


def _dedupe(findings: List[Finding]) -> List[Finding]:
    seen = set()
    unique: List[Finding] = []
    for finding in findings:
        if finding not in seen:
            seen.add(finding)
            unique.append(finding)
    return unique


def run_lint(
    paths: Sequence[str],
    checkers: Optional[Sequence[Checker]] = None,
) -> LintReport:
    """Lint every python file under ``paths`` with ``checkers``.

    ``checkers`` defaults to the full registered set.  Pragma suppression
    consults the file the finding points at — cross-module findings are
    suppressible at the site they anchor to, like any other.
    """
    sources, syntax_findings = collect_sources(paths)
    active_checkers = list(checkers) if checkers is not None else default_checkers()
    ctx = LintContext(sources)

    raw: List[Finding] = list(syntax_findings)
    for checker in active_checkers:
        for src in sources:
            if src.tree is None:
                continue  # already reported as a syntax finding
            raw.extend(checker.check_file(src, ctx))
        raw.extend(checker.finish(ctx))
    raw = _dedupe(raw)
    raw.sort(key=lambda f: (severity_rank(f.severity), *f.sort_key()))

    by_path: Dict[str, SourceFile] = {src.path: src for src in sources}
    report = LintReport(
        files=len(sources), checkers=[c.id for c in active_checkers]
    )
    for finding in raw:
        src = by_path.get(finding.path)
        if src is not None and src.pragmas.allows(finding.line, finding.check):
            report.pragma_suppressed.append(finding)
        else:
            report.findings.append(finding)
    return report

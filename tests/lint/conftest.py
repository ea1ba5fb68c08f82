"""Fixture machinery for the lint tests: tiny on-disk package trees.

Every checker test writes a miniature package under ``tmp_path`` (module
names matter — the determinism and lock-discipline checkers are scoped by
dotted module prefix, and cross-module passes resolve files by content),
lints it, and asserts on the structured findings.
"""

import os
from typing import Dict, List, Optional, Sequence

import pytest

from repro.lint import Checker, LintReport, run_lint


@pytest.fixture
def make_tree(tmp_path):
    """Write ``{relpath: source}`` files (plus missing __init__.py) and lint.

    Returns a callable: ``make_tree(files, checkers=...)`` →
    :class:`LintReport`.  Package ``__init__.py`` files are created for
    every intermediate directory, so ``repro/sweep/events.py`` really lints
    as module ``repro.sweep.events``.
    """

    def build(
        files: Dict[str, str],
        checkers: Optional[Sequence[Checker]] = None,
    ) -> LintReport:
        root = tmp_path / "tree"
        root.mkdir(exist_ok=True)
        for relpath, source in files.items():
            target = root / relpath
            target.parent.mkdir(parents=True, exist_ok=True)
            directory = target.parent
            while directory != root:
                init = directory / "__init__.py"
                if not init.exists():
                    init.write_text("")
                directory = directory.parent
            target.write_text(source)
        return run_lint([os.fspath(root)], checkers=checkers)

    return build


def finding_lines(report: LintReport, check: str) -> List[int]:
    """Line numbers of the active findings of one check, sorted."""
    return sorted(f.line for f in report.findings if f.check == check)


def finding_messages(report: LintReport, check: str) -> List[str]:
    return [f.message for f in report.findings if f.check == check]

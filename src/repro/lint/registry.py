"""The pluggable checker registry.

A checker is a class with a stable ``id``, a one-line ``description`` and
two hooks: :meth:`Checker.check_file` runs once per parsed file,
:meth:`Checker.finish` runs once after every file has been seen — the seam
for cross-module passes that resolve facts from *different* files.
Checkers register with the :func:`register` decorator; importing
:mod:`repro.lint.checkers` fills the registry with the built-in four.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Type

from repro.lint.findings import ERROR, Finding
from repro.lint.source import SourceFile


class LintContext:
    """What every checker sees: all files of the run, indexed by module."""

    def __init__(self, files: List[SourceFile]) -> None:
        self.files = files
        self.by_module: Dict[str, SourceFile] = {f.module: f for f in files}

    def modules_ending(self, suffix: str) -> List[SourceFile]:
        """Files whose dotted module name ends with ``suffix``."""
        return [
            f
            for f in self.files
            if f.module == suffix or f.module.endswith("." + suffix)
        ]


class Checker:
    """Base class: override ``check_file`` and/or ``finish``."""

    id: str = ""
    description: str = ""
    severity: str = ERROR

    def check_file(self, src: SourceFile, ctx: LintContext) -> Iterable[Finding]:
        """Per-file pass; yields findings for ``src``."""
        return ()

    def finish(self, ctx: LintContext) -> Iterable[Finding]:
        """Cross-module pass, after every file was offered to check_file."""
        return ()

    # ------------------------------------------------------------------ #
    def finding(
        self, src: SourceFile, node, message: str, severity: str = None  # type: ignore[assignment]
    ) -> Finding:
        """Convenience constructor anchored at an AST node of ``src``."""
        return Finding(
            check=self.id,
            path=src.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            severity=severity if severity is not None else self.severity,
        )


_REGISTRY: Dict[str, Type[Checker]] = {}


def register(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator: add a checker to the registry (id must be unique)."""
    if not cls.id:
        raise ValueError(f"checker {cls.__name__} has no id")
    if cls.id in _REGISTRY and _REGISTRY[cls.id] is not cls:
        raise ValueError(f"duplicate checker id {cls.id!r}")
    _REGISTRY[cls.id] = cls
    return cls


def checker_classes() -> Dict[str, Type[Checker]]:
    """The registered checkers, keyed by id (built-ins import on demand)."""
    import repro.lint.checkers  # noqa: F401  — fills the registry

    return dict(_REGISTRY)


def default_checkers() -> List[Checker]:
    """Fresh instances of every registered checker, in id order."""
    return [cls() for _, cls in sorted(checker_classes().items())]

"""Lock discipline: attributes used under ``self._lock`` stay under it.

The serving layer and :class:`repro.pipeline.cache.PlanCache` (the bounded
LRU under every memo of the package) guard their shared state with plain
``threading.Lock`` instances and ``with self._lock:`` blocks.
The failure mode is not a missing lock — it is *partial* locking: an
attribute carefully mutated under the lock in one method and then read or
written bare in another, which is exactly the race a stress test only
catches once a year.

This checker infers the protected set per class instead of asking for
annotations: for every class that assigns a ``threading.Lock`` /
``threading.RLock`` / ``threading.Condition`` to a ``self`` attribute, any
*other* ``self`` attribute touched inside a ``with self.<lock>:`` block is
considered lock-protected, and every access to it *outside* such a block —
in any method except ``__init__``, where the instance is not yet published
— is flagged.  ``asyncio`` locks are out of scope (single-threaded event
loop; different discipline).

Scope defaults to the concurrent modules (``repro.serve.*``, the analytic
batch engine and the plan cache).  Deliberately unguarded attributes (immutable after
construction, monotonic counters read for display) stay out of the
protected set automatically as long as they are never touched under the
lock — mixing is what gets flagged.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.lint.astutil import import_map
from repro.lint.findings import Finding
from repro.lint.registry import Checker, LintContext, register
from repro.lint.source import SourceFile

#: Modules held to the discipline by default (prefix or exact match).
DEFAULT_LOCK_SCOPES: Tuple[str, ...] = (
    "repro.serve",
    "repro.pipeline.analytic_batch",
    "repro.pipeline.cache",
)

#: Constructors whose result makes a ``self`` attribute a lock.
_LOCK_TYPES = frozenset(
    {"threading.Lock", "threading.RLock", "threading.Condition"}
)

#: Methods where bare access is sanctioned: the instance is unpublished.
_CONSTRUCTION_METHODS = frozenset({"__init__", "__new__", "__post_init__"})


def _self_attr(node: ast.AST, self_name: str) -> str:
    """``self.x`` → ``"x"``; anything else → ``""``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == self_name
    ):
        return node.attr
    return ""


def _method_self(fn: ast.FunctionDef) -> str:
    args = [*fn.args.posonlyargs, *fn.args.args]
    for decorator in fn.decorator_list:
        if isinstance(decorator, ast.Name) and decorator.id in (
            "staticmethod",
            "classmethod",
        ):
            return ""
    return args[0].arg if args else ""


class _MethodScan(ast.NodeVisitor):
    """Attribute accesses of one method, split by lock depth."""

    def __init__(self, self_name: str, lock_attrs: Set[str]) -> None:
        self.self_name = self_name
        self.lock_attrs = lock_attrs
        self.depth = 0
        #: attr → first access node, per side of the lock
        self.under: Dict[str, ast.AST] = {}
        self.bare: Dict[str, ast.AST] = {}
        self.bare_all: List[Tuple[str, ast.AST]] = []

    def visit_With(self, node: ast.With) -> None:
        holds = any(
            _self_attr(item.context_expr, self.self_name) in self.lock_attrs
            for item in node.items
        )
        for item in node.items:
            self.visit(item.context_expr)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        if holds:
            self.depth += 1
        for stmt in node.body:
            self.visit(stmt)
        if holds:
            self.depth -= 1

    visit_AsyncWith = visit_With

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = _self_attr(node, self.self_name)
        if attr and attr not in self.lock_attrs:
            if self.depth > 0:
                self.under.setdefault(attr, node)
            else:
                self.bare.setdefault(attr, node)
                self.bare_all.append((attr, node))
        self.generic_visit(node)


def _lock_attrs(cls: ast.ClassDef, imports: Dict[str, str]) -> Set[str]:
    """``self`` attributes assigned a threading lock anywhere in the class."""
    locks: Set[str] = set()
    for fn in ast.walk(cls):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        self_name = _method_self(fn)
        if not self_name:
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Assign) or not isinstance(
                node.value, ast.Call
            ):
                continue
            func = node.value.func
            if isinstance(func, ast.Name):
                origin = imports.get(func.id, "")
            elif isinstance(func, ast.Attribute) and isinstance(
                func.value, ast.Name
            ):
                origin = imports.get(func.value.id, func.value.id) + "." + func.attr
            else:
                continue
            if origin not in _LOCK_TYPES:
                continue
            for target in node.targets:
                attr = _self_attr(target, self_name)
                if attr:
                    locks.add(attr)
    return locks


@register
class LockDisciplineChecker(Checker):
    """Attributes touched under ``self._lock`` are never touched bare."""

    id = "lock-discipline"
    description = (
        "attributes accessed inside `with self._lock:` blocks must never be "
        "accessed outside them (except during __init__)"
    )

    def __init__(self, scopes: Sequence[str] = DEFAULT_LOCK_SCOPES) -> None:
        self.scopes = tuple(scopes)

    def _in_scope(self, module: str) -> bool:
        return any(
            module == scope or module.startswith(scope + ".")
            for scope in self.scopes
        )

    def check_file(self, src: SourceFile, ctx: LintContext) -> Iterable[Finding]:
        if not self._in_scope(src.module):
            return ()
        imports = import_map(src.tree)
        findings: List[Finding] = []
        for cls in ast.walk(src.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            locks = _lock_attrs(cls, imports)
            if not locks:
                continue
            # Pass 1: the protected set — every attr seen under a lock in
            # any method — and the bare accesses, kept per method.
            scans: List[Tuple[ast.FunctionDef, _MethodScan]] = []
            protected: Set[str] = set()
            for fn in cls.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                self_name = _method_self(fn)
                if not self_name:
                    continue
                scan = _MethodScan(self_name, locks)
                for stmt in fn.body:
                    scan.visit(stmt)
                protected |= set(scan.under)
                scans.append((fn, scan))
            if not protected:
                continue
            # Pass 2: bare accesses to protected attrs, construction aside.
            for fn, scan in scans:
                if fn.name in _CONSTRUCTION_METHODS:
                    continue
                reported: Set[str] = set()
                for attr, node in scan.bare_all:
                    if attr not in protected or attr in reported:
                        continue
                    reported.add(attr)
                    findings.append(
                        self.finding(
                            src,
                            node,
                            f"self.{attr} is lock-protected in {cls.name} "
                            "(accessed inside `with self._lock:` elsewhere) "
                            f"but touched without the lock in {fn.name}() — "
                            "hold the lock or take a snapshot under it",
                        )
                    )
        return findings

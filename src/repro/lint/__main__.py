"""``python -m repro.lint`` — the contract-lint CLI.

Subcommands::

    check [PATHS...] [--strict] [--check ID]... [--json] [--quiet]
    checks

``check`` lints the given paths (default ``src``) and exits 0/1 under the
sweep-diff convention: errors always gate; ``--strict`` additionally gates
warnings.  ``checks`` lists the registered checkers.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.lint.engine import run_lint
from repro.lint.registry import checker_classes


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Contract-enforcing static analysis for the repro tree.",
    )
    sub = parser.add_subparsers(dest="command")

    check = sub.add_parser(
        "check", help="lint PATHS (default: src) and exit 0 clean / 1 findings"
    )
    check.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories to lint"
    )
    check.add_argument(
        "--strict",
        action="store_true",
        help="also gate warnings",
    )
    check.add_argument(
        "--check",
        dest="only",
        metavar="ID",
        action="append",
        help="run only this checker id (repeatable)",
    )
    check.add_argument(
        "--json", action="store_true", help="emit the machine-readable report"
    )
    check.add_argument(
        "--quiet", action="store_true", help="suppress the report, keep the exit code"
    )

    sub.add_parser("checks", help="list the registered checkers")
    return parser


def _run_check(ns: argparse.Namespace) -> int:
    available = checker_classes()
    checkers = None
    if ns.only:
        unknown = sorted(set(ns.only) - set(available))
        if unknown:
            print(
                f"unknown checker id(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(available))})",
                file=sys.stderr,
            )
            return 2
        checkers = [available[check_id]() for check_id in sorted(set(ns.only))]

    try:
        report = run_lint(ns.paths, checkers=checkers)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if not ns.quiet:
        print(report.format_json() if ns.json else report.format_text())
    return report.exit_code(strict=ns.strict)


def _run_checks() -> int:
    for check_id, cls in sorted(checker_classes().items()):
        print(f"{check_id}: {cls.description}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args: List[str] = list(argv) if argv is not None else sys.argv[1:]
    parser = _build_parser()
    ns = parser.parse_args(args)
    if ns.command == "checks":
        return _run_checks()
    if ns.command == "check":
        return _run_check(ns)
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())

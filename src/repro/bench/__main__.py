"""Benchmark claims and regression gate: ``python -m repro.bench``.

Subcommands::

    python -m repro.bench run [SUITE ...] [--smoke]
    python -m repro.bench gate FILE ... [--strict]

``run`` measures the same-process ratio claims of any subset of the five
claim suites (sim, pipeline, compile, analytic, serve — default all) in this
process, prints each suite's gate report, and exits 1 when a claim is out
of band or a parity check fails.  ``gate`` checks the output of
``python3 perfbench/run.py`` runs (the workload is the suite) against the
reference bands, exiting 1 on any out-of-band metric or incorrect result —
the ``python -m repro.sweep diff`` convention.  Both gate against
:data:`~repro.bench.references.DEFAULT_REFERENCES`.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.bench.claims import SUITES, run_suite
from repro.bench.gate import GateReport, gate_results
from repro.bench.model import BenchResult, load_result

SUBCOMMANDS = ("run", "gate")


def _parse_suites(names: List[str], parser: argparse.ArgumentParser) -> List[str]:
    chosen = names or list(SUITES)
    for name in chosen:
        if name not in SUITES:
            parser.error(
                f"unknown suite {name!r} (choose from: {', '.join(SUITES)})"
            )
    return chosen


def _load_files(
    paths: List[str], parser: argparse.ArgumentParser
) -> List[BenchResult]:
    results = []
    for path in paths:
        try:
            results.append(load_result(path))
        except (OSError, ValueError) as exc:
            parser.error(f"cannot load {path!r}: {exc}")
    return results


def _print_reports(reports: Sequence[GateReport], exit_code: int) -> None:
    for report in reports:
        print(report.format())
        print()
    verdict = "PASS" if exit_code == 0 else "FAIL"
    print(f"gate: {verdict} ({len(reports)} suite report(s))")


# --------------------------------------------------------------------------- #
def _run_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench run",
        description="Measure the same-process ratio claims in this process, "
        "gate them against the reference bands (exit 1 on an out-of-band "
        "claim or a failed parity check).",
    )
    parser.add_argument(
        "suites",
        nargs="*",
        metavar="SUITE",
        help=f"suites to run (default: all of {', '.join(SUITES)})",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="shrunk workloads: parity is checked, the bands are not",
    )
    args = parser.parse_args(argv)
    chosen = _parse_suites(args.suites, parser)

    results: List[BenchResult] = []
    for name in chosen:
        print(f"== running suite {name!r} ({SUITES[name].description})", flush=True)
        results.append(run_suite(name, smoke=args.smoke))

    reports, exit_code = gate_results(results)
    _print_reports(reports, exit_code)
    return exit_code


def _gate_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench gate",
        description="Gate perfbench results against the reference bands.  "
        "Each FILE (the output of one perfbench run) is checked.  Exit code "
        "0 when every result is correct and every metric in band, 1 "
        "otherwise.",
    )
    parser.add_argument(
        "files",
        nargs="+",
        metavar="FILE",
        help="perfbench outputs",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="also fail when a referenced metric is missing from a result",
    )
    args = parser.parse_args(argv)
    results = _load_files(args.files, parser)
    reports, exit_code = gate_results(results, strict=args.strict)
    _print_reports(reports, exit_code)
    return exit_code


# --------------------------------------------------------------------------- #
def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI driver; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in SUBCOMMANDS:
        return {
            "run": _run_main,
            "gate": _gate_main,
        }[argv[0]](argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Benchmark claims and performance-regression gate "
        "(subcommands: run, gate).",
    )
    # --help still acts; an unknown verb gets this error, not "unrecognized arguments".
    parser.parse_known_args(argv)
    parser.error(f"choose a subcommand: {', '.join(SUBCOMMANDS)}")
    return 2  # unreachable; parser.error exits


if __name__ == "__main__":
    sys.exit(main())

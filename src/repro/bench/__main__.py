"""Benchmark claims and regression gate: ``python -m repro.bench``.

Subcommands::

    python -m repro.bench run [SUITE ...] [--smoke] [--record HISTORY]
                              [--references REFS.json]
    python -m repro.bench record FILE ... --history HISTORY
    python -m repro.bench gate [FILE ...] [--history HISTORY] [--strict]
                               [--references REFS.json]
    python -m repro.bench trend [--history HISTORY] [--metric SUBSTR]
                                [--events LOG ...]

``run`` measures the same-process ratio claims of any subset of the four
claim suites (sim, pipeline, analytic, serve — default all) in this
process, prints each suite's gate report, optionally appends the envelopes
to a perf history, and exits 1 when a claim is out of band or a parity
check fails.  ``record`` appends result files to a history.  ``gate``
checks result files, or the newest history record per (suite, host),
against the reference bands, exiting 1 on any out-of-band metric or
incorrect result — the ``python -m repro.sweep diff`` convention.  A result
file is either the output of ``python3 perfbench/run.py`` (the workload is
the suite) or a native envelope.  ``trend`` renders per-metric history
tables and, given campaign event logs, per-worker throughput mined from the
stream.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.bench.claims import SUITES, run_suite
from repro.bench.gate import GateReport, gate_results
from repro.bench.history import PerfHistory
from repro.bench.model import BenchResult, load_result
from repro.bench.references import (
    DEFAULT_REFERENCES,
    ReferenceTable,
    load_references,
)
from repro.bench.trend import format_trend_report, format_worker_report

SUBCOMMANDS = ("run", "record", "gate", "trend")


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


def _references(
    path: Optional[str], parser: argparse.ArgumentParser
) -> ReferenceTable:
    if path is None:
        return DEFAULT_REFERENCES
    try:
        return load_references(path)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot load references {path!r}: {exc}")


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
        "claim or a failed parity check), and optionally append the results "
        "to a perf history.",
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
    parser.add_argument(
        "--record",
        metavar="HISTORY",
        default=None,
        help="append each suite's envelope to this perf-history JSONL",
    )
    parser.add_argument(
        "--references",
        metavar="REFS.json",
        default=None,
        help="reference table to gate against (default: the built-in table)",
    )
    args = parser.parse_args(argv)
    chosen = _parse_suites(args.suites, parser)
    references = _references(args.references, parser)

    results: List[BenchResult] = []
    for name in chosen:
        print(f"== running suite {name!r} ({SUITES[name].description})", flush=True)
        results.append(run_suite(name, smoke=args.smoke))

    if args.record:
        history = PerfHistory(args.record)
        for result in results:
            history.append(result)
        print(f"recorded {len(results)} result(s) to {args.record}")

    reports, exit_code = gate_results(results, references)
    _print_reports(reports, exit_code)
    return exit_code


def _record_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench record",
        description="Append result files (perfbench outputs or native "
        "envelopes) to an append-only perf-history JSONL.",
    )
    parser.add_argument("files", nargs="+", metavar="FILE", help="result files")
    parser.add_argument(
        "--history", required=True, help="perf-history JSONL to append to"
    )
    args = parser.parse_args(argv)
    results = _load_files(args.files, parser)
    history = PerfHistory(args.history)
    for result in results:
        record = history.append(result)
        print(
            f"recorded {record.suite} @ {record.host_key} "
            f"({len(record.metrics)} metric(s), "
            f"commit {(record.commit_id or 'unknown')[:10]})"
        )
    return 0


def _gate_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench gate",
        description="Gate benchmark results against the per-host reference "
        "bands.  Each FILE (a perfbench output or a native envelope) is "
        "checked; with --history the newest record per (suite, host) is "
        "checked.  Exit code 0 when every result is correct and every "
        "metric in band, 1 otherwise.  Smoke results never gate on bands.",
    )
    parser.add_argument(
        "files",
        nargs="*",
        metavar="FILE",
        help="result files: perfbench outputs or native envelopes",
    )
    parser.add_argument(
        "--history",
        metavar="HISTORY",
        default=None,
        help="gate the newest perf-history record per (suite, host) instead",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="also fail when a referenced metric is missing from a result",
    )
    parser.add_argument(
        "--references",
        metavar="REFS.json",
        default=None,
        help="reference table JSON (default: the built-in table)",
    )
    args = parser.parse_args(argv)
    references = _references(args.references, parser)

    if args.history is not None:
        if args.files:
            parser.error("pass FILEs or --history, not both")
        latest = PerfHistory(args.history).latest()
        if not latest:
            print(f"perf history {args.history!r} holds no records")
            return 1
        results = [record.to_result() for record in latest]
    elif args.files:
        results = _load_files(args.files, parser)
    else:
        parser.error("nothing to gate: pass FILEs or --history")

    reports, exit_code = gate_results(results, references, strict=args.strict)
    _print_reports(reports, exit_code)
    return exit_code


def _trend_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench trend",
        description="Render per-metric history tables (value and delta per "
        "recorded commit/host) and, given campaign event logs, per-worker "
        "throughput mined from the persisted event stream.",
    )
    parser.add_argument(
        "--history", metavar="HISTORY", default=None, help="perf-history JSONL"
    )
    parser.add_argument(
        "--suite", default=None, help="restrict history tables to one suite"
    )
    parser.add_argument(
        "--metric",
        default=None,
        help="restrict history tables to metrics containing this substring",
    )
    parser.add_argument(
        "--no-smoke",
        action="store_true",
        help="exclude smoke records from the history tables",
    )
    parser.add_argument(
        "--events",
        nargs="+",
        metavar="LOG",
        default=None,
        help="campaign event logs to mine for per-worker throughput",
    )
    args = parser.parse_args(argv)
    if args.history is None and not args.events:
        parser.error("nothing to report: pass --history and/or --events")

    sections = []
    if args.history is not None:
        records = PerfHistory(args.history).records(
            suite=args.suite, include_smoke=not args.no_smoke
        )
        sections.append(format_trend_report(records, contains=args.metric))
    for log in args.events or ():
        sections.append(format_worker_report(log))
    print("\n\n".join(sections))
    return 0


# --------------------------------------------------------------------------- #
def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI driver; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in SUBCOMMANDS:
        return {
            "run": _run_main,
            "record": _record_main,
            "gate": _gate_main,
            "trend": _trend_main,
        }[argv[0]](argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Benchmark claims and performance-regression gate "
        "(subcommands: run, record, gate, trend).",
    )
    parser.parse_args(argv)
    parser.error(f"choose a subcommand: {', '.join(SUBCOMMANDS)}")
    return 2  # unreachable; parser.error exits


if __name__ == "__main__":
    sys.exit(main())

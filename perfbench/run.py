"""Run one workload of the repository benchmark and print its metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload campaign_cold --seed 1 --seconds 16 --trace 0

``--seed`` is the only source of the workload's inputs: the same seed gives
the same inputs.  The run measures for about ``--seconds`` seconds, checks
every output it times against a reference, and prints, as its last line,
one JSON object::

    {"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` metrics declared in
``BENCHMARK.json`` (measured without tracing); with ``--trace 1`` they are
the ``per_layer`` metrics, from spans the benchmark records around calls
into the program's layers.  Layers a workload does not load report 0.  The
spans of a traced run are written to ``.perfbench/trace-<workload>-<seed>.json``.

End-to-end times are host-normalised (``common.HostClock``): each timed
unit is bracketed by a fixed calibration loop and scaled to the loop's
nominal speed, because a shared host's speed drifts by up to 2x within a
minute.  The open-loop figures of a traced ``serve`` run are wall-clock.

Each run also records counters that depend only on the seed and the code
(output digests, plan-cache misses, simulated statistics, ...) in
``.perfbench/counters-<workload>-<seed>-<trace>.json``; a later run of the
same seed on the same sources must reproduce them exactly.

A correctness mismatch makes the run exit 1 (after printing the result
with ``"correct": false``).  Without the program's sources (``src/repro``)
the run prints no result and exits 2.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import sys
from pathlib import Path

#: workload -> (module in this directory, function)
WORKLOADS = {
    "campaign_cold": ("campaigns", "campaign_cold"),
    "campaign_reprice": ("campaigns", "campaign_reprice"),
    "serve": ("serving", "serve"),
    "sim_fig2": ("simulation", "sim_fig2"),
    "sim_latency": ("simulation", "sim_latency"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def check_counters(outcome, path: Path, source: str) -> None:
    """Compare the run's exact counters with an earlier run of the same code.

    The first run of a (workload, seed, trace) on some code records them;
    every later run of it in the same checkout must reproduce them exactly.
    """
    counters = json.loads(json.dumps(outcome.counters, sort_keys=True))
    if path.is_file():
        earlier = json.loads(path.read_text())
        if earlier["source"] == source:
            for name, value in earlier["counters"].items():
                outcome.check(counters.get(name) == value,
                              f"{name} differs from an earlier run of this seed: "
                              f"{counters.get(name)!r} vs {value!r}")
            return
    path.write_text(json.dumps({"source": source, "counters": counters}, sort_keys=True))


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {root / 'src'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in declared[section]}

    sys.path.insert(0, str(root / "src"))
    import common

    module_name, function = WORKLOADS[args.workload]
    workload = getattr(importlib.import_module(module_name), function)
    common.WORK.mkdir(exist_ok=True)
    trace_path = common.WORK / f"trace-{args.workload}-{args.seed}.json"
    try:
        outcome = workload(args.seed, args.seconds, bool(args.trace), trace_path)
    finally:
        # Campaign checkpoints and event logs are scratch; traces and counters stay.
        shutil.rmtree(common.WORK / "campaign", ignore_errors=True)

    check_counters(outcome, common.WORK / f"counters-{args.workload}-{args.seed}-{args.trace}.json",
                   common.source_digest())
    unknown = sorted(set(outcome.metrics) - set(units))
    if unknown:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json {section}: {unknown}")
    if not args.trace:
        missing = sorted(set(units) - set(outcome.metrics))
        if missing:
            raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    metrics = {
        name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }

    print(f"host: {json.dumps(common.host_stamp(), sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}")
    for note in outcome.notes:
        print(f"  {note}")
    for problem in outcome.mismatches:
        print(f"MISMATCH: {problem}", file=sys.stderr)
    correct = not outcome.mismatches
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed + len(outcome.mismatches),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

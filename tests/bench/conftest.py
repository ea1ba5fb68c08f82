"""Fixtures for the repro.bench test-suite: perfbench-shaped results."""

import json

import pytest

#: The eight exact work counters of a traced ``campaign_cold`` run, plus two
#: end-to-end timings the gate must leave unreferenced.
COLD_METRICS = {
    "compile.calls": 96.0,
    "compile.ranges_calls_per_compile": 0.125,
    "plan_cache.misses": 96.0,
    "plan_cache.hits": 96.0,
    "pricing.calls": 1.0,
    "pricing.points": 192.0,
    "sweep.events": 386.0,
    "sweep.points_failed": 0.0,
    "compile.s": 0.72,
    "throughput_per_s": 205.0,
}


def perfbench_text(
    workload="campaign_cold",
    metrics=None,
    *,
    correct=True,
    failed=0,
    host="box:x86_64",
    nproc=2,
):
    """What ``python3 perfbench/run.py`` prints for one run."""
    metrics = COLD_METRICS if metrics is None else metrics
    stamp = {"host": host, "nproc": nproc, "python": "3.11.7", "source_sha256": "ab12"}
    result = {
        "correct": correct,
        "attempted": 1152,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": "count"} for name, value in metrics.items()
        },
    }
    return "\n".join([
        f"host: {json.dumps(stamp, sort_keys=True)}",
        f"workload {workload}, seed 1, 4 s, trace 1",
        "  space: cold-1: 192 points, backends [analytic]",
        json.dumps(result),
    ]) + "\n"


@pytest.fixture
def perfbench_result(tmp_path):
    """Write a perfbench result to ``tmp_path``; returns its path as a string."""
    count = iter(range(1000))

    def write(*args, **kwargs):
        path = tmp_path / f"perfbench-{next(count)}.out"
        path.write_text(perfbench_text(*args, **kwargs))
        return str(path)

    return write

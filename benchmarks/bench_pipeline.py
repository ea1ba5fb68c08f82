"""Benchmarks for the compilation pipeline's fast path and the sweep engine.

Four claims are tracked so future PRs can watch the fast path:

* the ``analytic`` backend predicts the Figure-2 workload orders of magnitude
  faster than cycle-accurate simulation, while staying inside its 5% cycle
  tolerance (traffic and ops are exact);
* the keyed plan cache turns repeated compilations of the same problem into
  lookups;
* a DSE sweep that prices the space analytically and re-simulates only the
  Pareto front selects the same design as simulating everything, measurably
  faster;
* a 200+-point campaign sharded over a process pool (``jobs=4``) beats the
  serial runner on multi-core hosts, produces byte-identical results, and
  resumes from its JSONL checkpoint without re-evaluating completed points.

Run standalone with ``python benchmarks/bench_pipeline.py [--jobs N]``; the
parallel-campaign numbers land in ``BENCH_pipeline.json`` via
``--benchmark-json`` and in each test's ``extra_info``.  Set
``REPRO_BENCH_SMOKE=1`` (CI does) to shrink the campaign and skip the
wall-clock assertions — exactness (tolerance, determinism, resume) is
always enforced.  Every test stamps ``smoke``/``cpus``/``contended`` so
the regression gate (``python -m repro.bench gate``) can filter correctly.
"""

import os
import sys
import time
from dataclasses import replace

if __package__ in (None, ""):  # direct invocation: python benchmarks/bench_pipeline.py
    _ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for _path in (_ROOT, os.path.join(_ROOT, "src")):
        if _path not in sys.path:
            sys.path.insert(0, _path)

from benchmarks.conftest import run_once
from repro.bench.host import contention, cpu_count, host_extra_info, smoke_mode
from repro.core.partition import StreamBufferMode
from repro.pipeline import (
    ANALYTIC_TOLERANCE,
    EvaluationRequest,
    StencilProblem,
    clear_plan_cache,
    compile,
    evaluate,
)
from repro.pipeline.cache import PlanCache, plan_cache
from repro.api import Workbench
from repro.sweep import SweepSpec

SMOKE = smoke_mode()


def sweep_candidates():
    base = StencilProblem.paper_example(11, 11)
    return [
        replace(
            base,
            max_stream_reach=reach,
            name=f"reach-{reach}" if reach is not None else "unconstrained",
        )
        for reach in (0, 2, 4, 8, 11, None)
    ]


class TestAnalyticSpeedup:
    def test_bench_analytic_backend(self, benchmark):
        """Time the analytic backend on the paper's 100-instance workload."""
        design = compile(StencilProblem.paper_example())
        request = EvaluationRequest(iterations=100)

        t0 = time.perf_counter()
        simulated = evaluate(design, backend="simulate", request=request)
        simulate_seconds = time.perf_counter() - t0

        predicted = run_once(
            benchmark, evaluate, design, backend="analytic", request=request
        )
        t1 = time.perf_counter()
        evaluate(design, backend="analytic", request=request)
        predict_seconds = max(time.perf_counter() - t1, 1e-9)

        error = abs(predicted.cycles - simulated.cycles) / simulated.cycles
        speedup = simulate_seconds / predict_seconds
        benchmark.extra_info.update(host_extra_info())
        benchmark.extra_info.update(
            analytic_speedup=round(speedup, 1), cycle_error=round(error, 4)
        )
        print()
        print(f"simulate: {simulated.cycles} cycles in {simulate_seconds * 1e3:.1f} ms")
        print(f"analytic: {predicted.cycles} cycles in {predict_seconds * 1e6:.0f} us "
              f"({error:+.2%} cycle error, {speedup:,.0f}x faster)")
        assert error <= ANALYTIC_TOLERANCE
        assert predicted.dram_bytes == simulated.dram_bytes
        if not SMOKE:
            assert speedup > 20


class TestPlanCacheBenchmark:
    def test_bench_cold_vs_cached_compile(self, benchmark):
        """Time a cold 256x256 compilation; cached lookups must be ~free."""
        problem = StencilProblem.paper_example(256, 256)
        cache = PlanCache()

        cold = run_once(benchmark, compile, problem, cache=cache)

        t0 = time.perf_counter()
        repeats = 50
        for _ in range(repeats):
            cached = compile(StencilProblem.paper_example(256, 256), cache=cache)
        cached_seconds = (time.perf_counter() - t0) / repeats

        stats = cache.stats()
        benchmark.extra_info.update(host_extra_info())
        benchmark.extra_info.update(hit_rate=round(stats.hit_rate, 4))
        print()
        print(f"plan cache after {repeats} re-compilations: {stats.hits} hits, "
              f"{stats.misses} miss(es), hit rate {stats.hit_rate:.1%}, "
              f"{cached_seconds * 1e6:.0f} us per cached compile")
        assert cached is cold
        assert stats.misses == 1
        assert stats.hits == repeats

    def test_bench_shared_cache_across_consumers(self, benchmark):
        """Eval-style reuse: figure2 + table1 + DSE hit one shared cache."""
        from repro.eval.figure2 import run_figure2
        from repro.eval.table1 import run_table1

        clear_plan_cache()

        def consumers():
            run_figure2(iterations=5)
            run_table1()
            return plan_cache.stats()

        stats = run_once(benchmark, consumers)
        benchmark.extra_info.update(host_extra_info())
        benchmark.extra_info.update(cache_hits=stats.hits)
        print()
        print(f"shared plan cache: {stats.entries} entries, {stats.hits} hits, "
              f"{stats.misses} misses")
        # figure2's 11x11 hybrid problem is re-used by table1's hybrid row
        assert stats.hits >= 1


class TestDseSweepBenchmark:
    def test_bench_analytic_sweep_vs_full_simulation(self, benchmark):
        """The acceptance claim: same selected design, measurably faster."""
        candidates = sweep_candidates()
        iterations = 5

        def best_of(fn, rounds=3):
            result, best = None, float("inf")
            for _ in range(rounds):
                t0 = time.perf_counter()
                result = fn()
                best = min(best, time.perf_counter() - t0)
            return result, max(best, 1e-9)

        full, full_seconds = best_of(
            lambda: Workbench(jobs=1).explore(
                candidates, iterations=iterations, backend="simulate", simulate_front=False
            )
        )
        fast = run_once(
            benchmark, Workbench(jobs=1).explore, candidates, iterations=iterations
        )
        _, fast_seconds = best_of(
            lambda: Workbench(jobs=1).explore(candidates, iterations=iterations)
        )

        benchmark.extra_info.update(host_extra_info())
        benchmark.extra_info.update(
            sweep_speedup=round(full_seconds / fast_seconds, 2),
            simulated_count=fast.simulated_count,
        )
        print()
        print(fast.format())
        print(f"full simulation : {full.simulated_count} candidates simulated "
              f"in {full_seconds * 1e3:.1f} ms (best of 3)")
        print(f"analytic + front: {fast.simulated_count} candidates simulated "
              f"in {fast_seconds * 1e3:.1f} ms ({full_seconds / fast_seconds:.1f}x faster)")
        assert fast.selected.label == full.selected.label
        assert fast.selected.cycles == full.selected.cycles
        assert fast.simulated_count < full.simulated_count
        # best-of-3 on both sides keeps this ordering robust to scheduler noise;
        # the structural margin is ~(candidates / front) in simulated work
        if not SMOKE:
            assert fast_seconds < full_seconds


def campaign_spec() -> SweepSpec:
    """A 240-point analytic campaign (the acceptance-scale parallel workload).

    Smoke mode shrinks it to 16 points: the parallel/serial/resume contracts
    are still exercised end to end, just not at a scale worth timing.
    """
    if SMOKE:
        grid_sizes = tuple((rows, cols) for rows in (17, 23) for cols in (19, 25))
        reaches = (0, None)
    else:
        grid_sizes = tuple(
            (rows, cols) for rows in (17, 23, 29, 37, 41, 47) for cols in (19, 25, 31, 35)
        )
        reaches = (0, 2, 4, 8, None)
    return SweepSpec(
        name="bench-campaign",
        base=StencilProblem.paper_example(11, 11),
        grid_sizes=grid_sizes,
        max_stream_reaches=reaches,
        modes=(StreamBufferMode.HYBRID, StreamBufferMode.REGISTER_ONLY),
        backends=("analytic",),
        iterations=3,
    )


class TestParallelCampaignBenchmark:
    def test_bench_parallel_campaign(self, benchmark, tmp_path):
        """The acceptance claim: 200+ points, jobs=4 vs jobs=1, resumable."""
        spec = campaign_spec()
        n_points = spec.size
        if not SMOKE:
            assert n_points >= 200
        jobs = int(os.environ.get("REPRO_BENCH_JOBS", "4"))
        cpus = cpu_count()

        workbench = Workbench(jobs=jobs)
        clear_plan_cache()
        t0 = time.perf_counter()
        serial = workbench.run(spec, jobs=1)
        serial_seconds = time.perf_counter() - t0

        # Forked workers inherit the parent's plan cache; clear it before each
        # parallel run so the comparison measures real compilation work.
        clear_plan_cache()
        parallel = run_once(benchmark, workbench.run, spec)
        clear_plan_cache()
        t1 = time.perf_counter()
        parallel_again = workbench.run(spec)
        parallel_seconds = max(time.perf_counter() - t1, 1e-9)
        speedup = serial_seconds / parallel_seconds

        checkpoint = tmp_path / "bench-campaign.jsonl"
        first = workbench.run(spec, checkpoint=str(checkpoint))
        resumed = workbench.run(spec, checkpoint=str(checkpoint))

        # A pool with more workers than cores cannot speed anything up: on
        # such hosts (single-core containers, contended CI runners) the
        # recorded "speedup" is a scheduling artefact, not a regression.
        # Label it so the BENCH trajectory stays interpretable and the gate
        # knows to exempt the speedup (see repro.bench.references).
        contended = jobs < 2 or contention(jobs)
        benchmark.extra_info.update(host_extra_info(jobs=jobs))
        benchmark.extra_info.update(
            points=n_points,
            jobs=jobs,
            contended=contended,
            serial_seconds=round(serial_seconds, 4),
            parallel_seconds=round(parallel_seconds, 4),
            parallel_speedup=round(speedup, 3),
            resumed_points=resumed.resumed,
        )
        print()
        print(f"campaign: {n_points} analytic points, jobs={jobs} on {cpus} core(s)"
              f"{' [contended]' if contended else ''}")
        print(f"jobs=1 : {serial_seconds * 1e3:.0f} ms")
        print(f"jobs={jobs} : {parallel_seconds * 1e3:.0f} ms ({speedup:.2f}x vs serial)")
        print(f"resume : {first.evaluated} evaluated first run, "
              f"{resumed.evaluated} on resume ({resumed.resumed} loaded from checkpoint)")

        # Determinism: the parallel campaign is byte-identical to the serial one.
        assert serial.to_json() == parallel.to_json() == parallel_again.to_json()
        # Resume: nothing is re-evaluated when the checkpoint is complete.
        assert first.evaluated == n_points
        assert resumed.evaluated == 0 and resumed.resumed == n_points
        assert resumed.to_json() == serial.to_json()
        if not contended and not SMOKE:
            assert speedup > 1.1
        elif contended:
            print(f"{cpus} core(s), {jobs} jobs: {speedup:.2f}x recorded as "
                  "contended, not asserted")


if __name__ == "__main__":
    from repro.bench.suites import standalone_main

    sys.exit(standalone_main("pipeline"))

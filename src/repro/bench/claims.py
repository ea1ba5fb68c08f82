"""Same-process ratio claims: what ``python -m repro.bench run`` measures.

Each claim times a fast path against its reference path in one process,
checks that both produce the same output, and records named metrics.  The
ratios are judged by the bands in :mod:`repro.bench.references`, each at
exactly the bound the claim states; the parity checks are judged always,
smoke or not, because a speedup of a wrong answer is no speedup.

Claims are grouped into five suites.  A metric is named
``<suite>.<claim>.<field>`` — ``analytic.scalar_vs_vectorized.warm_speedup``
— so the reference bands key each claim by the same name.
``smoke`` shrinks every workload to check plumbing and parity only.

The program's modules are imported inside the claims, not at module level:
``perfbench/`` imports :mod:`repro.bench.host` while it measures set-up
time and memory, and importing this package must not load the simulator or
the server.
"""

from __future__ import annotations

import asyncio
import json
import os
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple, TypeVar

import numpy as np

from repro.bench.host import contention, current_host
from repro.bench.model import BenchResult

T = TypeVar("T")


@dataclass
class Measure:
    """What one claim reports: its metrics and its parity failures."""

    smoke: bool
    metrics: Dict[str, float] = field(default_factory=dict)
    mismatches: List[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.mismatches.append(message)

    def record(self, **metrics: float) -> None:
        self.metrics.update(metrics)


Claim = Callable[[Measure], None]


def _seconds(fn: Callable[[], T]) -> Tuple[T, float]:
    """``fn()`` and its wall time (floored so ratios stay finite)."""
    start = time.perf_counter()
    value = fn()
    return value, max(time.perf_counter() - start, 1e-9)


def _best_of(fn: Callable[[], T], rounds: int) -> Tuple[T, float]:
    """The last result of ``rounds`` calls and the fastest call's seconds."""
    result, best = _seconds(fn)
    for _ in range(rounds - 1):
        result, seconds = _seconds(fn)
        best = min(best, seconds)
    return result, best


# --------------------------------------------------------------------------- #
# sim: the fast simulation core
# --------------------------------------------------------------------------- #
def _engines(m: Measure, system: str, latency_bound: bool, iterations: int) -> Dict[str, Any]:
    """Run the paper's 11x11 system on both engines; check bit-identity.

    ``latency_bound`` models a heavily-queued external memory (~1 us read
    latency at a 300 MHz fabric clock): the regime idle-horizon skipping is
    built for.  Returns the fast result plus both engines' seconds.
    """
    from repro.arch.system import BaselineSystem, SmacheSystem
    from repro.memory.dram import DRAMTiming
    from repro.pipeline import StencilProblem, compile
    from repro.reference.stencil_exec import make_test_grid

    timing = DRAMTiming(random_access_cycles=8, read_latency=300) if latency_bound else None
    system_cls = SmacheSystem if system == "smache" else BaselineSystem
    design = compile(StencilProblem.paper_example(11, 11))
    runs: Dict[str, Tuple[Any, float]] = {}
    for engine in ("naive", "fast"):
        sim = system_cls(design, iterations=iterations, dram_timing=timing, engine=engine)
        sim.load_input(make_test_grid(design.problem.grid))
        runs[engine] = _seconds(sim.run)
    (naive, naive_s), (fast, fast_s) = runs["naive"], runs["fast"]
    for name in ("cycles", "dram_words_read", "dram_words_written", "operations", "extra"):
        m.check(
            getattr(fast, name) == getattr(naive, name),
            f"{system}: fast and naive engines differ in {name}",
        )
    m.check(np.array_equal(fast.output, naive.output), f"{system}: outputs differ")
    return {"fast": fast, "naive_s": naive_s, "fast_s": fast_s}


def smache_cycles_per_sec(m: Measure) -> None:
    """Fast engine >= 3x the naive engine's cycles/sec, latency-bound smache."""
    iterations = 10 if m.smoke else 50
    run = _engines(m, "smache", True, iterations)
    cycles, stats = run["fast"].cycles, run["fast"].engine_stats
    m.record(
        cycles=cycles,
        iterations=iterations,
        cycles_per_sec_naive=cycles / run["naive_s"],
        cycles_per_sec_fast=cycles / run["fast_s"],
        speedup=run["naive_s"] / run["fast_s"],
        skip_ratio=stats["skip_ratio"],
        skip_regions=stats["skip_regions"],
    )


def baseline_cycles_per_sec(m: Measure) -> None:
    """Fast engine >= 2x naive on the latency-bound no-buffering baseline."""
    run = _engines(m, "baseline", True, 10 if m.smoke else 50)
    m.record(
        cycles=run["fast"].cycles,
        speedup=run["naive_s"] / run["fast_s"],
        skip_ratio=run["fast"].engine_stats["skip_ratio"],
    )


def default_timing_overhead(m: Measure) -> None:
    """With ideal low-latency DRAM there is little to skip: fast < 1.5x naive's time."""
    run = _engines(m, "smache", False, 5 if m.smoke else 20)
    m.record(overhead_ratio=run["fast_s"] / run["naive_s"])


def reference_cells_per_sec(m: Measure) -> None:
    """Vectorized reference executor >= 10x the per-cell scalar one, bitwise equal."""
    from repro.core.boundary import BoundarySpec
    from repro.core.grid import GridSpec
    from repro.core.stencil import StencilShape
    from repro.reference.kernels import AveragingKernel
    from repro.reference.stencil_exec import (
        clear_gather_plan_cache,
        gather_plan,
        make_test_grid,
        reference_run,
        reference_step_scalar,
    )

    grid = GridSpec(shape=(64, 64) if m.smoke else (128, 128))
    iterations = 4 if m.smoke else 10
    stencil, boundary = StencilShape.four_point_2d(), BoundarySpec.paper_2d()
    kernel = AveragingKernel()
    data = make_test_grid(grid, kind="random")

    clear_gather_plan_cache()
    _, plan_seconds = _seconds(lambda: gather_plan(grid, stencil, boundary))

    def vectorized() -> Any:
        return reference_run(data, grid, stencil, boundary, kernel, iterations=iterations)

    vectorized()  # warm
    out_vec, vec_seconds = _seconds(vectorized)
    out_scalar, scalar_seconds = _seconds(
        lambda: reference_step_scalar(data, grid, stencil, boundary, kernel)
    )
    for _ in range(iterations - 1):
        out_scalar = reference_step_scalar(out_scalar, grid, stencil, boundary, kernel)
    m.check(np.array_equal(out_vec, out_scalar), "vectorized and scalar grids differ")

    scalar_cps = grid.size / scalar_seconds  # first step only
    vec_cps = grid.size * iterations / vec_seconds
    m.record(
        iterations=iterations,
        plan_build_seconds=plan_seconds,
        cells_per_sec_scalar=scalar_cps,
        cells_per_sec_vectorized=vec_cps,
        speedup=vec_cps / scalar_cps,
    )


# --------------------------------------------------------------------------- #
# pipeline: compilation, the analytic backend, DSE and the campaign engine
# --------------------------------------------------------------------------- #
def analytic_backend(m: Measure) -> None:
    """Analytic > 20x faster than simulation on Figure 2, within tolerance."""
    from repro.pipeline import (
        ANALYTIC_TOLERANCE,
        EvaluationRequest,
        StencilProblem,
        compile,
        evaluate,
    )

    design = compile(StencilProblem.paper_example())
    request = EvaluationRequest(iterations=100)
    simulated, simulate_seconds = _seconds(
        lambda: evaluate(design, backend="simulate", request=request)
    )
    evaluate(design, backend="analytic", request=request)  # warm
    predicted, predict_seconds = _seconds(
        lambda: evaluate(design, backend="analytic", request=request)
    )
    error = abs(predicted.cycles - simulated.cycles) / simulated.cycles
    m.check(error <= ANALYTIC_TOLERANCE, f"analytic cycle error {error:.2%}")
    m.check(predicted.dram_bytes == simulated.dram_bytes, "analytic traffic differs")
    m.record(
        analytic_speedup=simulate_seconds / predict_seconds,
        cycle_error=error,
    )


def cold_vs_cached_compile(m: Measure) -> None:
    """A cold 256x256 compile, then 50 lookups: one miss, 50 hits, same design."""
    from repro.pipeline import StencilProblem, compile
    from repro.pipeline.cache import PlanCache

    cache, repeats = PlanCache(), 50
    cold = compile(StencilProblem.paper_example(256, 256), cache=cache)
    cached = [
        compile(StencilProblem.paper_example(256, 256), cache=cache)
        for _ in range(repeats)
    ]
    stats = cache.cache_info()
    m.check(all(design is cold for design in cached), "a cached compile rebuilt the design")
    m.check(stats.misses == 1, f"{stats.misses} plan-cache misses, expected 1")
    m.check(stats.hits == repeats, f"{stats.hits} plan-cache hits, expected {repeats}")
    m.record(hit_rate=stats.hit_rate)


def shared_cache_across_consumers(m: Measure) -> None:
    """Figure 2 then Table I through the shared plan cache: at least one hit."""
    from repro.eval.figure2 import run_figure2
    from repro.eval.table1 import run_table1
    from repro.pipeline import clear_plan_cache
    from repro.pipeline.cache import plan_cache

    clear_plan_cache()
    run_figure2(iterations=5)
    run_table1()
    stats = plan_cache.cache_info()
    m.check(stats.hits >= 1, "table1 did not reuse figure2's 11x11 hybrid design")
    m.record(cache_hits=stats.hits)


def analytic_sweep_vs_full_simulation(m: Measure) -> None:
    """Analytic pricing + front re-simulation selects the same design, faster."""
    from repro.api import Workbench
    from repro.pipeline import StencilProblem

    base = StencilProblem.paper_example(11, 11)
    candidates = [
        replace(base, max_stream_reach=reach,
                name=f"reach-{reach}" if reach is not None else "unconstrained")
        for reach in (0, 2, 4, 8, 11, None)
    ]
    full, full_seconds = _best_of(
        lambda: Workbench(jobs=1).explore(
            candidates, iterations=5, backend="simulate", simulate_front=False
        ),
        rounds=3,
    )
    fast, fast_seconds = _best_of(
        lambda: Workbench(jobs=1).explore(candidates, iterations=5), rounds=3
    )
    m.check(fast.selected.label == full.selected.label, "the sweeps select different designs")
    m.check(fast.selected.cycles == full.selected.cycles, "the selected cycles differ")
    m.check(
        fast.simulated_count < full.simulated_count,
        "the analytic sweep simulated as many candidates as the full one",
    )
    m.record(
        sweep_speedup=full_seconds / fast_seconds,
        simulated_count=fast.simulated_count,
    )


#: Workers of the parallel campaign claim.
CAMPAIGN_JOBS = 4


def parallel_campaign(m: Measure) -> None:
    """240 points, jobs=4 vs jobs=1: > 1.1x, byte-identical, fully resumable."""
    from repro.api import Workbench
    from repro.core.partition import StreamBufferMode
    from repro.pipeline import StencilProblem, clear_plan_cache
    from repro.sweep import SweepSpec

    if m.smoke:
        grid_sizes = tuple((rows, cols) for rows in (17, 23) for cols in (19, 25))
        reaches: Tuple[Optional[int], ...] = (0, None)
    else:
        grid_sizes = tuple(
            (rows, cols) for rows in (17, 23, 29, 37, 41, 47) for cols in (19, 25, 31, 35)
        )
        reaches = (0, 2, 4, 8, None)
    spec = SweepSpec(
        name="bench-campaign",
        base=StencilProblem.paper_example(11, 11),
        grid_sizes=grid_sizes,
        max_stream_reaches=reaches,
        modes=(StreamBufferMode.HYBRID, StreamBufferMode.REGISTER_ONLY),
        backends=("analytic",),
        iterations=3,
    )
    n_points = spec.size
    m.check(m.smoke or n_points >= 200, f"campaign has {n_points} points, expected >= 200")
    workbench = Workbench(jobs=CAMPAIGN_JOBS)

    # Forked workers inherit the parent's plan cache; clear it before each
    # run so every comparison measures real compilation work.
    clear_plan_cache()
    serial, serial_seconds = _seconds(lambda: workbench.run(spec, jobs=1))
    clear_plan_cache()
    parallel = workbench.run(spec)
    clear_plan_cache()
    parallel_again, parallel_seconds = _seconds(lambda: workbench.run(spec))
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        checkpoint = os.path.join(tmp, "bench-campaign.jsonl")
        first = workbench.run(spec, checkpoint=checkpoint)
        resumed = workbench.run(spec, checkpoint=checkpoint)

    m.check(
        serial.to_json() == parallel.to_json() == parallel_again.to_json(),
        "parallel campaign JSON differs from the serial one",
    )
    m.check(first.evaluated == n_points, f"first run evaluated {first.evaluated}/{n_points}")
    m.check(
        resumed.evaluated == 0 and resumed.resumed == n_points,
        f"resume evaluated {resumed.evaluated}, loaded {resumed.resumed}/{n_points}",
    )
    m.check(resumed.to_json() == serial.to_json(), "resumed campaign JSON differs")
    m.record(
        points=n_points,
        jobs=CAMPAIGN_JOBS,
        serial_seconds=serial_seconds,
        parallel_seconds=parallel_seconds,
        parallel_speedup=serial_seconds / parallel_seconds,
        resumed_points=resumed.resumed,
    )


# --------------------------------------------------------------------------- #
# compile: what an uncached compile costs as the grid grows
# --------------------------------------------------------------------------- #
def row_count_independence(m: Measure) -> None:
    """An uncached 1024x1024 paper compile <= 2x an 11x11 one, as many tuples resolved.

    The exact counter beside the band: the stream tuples the range partition
    resolves, which must not grow with the rows.
    """
    import repro.core.ranges as ranges
    from repro.pipeline import StencilProblem, compile

    problems = {side: StencilProblem.paper_example(side, side) for side in (11, 1024)}
    resolve = ranges.tuple_for
    resolved: List[Any] = []
    counts: Dict[int, int] = {}

    def counting(*args: Any) -> Any:
        resolved.append(args)
        return resolve(*args)

    setattr(ranges, "tuple_for", counting)
    try:
        for side, problem in problems.items():
            compile(problem, cache=None)
            counts[side] = len(resolved) - sum(counts.values())
    finally:
        setattr(ranges, "tuple_for", resolve)
    m.check(counts[11] == counts[1024],
            f"{counts[1024]} tuples resolved at 1024x1024, {counts[11]} at 11x11")
    ms = {side: _best_of(lambda p=problem: compile(p, cache=None), 3 if m.smoke else 30)[1] * 1e3
          for side, problem in problems.items()}
    m.record(tuples_resolved_11=counts[11], tuples_resolved_1024=counts[1024],
             compile_ms_11=ms[11], compile_ms_1024=ms[1024], time_ratio=ms[1024] / ms[11])


def shared_synthesis(m: Measure) -> None:
    """One cold reach x mode batch synthesizes each distinct (plan, mode) once.

    An exact counter on any host: the ``synthesize_smache`` calls of one
    ``compile_batch`` on an empty plan cache equal the sweep's distinct
    (range partition, plan, mode) triples, counted from one uncached
    ``compile`` per problem, and every batch design's synthesis report
    (its name included) equals that compile's.
    """
    import importlib

    from repro.core.partition import StreamBufferMode
    from repro.pipeline import StencilProblem, compile
    from repro.pipeline.cache import PlanCache

    compile_module = importlib.import_module("repro.pipeline.compile")
    problems = [
        StencilProblem.paper_example(rows, cols, mode=mode, max_stream_reach=reach,
                                     name=f"{rows}x{cols}-{mode.value}-{reach}")
        for rows, cols in ((11, 11), (16, 20))
        for mode in (StreamBufferMode.HYBRID, StreamBufferMode.REGISTER_ONLY)
        for reach in (None, 0, 8, 22, 64)
    ]
    alone = [compile(problem, cache=None) for problem in problems]
    pairs = {(p.range_key(), repr(d.plan), p.mode) for p, d in zip(problems, alone)}
    synthesize = compile_module.synthesize_smache
    calls: List[Any] = []

    def counting(*args: Any, **kwargs: Any) -> Any:
        calls.append(args)
        return synthesize(*args, **kwargs)

    setattr(compile_module, "synthesize_smache", counting)
    try:
        batch = compile_module.compile_batch(problems, cache=PlanCache())
    finally:
        setattr(compile_module, "synthesize_smache", synthesize)
    m.check(len(calls) == len(pairs),
            f"{len(calls)} syntheses for {len(pairs)} distinct (plan, mode) pairs")
    for problem, design, expected in zip(problems, batch, alone):
        m.check(design.synthesis == expected.synthesis,
                f"{problem.name}: batch synthesis differs from an uncached compile")
    m.record(designs=len(problems), plan_mode_pairs=len(pairs), synthesis_calls=len(calls))


# --------------------------------------------------------------------------- #
# analytic: vectorized pricing
# --------------------------------------------------------------------------- #
def scalar_vs_vectorized(m: Measure) -> None:
    """Warm batched pricing of 1000 points >= 20x the scalar loop; new knobs > 5x."""
    from repro.api import Workbench
    from repro.pipeline import StencilProblem
    from repro.pipeline.cache import PlanCache

    rows, cols = (range(9, 21), range(9, 19)) if m.smoke else (range(9, 49), range(9, 34))
    problems = [StencilProblem.paper_example(r, c) for r in rows for c in cols]
    expected = 120 if m.smoke else 1000
    m.check(len(problems) == expected, f"{len(problems)} points, expected {expected}")
    iterations = 5
    workbench = Workbench(cache=PlanCache(max_entries=2048))

    # Warm both paths: the scalar loop gets a hot plan cache, the batch path
    # a populated packed session, so the comparison isolates pricing.
    workbench.evaluate_batch(problems, iterations=iterations, with_artifacts=False)
    workbench.evaluate(problems[0], iterations=iterations)
    scalar, scalar_seconds = _best_of(
        lambda: [workbench.evaluate(p, iterations=iterations) for p in problems], rounds=5
    )
    vectorized, vectorized_seconds = _best_of(
        lambda: workbench.evaluate_batch(problems, iterations=iterations, with_artifacts=False),
        rounds=5,
    )
    _, artifacts_seconds = _best_of(
        lambda: workbench.evaluate_batch(problems, iterations=iterations), rounds=5
    )
    # New knobs each call: the packed columns are reused but every fold
    # re-runs, so this is the floor for a *changing* re-price session.
    knobs = iter(range(10, 10 + 64))
    _, reprice_seconds = _best_of(
        lambda: workbench.evaluate_batch(
            problems, iterations=next(knobs), with_artifacts=False
        ),
        rounds=5,
    )

    def observed(r: Any) -> Tuple[Any, ...]:
        return (r.cycles, r.dram_words_read, r.dram_words_written,
                r.dram_bytes, r.operations, r.extra)

    m.check(
        len(vectorized) == len(scalar)
        and all(observed(s) == observed(v) for s, v in zip(scalar, vectorized)),
        "batched and scalar pricing differ",
    )
    m.record(
        points=len(problems),
        iterations=iterations,
        scalar_points_per_second=len(problems) / scalar_seconds,
        vectorized_points_per_second=len(problems) / vectorized_seconds,
        scalar_seconds=scalar_seconds,
        vectorized_seconds=vectorized_seconds,
        warm_speedup=scalar_seconds / vectorized_seconds,
        reprice_new_knobs_speedup=scalar_seconds / reprice_seconds,
        with_artifacts_speedup=scalar_seconds / artifacts_seconds,
    )


# --------------------------------------------------------------------------- #
# serve: the micro-batched evaluation service
# --------------------------------------------------------------------------- #
SERVE_CONNECTIONS = 4
SERVE_CONCURRENCY = 64


def _canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


async def _serve_concurrent(
    specs: List[Dict[str, Any]], scalar: bool
) -> Tuple[List[Any], float, Dict[str, Any]]:
    """Fire the whole mix concurrently at a fresh server; only the gather is timed."""
    from repro.serve import AsyncServeClient, EvaluationServer

    server = EvaluationServer(scalar=scalar)
    host, port = await server.start()
    clients: List[Any] = []
    try:
        for _ in range(SERVE_CONNECTIONS):
            clients.append(await AsyncServeClient(host, port).connect())
        await clients[0].ping()
        semaphore = asyncio.Semaphore(SERVE_CONCURRENCY)

        async def one(index: int, spec: Dict[str, Any]) -> Any:
            async with semaphore:
                return await clients[index % SERVE_CONNECTIONS].evaluate_retry(spec)

        start = time.perf_counter()
        payloads = await asyncio.gather(*(one(i, spec) for i, spec in enumerate(specs)))
        elapsed = time.perf_counter() - start
        stats: Dict[str, Any] = await clients[0].stats()
    finally:
        for client in clients:
            await client.close()
        await server.stop()
    return list(payloads), elapsed, stats


async def _serve_serial(specs: List[Dict[str, Any]]) -> Tuple[List[Any], float]:
    """The per-request scalar loop: one request at a time to a scalar server."""
    from repro.serve import AsyncServeClient, EvaluationServer

    server = EvaluationServer(scalar=True)
    host, port = await server.start()
    client = await AsyncServeClient(host, port).connect()
    try:
        await client.ping()
        start = time.perf_counter()
        payloads = [await client.evaluate(spec) for spec in specs]
        elapsed = time.perf_counter() - start
    finally:
        await client.close()
        await server.stop()
    return payloads, elapsed


def batched_vs_scalar_serving(m: Measure) -> None:
    """1000 mixed requests: the batched server >= 5x the per-request scalar loop.

    Every configuration pays the same TCP/JSON/asyncio cost, so the ratio
    isolates what admission, micro-batched flushes and the memo add.
    """
    from repro.pipeline.backends import evaluate
    from repro.serve.protocol import make_point, parse_point, result_payload

    n_requests, n_unique = (150, 30) if m.smoke else (1000, 200)
    specs: List[Dict[str, Any]] = []
    for index in range(n_requests):  # duplicates interleaved with fresh points
        slot = index % n_unique
        specs.append(make_point((9 + slot % 40, 9 + (slot // 40) % 25), iterations=5))
    references: Dict[str, str] = {}
    for spec in specs:
        key = _canonical(spec)
        if key not in references:
            problem, request = parse_point(spec)
            references[key] = _canonical(
                result_payload(evaluate(problem, backend="analytic", request=request))
            )

    batched, batched_seconds, stats = asyncio.run(_serve_concurrent(specs, scalar=False))
    pipelined, scalar_seconds, _ = asyncio.run(_serve_concurrent(specs, scalar=True))
    serial, serial_seconds = asyncio.run(_serve_serial(specs))
    for mode, payloads in (("batched", batched), ("scalar", pipelined), ("serial", serial)):
        m.check(
            [_canonical(p) for p in payloads] == [references[_canonical(s)] for s in specs],
            f"{mode} server responses differ from the scalar reference",
        )

    memo = stats["memo"] or {}
    lookups = memo.get("hits", 0) + memo.get("misses", 0)
    m.record(
        requests=n_requests,
        unique_points=n_unique,
        connections=SERVE_CONNECTIONS,
        concurrency=SERVE_CONCURRENCY,
        batched_rps=n_requests / batched_seconds,
        scalar_concurrent_rps=n_requests / scalar_seconds,
        scalar_serial_rps=n_requests / serial_seconds,
        speedup_vs_serial_scalar=serial_seconds / batched_seconds,
        speedup_vs_concurrent_scalar=scalar_seconds / batched_seconds,
        p50_ms=stats["latency"]["p50_ms"],
        p99_ms=stats["latency"]["p99_ms"],
        batch_flushes=stats["batches"]["flushes"],
        batch_mean_size=stats["batches"]["mean_size"],
        memo_hit_rate=memo.get("hits", 0) / lookups if lookups else 0.0,
    )


def mixed_flush_parity(m: Measure) -> None:
    """Mixed requests submitted in one loop turn share ``ceil(N / max_batch)`` flushes.

    Systems, iterations (0 included) and write policies differ from point to
    point, so no two neighbours share a request; every answer must still be
    bitwise the scalar reference of its own point.
    """
    from repro.pipeline.backends import SYSTEMS, evaluate
    from repro.serve import EvaluationService
    from repro.serve.protocol import make_point, parse_point, result_payload

    max_batch = 16
    n_requests = 40 if m.smoke else 200
    specs = [
        make_point((9 + index % 24, 9 + index // 24), system=SYSTEMS[index % 2],
                   iterations=index % 7, write_through=index % 3 != 0)
        for index in range(n_requests)
    ]

    async def serve() -> Tuple[List[Any], int]:
        service = EvaluationService(max_batch=max_batch, memo_entries=0)
        answers = await asyncio.gather(*(service.submit(spec) for spec in specs))
        return [payload for payload, _ in answers], service.stats()["batches"]["flushes"]

    payloads, flushes = asyncio.run(serve())
    expected = -(-n_requests // max_batch)
    m.check(flushes == expected, f"{flushes} flushes for {n_requests} requests, expected {expected}")
    for spec, payload in zip(specs, payloads):
        problem, request = parse_point(spec)
        reference = result_payload(evaluate(problem, backend="analytic", request=request))
        m.check(_canonical(payload) == _canonical(reference),
                f"mixed flush differs from the scalar reference for {spec}")
    m.record(requests=n_requests, max_batch=max_batch, flushes=flushes)


# --------------------------------------------------------------------------- #
# suites
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Suite:
    """A named group of claims, recorded as one result."""

    description: str
    claims: Tuple[Claim, ...]
    jobs: int = 1  #: workers its wall-clock comparisons need (for ``contended``)


#: The claim suites, in canonical run order.
SUITES: Dict[str, Suite] = {
    "sim": Suite(
        "fast simulation core: cycles/sec, reference executor",
        (smache_cycles_per_sec, baseline_cycles_per_sec,
         default_timing_overhead, reference_cells_per_sec),
    ),
    "pipeline": Suite(
        "compilation pipeline, analytic backend, DSE and the campaign engine",
        (analytic_backend, cold_vs_cached_compile, shared_cache_across_consumers,
         analytic_sweep_vs_full_simulation, parallel_campaign),
        jobs=CAMPAIGN_JOBS,
    ),
    "compile": Suite(
        "uncached compile cost as the grid grows, and stages shared in a batch",
        (row_count_independence, shared_synthesis),
    ),
    "analytic": Suite(
        "vectorized analytic pricing vs the scalar loop", (scalar_vs_vectorized,)
    ),
    "serve": Suite(
        "micro-batched evaluation service throughput",
        (batched_vs_scalar_serving, mixed_flush_parity),
    ),
}


def run_claim(claim: Claim, smoke: bool) -> Measure:
    """Run one claim; an exception is reported as a mismatch, not raised."""
    measure = Measure(smoke=smoke)
    try:
        claim(measure)
    except Exception:  # a crashed claim must fail its suite, not the run
        traceback.print_exc()
        measure.mismatches.append(f"{claim.__name__} raised")
    return measure


def run_suite(name: str, smoke: bool = False) -> BenchResult:
    """Run every claim of one suite in this process; one result back."""
    suite = SUITES[name]
    result = BenchResult(
        suite=name,
        host=current_host(),
        smoke=smoke,
        contended=contention(suite.jobs),
    )
    for claim in suite.claims:
        measure = run_claim(claim, smoke)
        result.metrics.update(
            {f"{claim.__name__}.{key}": value for key, value in measure.metrics.items()}
        )
        for problem in measure.mismatches:
            print(f"MISMATCH: {name}.{claim.__name__}: {problem}", flush=True)
        result.failed += len(measure.mismatches)
    result.correct = result.failed == 0
    return result

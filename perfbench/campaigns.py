"""The two campaign workloads: ``campaign_cold`` and ``campaign_reprice``.

Both run serial (``jobs=1``) analytic campaigns through the public session
API — ``Workbench.sweep(spec).checkpoint(..).with_event_log(..).run()`` —
into fresh directories under ``.perfbench/``.  Serial on purpose: on a
two-core host pool workers would contend with the benchmark itself, and
spans cannot be taken inside worker processes from outside the program.

* ``campaign_cold`` starts every campaign from an empty plan cache, so every
  point pays for compilation.
* ``campaign_reprice`` compiles its space once during set-up, then re-prices
  it as a series of campaigns under seeded DRAM timings and iteration
  counts: compilation does no work, so the runner, pricing, events and
  persistence are what is timed.

An *answer* is one campaign: its latency is the wall time of the
``run()`` call, checkpoint and event log included.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Tuple

from common import (
    HostClock,
    Outcome,
    fresh_import_seconds,
    median,
    normalised_median,
    peak_rss_mib_self,
    run_until,
    scratch_dir,
)
from tracer import Tracer

from repro.api import Workbench
from repro.core.partition import StreamBufferMode
from repro.memory.dram import DRAMTiming
from repro.pipeline.backends import evaluate, get_backend
from repro.pipeline.cache import plan_cache
from repro.pipeline.compile import compile_batch
from repro.pipeline.problem import StencilProblem
from repro.sweep.events import PointRetried
from repro.sweep.record import PointRecord
from repro.sweep.spec import SweepSpec

IMPORTS = ("repro.api", "repro.sweep")
GRIDS = 12
SIDE_MIN, SIDE_MAX = 16, 96
REACHES = (0, 4, 16, None)
MODES = (StreamBufferMode.HYBRID, StreamBufferMode.REGISTER_ONLY)
SYSTEMS = ("smache", "baseline")
ITERATIONS = 5
#: (DRAM timing, iteration count) sets re-priced per series.
REPRICE_SETS = 18
#: Campaign points re-evaluated through the scalar path per run.
SCALAR_SAMPLE = 8
SET_UPS = 3


def grid_shapes(rng: random.Random) -> Tuple[Tuple[int, int], ...]:
    """Seeded grid shapes, one row length and one column length per band.

    Compile time grows with the row count and barely with the column count.
    Each side is drawn from its own band of [16, 96], with the offsets into
    the bands a seeded permutation of one fixed multiset, so every seed's
    rows add up to the same total: the seed varies the inputs, not the
    amount of work.
    """
    width = (SIDE_MAX - SIDE_MIN + 1) / GRIDS
    band = max(1, int(width))

    def sides() -> List[int]:
        offsets = [i % band for i in range(GRIDS)]
        rng.shuffle(offsets)
        return [SIDE_MIN + int(i * width) + offsets[i] for i in range(GRIDS)]

    rows, cols = sides(), sides()
    rng.shuffle(cols)
    return tuple(zip(rows, cols))


def space(seed: int, name: str) -> SweepSpec:
    """The ~96-design, 192-point space both workloads use."""
    return SweepSpec(
        name=name,
        base=StencilProblem.paper_example(11, 11),
        grid_sizes=grid_shapes(random.Random(seed)),
        modes=MODES,
        max_stream_reaches=REACHES,
        backends=("analytic",),
        systems=SYSTEMS,
        iterations=ITERATIONS,
    )


def reprice_sets(seed: int) -> List[Tuple[DRAMTiming, int]]:
    rng = random.Random(seed * 7919 + 1)
    return [
        (
            DRAMTiming(
                stream_word_cycles=rng.choice((1, 2)),
                random_access_cycles=rng.randint(1, 12),
                read_latency=rng.choice((4, 8, 16, 32, 64)),
            ),
            rng.randint(1, 100),
        )
        for _ in range(REPRICE_SETS)
    ]


def warm_up(spec: SweepSpec) -> None:
    """One untimed campaign over the first grid: first-call paths run here."""
    CampaignRun(replace(spec, name="warm-up", grid_sizes=spec.grid_sizes[:1]),
                scratch_dir("campaign"))


def cold_caches() -> None:
    """Empty the plan cache and the analytic backend's knob cache."""
    plan_cache.clear()
    get_backend("analytic").engine.clear()


class _EventCounter:
    """Observer counting the events of a campaign and its retries."""

    def __init__(self) -> None:
        self.events = 0
        self.retries = 0

    def on_event(self, event) -> None:
        self.events += 1
        if isinstance(event, PointRetried):
            self.retries += 1


class CampaignRun:
    """One campaign: its result, wall time and what was persisted."""

    def __init__(self, spec: SweepSpec, directory: Path, tracer: Tracer = None) -> None:
        checkpoint = directory / f"{spec.name}.ckpt.jsonl"
        events = directory / f"{spec.name}.events.jsonl"
        self.counter = _EventCounter()
        engine = get_backend("analytic").engine
        plan_before, engine_before = plan_cache.cache_info(), engine.cache_info()
        builder = (
            Workbench(jobs=1)
            .sweep(spec)
            .checkpoint(str(checkpoint))
            .with_event_log(str(events))
            .observe(self.counter)
        )
        start = time.perf_counter()
        if tracer is None:
            self.result = builder.run()
        else:
            with tracer.span("sweep"):
                self.result = builder.run()
        self.wall = time.perf_counter() - start
        plan_after, engine_after = plan_cache.cache_info(), engine.cache_info()
        #: Cache counters of this campaign alone (after minus before).
        self.plan = {name: getattr(plan_after, name) - getattr(plan_before, name)
                     for name in ("hits", "misses")}
        self.engine = {name: getattr(engine_after, name) - getattr(engine_before, name)
                       for name in ("hits", "misses", "session_hits", "session_misses",
                                    "fold_hits", "fold_misses")}
        self.plan_misses = self.plan["misses"]
        self.points = len(self.result.records)
        self.failed = self.result.failed
        self.persist_bytes = checkpoint.stat().st_size + events.stat().st_size
        self.persist_lines = sum(
            1 for path in (checkpoint, events) for _ in path.open("rb")
        )
        self.digest = hashlib.sha256(self.result.to_json().encode()).hexdigest()
        #: Host speed factor of the timed unit this campaign ran in.
        self.factor = 1.0

    def release(self) -> None:
        """Drop the records, so memory does not grow with the number of repeats."""
        self.result = None


def scalar_mismatches(run: CampaignRun, rng: random.Random) -> List[str]:
    """Re-evaluate sampled points through scalar ``evaluate()``; compare bytes."""
    points = {point.key(): point for point in run.result.spec.expand()}
    records = sorted(run.result.records, key=lambda r: r.key)
    problems = []
    for record in rng.sample(records, min(SCALAR_SAMPLE, len(records))):
        point = points[record.key]
        result = evaluate(point.problem, backend="analytic", request=point.request, cache=None)
        expected = PointRecord.from_result(
            point.key(), point.display_label, result, rung=point.rung
        ).canonical()
        if json.dumps(expected, sort_keys=True) != json.dumps(record.canonical(), sort_keys=True):
            problems.append(f"{run.result.spec.name}: {record.label} differs from scalar evaluate()")
    return problems


def _check_campaign(outcome: Outcome, run: CampaignRun, expected: int) -> None:
    result = run.result
    outcome.attempted += expected
    outcome.failed += expected - result.evaluated
    outcome.check(
        result.evaluated == expected,
        f"{result.spec.name}: {result.evaluated} of {expected} points evaluated, "
        f"{result.failed} failed",
    )


def _repeats_exactly(outcome: Outcome, name: str, values: List[object]) -> None:
    outcome.check(len(set(values)) == 1, f"{name} differs between repeats: {values}")


# --------------------------------------------------------------------------- #
# tracing
# --------------------------------------------------------------------------- #
def install_spans(tracer: Tracer) -> None:
    """Wrap the compile stages, plan cache, pricing and persistence calls.

    ``compile`` wraps ``_build``, the function that compiles one problem
    behind both public entry points (``compile`` and ``compile_batch``);
    wrapping those instead would count plan-cache hits as compile time.
    The stage functions are wrapped where each caller imported them.
    """
    import repro.core.planner as planner
    import repro.fpga.synthesis as synthesis
    from repro.pipeline.analytic_batch import AnalyticBatchEngine
    from repro.sweep.checkpoint import CampaignCheckpoint
    from repro.sweep.eventlog import EventLogObserver

    # ``repro.pipeline`` re-exports the ``compile`` function under the
    # submodule's name, so the module is looked up by its full name.
    compiler = importlib.import_module("repro.pipeline.compile")
    tracer.wrap(compiler, "_build", "compile")
    for module in (compiler, planner, synthesis):
        tracer.wrap(module, "partition_into_ranges", "compile.ranges")
    tracer.wrap(compiler, "plan_buffers", "compile.planner")
    for module in (compiler, synthesis):
        tracer.wrap(module, "partition_for_plan", "compile.partition")
    tracer.wrap(compiler, "estimate_memory_cost", "compile.cost_model")
    tracer.wrap(compiler, "synthesize_smache", "compile.synthesis")
    # The process-wide plan cache only: the pricing engine's knob cache is a
    # PlanCache too, and belongs to the pricing layer.
    tracer.wrap(plan_cache, "get_or_compile", "plan_cache")
    tracer.wrap(plan_cache, "get_or_compile_batch", "plan_cache")
    tracer.wrap(AnalyticBatchEngine, "price", "pricing",
                weigh=lambda engine, items, *a, **k: len(items))
    tracer.wrap(AnalyticBatchEngine, "price_batch", "pricing",
                weigh=lambda engine, problems, *a, **k: len(problems))
    tracer.wrap(SweepSpec, "expand", "sweep.expand")
    for method in ("load", "open_for_append", "append", "write_finished", "close"):
        tracer.wrap(CampaignCheckpoint, method, "sweep.persist")
    for method in ("open", "on_event", "close"):
        tracer.wrap(EventLogObserver, method, "sweep.persist")


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(tracer: Tracer, runs: List[CampaignRun]) -> Dict[str, float]:
    """The compile, plan-cache, pricing and sweep figures of traced campaigns."""
    own = tracer.self_times()
    compiles = tracer.count("compile")
    points = sum(run.points for run in runs)
    plan = {k: sum(run.plan[k] for run in runs) for k in runs[0].plan}
    engine = {k: sum(run.engine[k] for run in runs) for k in runs[0].engine}
    pricing_calls = tracer.count("pricing")
    return {
        "compile.calls": compiles,
        "compile.s": tracer.total("compile"),
        "compile.self_s": sum(s for n, s in own.items() if n.split(".")[0] == "compile"),
        "compile.ranges_s": own.get("compile.ranges", 0.0),
        "compile.ranges_calls_per_compile": (
            tracer.count("compile.ranges") / compiles if compiles else 0.0),
        "compile.planner_s": own.get("compile.planner", 0.0),
        "compile.partition_s": own.get("compile.partition", 0.0),
        "compile.cost_model_s": own.get("compile.cost_model", 0.0),
        "compile.synthesis_s": own.get("compile.synthesis", 0.0),
        "plan_cache.hits": plan["hits"],
        "plan_cache.misses": plan["misses"],
        "plan_cache.hit_ratio": _ratio(plan["hits"], plan["misses"]),
        "plan_cache.self_s": own.get("plan_cache", 0.0),
        "pricing.calls": pricing_calls,
        "pricing.points": tracer.weights["pricing"],
        "pricing.points_per_call": (
            tracer.weights["pricing"] / pricing_calls if pricing_calls else 0.0),
        "pricing.self_s": own.get("pricing", 0.0),
        "pricing.knob_hit_ratio": _ratio(engine["hits"], engine["misses"]),
        "pricing.session_hit_ratio": _ratio(engine["session_hits"], engine["session_misses"]),
        "pricing.fold_hit_ratio": _ratio(engine["fold_hits"], engine["fold_misses"]),
        "sweep.expand_s": own.get("sweep.expand", 0.0),
        "sweep.persist_s": own.get("sweep.persist", 0.0),
        "sweep.persist_bytes_per_point": sum(r.persist_bytes for r in runs) / points,
        "sweep.persist_lines_per_point": sum(r.persist_lines for r in runs) / points,
        "sweep.events": sum(run.counter.events for run in runs),
        "sweep.self_s": own.get("sweep", 0.0),
        "sweep.points_failed": sum(run.failed for run in runs),
        "sweep.retries": sum(run.counter.retries for run in runs),
    }


#: Traced figures that are pure functions of the inputs: they must repeat
#: exactly from one traced repeat to the next.
DETERMINISTIC = (
    "compile.calls",
    "compile.ranges_calls_per_compile",
    "plan_cache.hits",
    "plan_cache.misses",
    "pricing.calls",
    "pricing.points",
    "sweep.events",
    "sweep.persist_lines_per_point",
    "sweep.points_failed",
)


def traced_repeats(outcome: Outcome, seconds: float, unit, trace_path: Path) -> Dict[str, float]:
    """Pairs of one untraced and one traced unit of work until ``seconds`` pass.

    ``unit(tracer)`` runs one unit (tracer ``None`` = untraced) and returns
    its campaign runs.  Per-layer figures are medians over the traced units;
    tracing overhead is the median, over pairs, of traced minus untraced wall.
    """
    per_repeat: List[Dict[str, float]] = []
    overheads: List[float] = []
    last: Tracer = None

    def pair(index: int) -> None:
        nonlocal last
        # Alternate which side of a pair runs first, so drift cancels.
        untraced = sum(run.wall for run in unit(None)) if index % 2 == 0 else None
        tracer = Tracer()
        install_spans(tracer)
        try:
            runs = unit(tracer)
        finally:
            tracer.restore()
        if untraced is None:
            untraced = sum(run.wall for run in unit(None))
        per_repeat.append(layer_metrics(tracer, runs))
        overheads.append(sum(run.wall for run in runs) - untraced)
        last = tracer

    run_until(seconds, 2, pair)
    for name in DETERMINISTIC:
        _repeats_exactly(outcome, name, [figures[name] for figures in per_repeat])
        outcome.counters[name] = per_repeat[0][name]
    last.dump(str(trace_path))
    metrics = {name: median(f[name] for f in per_repeat) for name in per_repeat[0]}
    metrics["trace.overhead_s"] = median(overheads)
    metrics["trace.spans"] = len(last.spans)
    outcome.notes.append(f"last traced unit, {last.layer_table()}")
    return metrics


# --------------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------------- #
def _answer_metrics(outcome: Outcome, clock: HostClock, units: List[List[CampaignRun]]) -> None:
    """Host-normalised points/s and wall time, each a median over campaigns.

    The tail is the median, over timed units, of each unit's slowest
    campaign: a host pause lifts one unit, not the figure.
    """
    walls = [run.wall * run.factor for runs in units for run in runs]
    outcome.metrics["throughput_per_s"] = median(
        run.points / (run.wall * run.factor) for runs in units for run in runs)
    outcome.metrics["latency_ms"] = median(walls) * 1e3
    outcome.metrics["tail_latency_ms"] = median(
        max(run.wall * run.factor for run in runs) for runs in units) * 1e3
    raw = [sum(run.points for run in runs) / sum(run.wall for run in runs) for runs in units]
    outcome.notes.append(
        f"{len(units)} timed units, {len(walls)} campaigns; raw points/s median "
        f"{median(raw):.1f} (range {min(raw):.1f}-{max(raw):.1f}); {clock.describe()}")


def _timed_units(seconds: float, clock: HostClock, unit) -> List[List[CampaignRun]]:
    """Run ``unit`` between calibrations until ``seconds`` pass (at least 3)."""
    def timed(index: int) -> List[CampaignRun]:
        runs, factor = clock.around(lambda: unit(keep=index == 0))
        for run in runs:
            run.factor = factor
        return runs

    return run_until(seconds, 3, timed)


def campaign_cold(seed: int, seconds: float, trace: bool, trace_path: Path) -> Outcome:
    outcome = Outcome()
    spec = space(seed, f"cold-{seed}")
    expected = len(spec.expand())
    outcome.notes.append(f"space: {spec.describe()}")

    def unit(tracer: Tracer = None, keep: bool = False) -> List[CampaignRun]:
        cold_caches()
        run = CampaignRun(spec, scratch_dir("campaign"), tracer)
        _check_campaign(outcome, run, expected)
        outcome.check(run.plan_misses == run.points // len(SYSTEMS),
                      f"cold campaign compiled {run.plan_misses} designs")
        if not keep:
            run.release()
        return [run]

    if trace:
        outcome.metrics.update(traced_repeats(outcome, seconds, unit, trace_path))
        return outcome

    clock = HostClock()
    setup_s = normalised_median(clock, lambda: fresh_import_seconds(IMPORTS), SET_UPS)
    warm_up(spec)
    units = _timed_units(seconds, clock, unit)
    runs = [run for runs in units for run in runs]
    for name, values in (
        ("canonical JSON", [run.digest for run in runs]),
        ("plan_cache.misses", [run.plan_misses for run in runs]),
        ("sweep.persist_lines", [run.persist_lines for run in runs]),
    ):
        _repeats_exactly(outcome, name, values)
    for problem in scalar_mismatches(runs[0], random.Random(seed)):
        outcome.check(False, problem)
    outcome.attempted += SCALAR_SAMPLE
    outcome.counters.update({
        "canonical_sha256": runs[0].digest,
        "plan_cache.misses": runs[0].plan_misses,
        "sweep.persist_lines": runs[0].persist_lines,
        "sweep.events": runs[0].counter.events,
    })
    _answer_metrics(outcome, clock, units)
    outcome.metrics["setup_s"] = setup_s
    outcome.metrics["peak_rss_mib"] = peak_rss_mib_self()
    return outcome


def campaign_reprice(seed: int, seconds: float, trace: bool, trace_path: Path) -> Outcome:
    outcome = Outcome()
    base = space(seed, f"reprice-{seed}")
    specs = [
        replace(base, name=f"reprice-{seed}-{index:02d}", dram_timing=timing, iterations=iterations)
        for index, (timing, iterations) in enumerate(reprice_sets(seed))
    ]
    points = base.expand()

    def warm() -> float:
        """Compile the space and pack its pricing knobs: the declared pre-warm."""
        cold_caches()
        start = time.perf_counter()
        designs = compile_batch([point.problem for point in points])
        get_backend("analytic").evaluate_many(
            [(design, point.request) for design, point in zip(designs, points)],
            with_artifacts=False,
        )
        return time.perf_counter() - start

    clock = HostClock()
    if trace:
        warm()
    else:
        setup_s = normalised_median(
            clock, lambda: fresh_import_seconds(IMPORTS) + warm(), SET_UPS)
    outcome.notes.append(
        f"space: {base.describe()}, re-priced as {len(specs)} campaigns per series"
    )

    def unit(tracer: Tracer = None, keep: bool = False) -> List[CampaignRun]:
        directory = scratch_dir("campaign")
        runs = [CampaignRun(spec, directory, tracer) for spec in specs]
        for run in runs:
            _check_campaign(outcome, run, len(points))
            outcome.check(run.plan_misses == 0,
                          f"{run.result.spec.name}: {run.plan_misses} plan-cache misses after set-up")
            if not keep:
                run.release()
        return runs

    if trace:
        outcome.metrics.update(traced_repeats(outcome, seconds, unit, trace_path))
        return outcome

    warm_up(specs[0])
    series = _timed_units(seconds, clock, unit)
    for index in range(len(specs)):
        _repeats_exactly(outcome, f"canonical JSON of campaign {index}",
                         [runs[index].digest for runs in series])
    outcome.counters.update({
        "canonical_sha256": [run.digest for run in series[0]],
        "plan_cache.misses": sum(run.plan_misses for runs in series for run in runs),
        "sweep.persist_lines": [run.persist_lines for run in series[0]],
    })
    rng = random.Random(seed)
    for run in rng.sample(series[0], 2):
        for problem in scalar_mismatches(run, rng):
            outcome.check(False, problem)
        outcome.attempted += SCALAR_SAMPLE
    _answer_metrics(outcome, clock, series)
    outcome.metrics["setup_s"] = setup_s
    outcome.metrics["peak_rss_mib"] = peak_rss_mib_self()
    return outcome

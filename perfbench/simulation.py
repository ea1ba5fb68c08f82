"""The two simulation workloads: ``sim_fig2`` and ``sim_latency``.

Both run the ``simulate`` backend on the paper's Figure-2 problem (11x11
grid, 4-point stencil), Smache and the no-buffering baseline, on a seeded
input grid.  An *answer* is one simulated pair (both systems), the
comparison Figure 2 reports.

* ``sim_fig2``: 100 instances at the default DRAM timing, the paper's
  configuration.  Almost every cycle is executed, so this measures the host
  cost of each simulated tick.
* ``sim_latency``: 50 instances at a latency-bound timing
  (``read_latency=300``, ``random_access_cycles=8``), where idle-horizon
  skipping jumps over most cycles, so this measures skipping.

Every run checks the simulated outputs against the ``reference`` backend
(bitwise), DRAM traffic and operation counts against the ``analytic``
backend (exactly), and, at the default timing only (inside the analytic
model's validated envelope), cycles against the analytic model within 5%.
Simulated statistics are deterministic: they must repeat exactly between
repeats, traced or not.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from common import (
    HostClock,
    Outcome,
    fresh_import_seconds,
    median,
    normalised_median,
    peak_rss_mib_self,
    run_until,
)
from tracer import Tracer

from repro.eval.paper_constants import PAPER_FIGURE2, relative_error
from repro.memory.dram import DRAMTiming
from repro.pipeline.backends import EvaluationRequest, evaluate
from repro.pipeline.problem import StencilProblem

IMPORTS = ("repro.pipeline", "repro.arch.system")
SYSTEMS = ("smache", "baseline")
ANALYTIC_TOLERANCE = 0.05
SET_UPS = 3


class Case:
    """One simulated configuration and its seeded input."""

    def __init__(self, seed: int, iterations: int, timing: Optional[DRAMTiming],
                 in_envelope: bool) -> None:
        self.problem = StencilProblem.paper_example(11, 11)
        rows, cols = self.problem.grid.shape
        # Integer-valued inputs keep the kernel's float sums exact, so the
        # bitwise comparison with the reference tests the dataflow only.
        self.grid = np.random.default_rng(seed).integers(0, 1 << 16, size=(rows, cols)).astype(
            np.float64)
        self.iterations = iterations
        self.timing = timing
        self.in_envelope = in_envelope

    def request(self, system: str) -> EvaluationRequest:
        return EvaluationRequest(system=system, iterations=self.iterations,
                                 input_grid=self.grid, dram_timing=self.timing)

    def simulate_pair(self):
        return [evaluate(self.problem, backend="simulate", request=self.request(system))
                for system in SYSTEMS]


def simulated_stats(results) -> Dict[str, float]:
    """The simulated statistics of one pair: exact, host-independent."""
    smache, baseline = results
    stats: Dict[str, float] = {
        "sim.cycles": smache.cycles + baseline.cycles,
        "sim.ticks_executed": sum(r.perf["sim_ticks_executed"] for r in results),
        "sim.cycles_skipped": sum(r.perf["sim_cycles_skipped"] for r in results),
        "sim.skip_regions": sum(r.perf["sim_skip_regions"] for r in results),
        "sim.component_ticks": sum(r.perf["sim_component_ticks"] for r in results),
        "arch.window_hits": smache.extra["window_hits"],
        "arch.static_hits": smache.extra["static_hits"],
        "arch.emit_stalls": smache.extra["emit_stalls"],
        "arch.input_starved": smache.extra["input_starved"],
        "memory.dram_sequential": sum(r.extra["dram_sequential"] for r in results),
        "memory.dram_random": sum(r.extra["dram_random"] for r in results),
        "memory.dram_bytes": sum(r.dram_bytes for r in results),
    }
    stats["sim.skip_ratio"] = stats["sim.cycles_skipped"] / stats["sim.cycles"]
    return stats


def check_pair(outcome: Outcome, case: Case, results, trace: Optional[Tracer] = None
               ) -> Dict[str, float]:
    """Check one simulated pair; returns the model-error figures."""
    figures: Dict[str, float] = {}
    for system, simulated in zip(SYSTEMS, results):
        request = case.request(system)
        if trace is None:
            reference = evaluate(case.problem, backend="reference", request=request)
        else:
            with trace.span("reference"):
                reference = evaluate(case.problem, backend="reference", request=request)
        outcome.check(np.array_equal(simulated.output, reference.output),
                      f"{system}: simulated output differs from the reference backend")
        analytic = evaluate(case.problem, backend="analytic", request=request)
        for name in ("dram_words_read", "dram_words_written", "dram_bytes", "operations"):
            outcome.check(getattr(simulated, name) == getattr(analytic, name),
                          f"{system}: {name} simulated {getattr(simulated, name)} != "
                          f"analytic {getattr(analytic, name)}")
        error = relative_error(analytic.cycles, simulated.cycles)
        figures[f"analytic.cycle_err_{system}"] = error
        if case.in_envelope:
            outcome.check(error <= ANALYTIC_TOLERANCE,
                          f"{system}: analytic cycles off by {error:.2%} (limit 5%)")
            figures[f"sim.paper_cycle_err_{system}"] = relative_error(
                simulated.cycles, PAPER_FIGURE2[system]["cycle_count"])
    outcome.attempted += 2 * len(SYSTEMS)
    figures["analytic.cycle_err"] = max(figures[f"analytic.cycle_err_{s}"] for s in SYSTEMS)
    if case.in_envelope:
        figures["sim.paper_cycle_err"] = max(
            figures[f"sim.paper_cycle_err_{s}"] for s in SYSTEMS)
    return figures


def _same(outcome: Outcome, label: str, first: Dict[str, float], other: Dict[str, float]) -> None:
    for name, value in first.items():
        outcome.check(other[name] == value,
                      f"{name} differs between repeats ({label}): {value} vs {other[name]}")


def install_spans(tracer: Tracer) -> None:
    """``sim.build`` around system construction and input load, ``sim.run`` around runs."""
    from repro.arch.system import BaselineSystem, SmacheSystem

    for system in (SmacheSystem, BaselineSystem):
        tracer.wrap(system, "__init__", "sim.build")
        tracer.wrap(system, "load_input", "sim.build")
        tracer.wrap(system, "run", "sim.run")


def _run(case: Case, seconds: float, trace: bool, trace_path: Path) -> Outcome:
    outcome = Outcome()
    case.simulate_pair()  # warm-up: lazy imports and first-call paths

    if trace:
        outcome.metrics.update(_traced(outcome, case, seconds, trace_path))
        return outcome

    clock = HostClock()
    setup_s = normalised_median(clock, lambda: fresh_import_seconds(IMPORTS), SET_UPS)
    timed = run_until(seconds, 3, lambda _i: clock.around(lambda: _timed_pair(case)))
    first = simulated_stats(timed[0][0][0])
    for (results, _wall), _factor in timed[1:]:
        _same(outcome, "untraced", first, simulated_stats(results))
    figures = check_pair(outcome, case, timed[0][0][0])
    outcome.counters.update(first)
    outcome.counters.update(figures)
    walls = [wall * factor for (_results, wall), factor in timed]
    raw = [wall for (_results, wall), _factor in timed]
    cycles = first["sim.cycles"]
    outcome.attempted += len(timed) * len(SYSTEMS)
    outcome.metrics.update({
        "throughput_per_s": median(cycles / wall for wall in walls),
        "latency_ms": median(walls) * 1e3,
        # One answer per timed unit: the unit's slowest answer is the answer.
        "tail_latency_ms": median(walls) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mib": peak_rss_mib_self(),
    })
    outcome.notes.append(
        f"{len(walls)} simulated pairs, {cycles} simulated cycles each, "
        f"skip ratio {first['sim.skip_ratio']:.3f}; raw pair walls "
        + " ".join(f"{wall:.3f}" for wall in raw) + f"; {clock.describe()}")
    outcome.notes.append(
        "model error: " + ", ".join(f"{name} {value:.4f}" for name, value in sorted(figures.items())))
    return outcome


def _traced(outcome: Outcome, case: Case, seconds: float, trace_path: Path) -> Dict[str, float]:
    """Pairs of one untraced and one traced simulation until ``seconds`` pass."""
    expected_results, _wall = _timed_pair(case)
    figures = check_pair(outcome, case, expected_results)
    expected = simulated_stats(expected_results)
    per_repeat: List[Dict[str, float]] = []
    overheads: List[float] = []
    last: Tracer = None

    def pair(index: int) -> None:
        nonlocal last
        # Alternate which side of a pair runs first, so drift cancels.
        untraced = _timed_pair(case)[1] if index % 2 == 0 else None
        tracer = Tracer()
        install_spans(tracer)
        try:
            with tracer.span("sim"):
                results, wall = _timed_pair(case)
        finally:
            tracer.restore()
        if untraced is None:
            untraced = _timed_pair(case)[1]
        stats = simulated_stats(results)
        _same(outcome, "traced vs untraced", expected, stats)
        check_pair(outcome, case, results, tracer)
        run_s = tracer.total("sim.run")
        stats.update({
            "sim.build_s": tracer.total("sim.build"),
            "sim.run_s": run_s,
            "sim.host_ns_per_tick": run_s / stats["sim.ticks_executed"] * 1e9,
            "sim.cycles_per_s": stats["sim.cycles"] / run_s,
            "reference.s": tracer.total("reference"),
        })
        per_repeat.append(stats)
        overheads.append(wall - untraced)
        last = tracer

    run_until(seconds, 2, pair)
    outcome.counters.update(expected)
    outcome.counters.update(figures)
    outcome.notes.append(f"last traced pair, {last.layer_table()}")
    last.dump(str(trace_path))
    metrics = {name: median(r[name] for r in per_repeat) for name in per_repeat[0]}
    metrics.update(figures)
    metrics["trace.overhead_s"] = median(overheads)
    metrics["trace.spans"] = len(last.spans)
    return metrics


def _timed_pair(case: Case):
    start = time.perf_counter()
    results = case.simulate_pair()
    return results, time.perf_counter() - start


def sim_fig2(seed: int, seconds: float, trace: bool, trace_path: Path) -> Outcome:
    return _run(Case(seed, 100, None, in_envelope=True), seconds, trace, trace_path)


def sim_latency(seed: int, seconds: float, trace: bool, trace_path: Path) -> Outcome:
    timing = DRAMTiming(read_latency=300, random_access_cycles=8)
    return _run(Case(seed, 50, timing, in_envelope=False), seconds, trace, trace_path)

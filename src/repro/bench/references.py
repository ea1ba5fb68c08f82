"""Declarative performance references: the single copy of every gated bound.

:data:`DEFAULT_REFERENCES` maps a qualified metric name
(``<suite>.<metric>``) to its band::

    "sim.smache_cycles_per_sec.speedup": (3.0, 0.0, None, "x"),

Each band is ``(ref, lo_frac, hi_frac, unit)`` — ReFrame's convention: the
measured value must lie within ``[ref * (1 + lo_frac), ref * (1 + hi_frac)]``;
``None`` on either side means unbounded.  So ``(3.0, 0.0, None, "x")`` reads
"at least 3x", and ``(96, 0, 0, "count")`` is an exact-match band.

The table holds two kinds of band, both meaningful on any host:

* the same-process ratio claims of :mod:`repro.bench.claims`, each at
  exactly the bound the claim states (a fast path against its reference
  path, timed in one process);
* exact work counters of traced perfbench ``campaign_cold``, ``sim_fig2``
  and ``sim_latency`` runs, which depend only on the seed and the code.

End-to-end timings (throughput, latency, set-up) are deliberately *not*
referenced: ``BENCHMARK.json`` bounds them against the parent commit, and
an absolute band would only measure the runner.  Metrics in
:data:`CONTENDED_EXEMPT` are only gated on uncontended hosts (see
:mod:`repro.bench.host`): a process pool cannot beat the serial runner on a
single core, so its "speedup" says nothing there.
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple

#: One reference band: (reference value, lo fraction, hi fraction, unit).
MetricBand = Tuple[float, Optional[float], Optional[float], str]

#: A reference table: qualified metric name -> band.
ReferenceTable = Mapping[str, MetricBand]

#: Metrics that compare wall-clock across process counts: meaningless on a
#: contended host (fewer cores than workers), so the gate skips them there.
CONTENDED_EXEMPT = frozenset({
    "pipeline.parallel_campaign.parallel_speedup",
})

#: The gated bounds, on every host.
DEFAULT_REFERENCES: ReferenceTable = {
    # --- claims: sim (fast engine vs naive ticking; vectorized reference) ---
    "sim.smache_cycles_per_sec.speedup": (3.0, 0.0, None, "x"),
    "sim.baseline_cycles_per_sec.speedup": (2.0, 0.0, None, "x"),
    "sim.default_timing_overhead.overhead_ratio": (1.5, None, 0.0, "ratio"),
    # Figure 2 at 100 instances: each system's timing digest repeats after
    # three simulated instances (period 2: the grid copies alternate).
    "sim.figure2_fast_forward.instances_simulated_smache": (3.0, 0.0, 0.0, "count"),
    "sim.figure2_fast_forward.instances_simulated_baseline": (3.0, 0.0, 0.0, "count"),
    "sim.reference_cells_per_sec.speedup": (10.0, 0.0, None, "x"),
    # --- claims: pipeline (analytic backend, DSE sweep, process pool) ---
    "pipeline.analytic_backend.analytic_speedup": (20.0, 0.0, None, "x"),
    "pipeline.analytic_sweep_vs_full_simulation.sweep_speedup": (1.0, 0.0, None, "x"),
    "pipeline.parallel_campaign.parallel_speedup": (1.1, 0.0, None, "x"),
    # --- claims: compile (uncached 1024x1024 vs 11x11; shared batch stages) ---
    "compile.row_count_independence.time_ratio": (2.0, None, 0.0, "ratio"),
    # 20 designs of a reach x mode sweep over two grids hold 8 distinct
    # (plan, mode) pairs: a cold batch synthesizes each pair once.
    "compile.shared_synthesis.synthesis_calls": (8.0, 0.0, 0.0, "count"),
    # --- claims: analytic (warm vectorized pricing vs the scalar loop) ---
    "analytic.scalar_vs_vectorized.warm_speedup": (20.0, 0.0, None, "x"),
    "analytic.scalar_vs_vectorized.reprice_new_knobs_speedup": (5.0, 0.0, None, "x"),
    # --- claims: serve (micro-batched server vs the per-request loop) ---
    "serve.batched_vs_scalar_serving.speedup_vs_serial_scalar": (5.0, 0.0, None, "x"),
    # --- perfbench campaign_cold, traced: exact work counters (seeds 1, 2) ---
    "campaign_cold.compile.calls": (96.0, 0.0, 0.0, "count"),
    # 12 range partitions for 96 compiles: the batch partitions each of
    # its 12 distinct (grid, stencil, boundary) inputs once.
    "campaign_cold.compile.ranges_calls_per_compile": (0.125, 0.0, 0.0, "count"),
    "campaign_cold.plan_cache.misses": (96.0, 0.0, 0.0, "count"),
    # Each design is compiled once and then hit once (its second system),
    # and the whole campaign prices in one batch: compile work cannot move
    # into pricing, nor the batch split, without failing these.
    "campaign_cold.plan_cache.hits": (96.0, 0.0, 0.0, "count"),
    "campaign_cold.pricing.calls": (1.0, 0.0, 0.0, "count"),
    "campaign_cold.pricing.points": (192.0, 0.0, 0.0, "count"),
    "campaign_cold.sweep.events": (386.0, 0.0, 0.0, "count"),
    "campaign_cold.sweep.points_failed": (0.0, 0.0, 0.0, "count"),
    # --- perfbench sim_fig2 / sim_latency, traced: exact scheduler work ---
    # (any seed: a scheduler that executes or skips other cycles fails).
    # Each system simulates three instances and fast-forwards the rest, so
    # the executed and skipped cycles are those of the simulated prefix.
    "sim_fig2.sim.cycles": (75924.0, 0.0, 0.0, "count"),
    "sim_fig2.sim.ticks_executed": (2298.0, 0.0, 0.0, "count"),
    "sim_fig2.sim.cycles_skipped": (3.0, 0.0, 0.0, "count"),
    "sim_fig2.sim.skip_regions": (3.0, 0.0, 0.0, "count"),
    "sim_fig2.sim.component_ticks": (6901.0, 0.0, 0.0, "count"),
    "sim_latency.sim.cycles": (1183249.0, 0.0, 0.0, "count"),
    "sim_latency.sim.ticks_executed": (7273.0, 0.0, 0.0, "count"),
    "sim_latency.sim.cycles_skipped": (64312.0, 0.0, 0.0, "count"),
    "sim_latency.sim.skip_regions": (2084.0, 0.0, 0.0, "count"),
    "sim_latency.sim.component_ticks": (20036.0, 0.0, 0.0, "count"),
}


def band_bounds(band: MetricBand) -> Tuple[Optional[float], Optional[float]]:
    """The absolute ``(lower, upper)`` bounds of a reference band."""
    ref, lo_frac, hi_frac, _unit = band
    lower = None if lo_frac is None else ref * (1.0 + lo_frac)
    upper = None if hi_frac is None else ref * (1.0 + hi_frac)
    return lower, upper


def in_band(value: float, band: MetricBand) -> bool:
    """Whether ``value`` lies inside the band's tolerance."""
    lower, upper = band_bounds(band)
    if lower is not None and value < lower:
        return False
    if upper is not None and value > upper:
        return False
    return True


def _format_bound(bound: Optional[float]) -> str:
    """An integral bound in full (exact counts), any other one in ``%g``."""
    if bound is None:
        return "-"
    return str(int(bound)) if float(bound).is_integer() else f"{bound:g}"


def format_band(band: MetricBand) -> str:
    """``[2.5, -] x`` — the absolute band, for reports."""
    lower, upper = band_bounds(band)
    lo = _format_bound(lower)
    hi = _format_bound(upper)
    unit = band[3]
    return f"[{lo}, {hi}] {unit}".rstrip()

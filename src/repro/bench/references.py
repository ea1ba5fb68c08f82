"""Declarative per-host performance references (the ReFrame idiom).

A reference table maps a host key (``"node:machine"``, see
:attr:`repro.bench.host.HostFingerprint.key`) to a dict of metric bands::

    {
        "ci:x86_64": {  # optional: a host that can hold tighter bands
            "sim.smache_cycles_per_sec.speedup": (5.0, -0.2, None, "x"),
        },
        "*": {  # wildcard: every host without its own entry
            "sim.smache_cycles_per_sec.speedup": (3.0, 0.0, None, "x"),
        },
    }

Each band is ``(ref, lo_frac, hi_frac, unit)`` — exactly ReFrame's
convention: the measured value must lie within ``[ref * (1 + lo_frac),
ref * (1 + hi_frac)]``; ``None`` on either side means unbounded.  So
``(3.0, 0.0, None, "x")`` reads "at least 3x", and ``(96, 0, 0, "count")``
is an exact-match band.

Resolution is **per metric**: a host's own entry wins, and any metric it
does not mention falls back to the wildcard.

:data:`DEFAULT_REFERENCES` is the single copy of every gated bound.  It
holds two kinds of band, both meaningful on any host:

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

import json
from typing import Dict, Mapping, Optional, Sequence, Tuple

#: One reference band: (reference value, lo fraction, hi fraction, unit).
MetricBand = Tuple[float, Optional[float], Optional[float], str]

#: A full reference table: host key (or "*") -> metric name -> band.
ReferenceTable = Mapping[str, Mapping[str, MetricBand]]

#: The wildcard host key.
WILDCARD = "*"

#: Metrics that compare wall-clock across process counts: meaningless on a
#: contended host (fewer cores than workers), so the gate skips them there.
CONTENDED_EXEMPT = frozenset({
    "pipeline.parallel_campaign.parallel_speedup",
})

#: The gated bounds, on every host.
DEFAULT_REFERENCES: ReferenceTable = {
    WILDCARD: {
        # --- claims: sim (fast engine vs naive ticking; vectorized reference) ---
        "sim.smache_cycles_per_sec.speedup": (3.0, 0.0, None, "x"),
        "sim.baseline_cycles_per_sec.speedup": (2.0, 0.0, None, "x"),
        "sim.default_timing_overhead.overhead_ratio": (1.5, None, 0.0, "ratio"),
        "sim.reference_cells_per_sec.speedup": (10.0, 0.0, None, "x"),
        # --- claims: pipeline (analytic backend, DSE sweep, process pool) ---
        "pipeline.analytic_backend.analytic_speedup": (20.0, 0.0, None, "x"),
        "pipeline.analytic_sweep_vs_full_simulation.sweep_speedup": (
            1.0, 0.0, None, "x",
        ),
        "pipeline.parallel_campaign.parallel_speedup": (1.1, 0.0, None, "x"),
        # --- claims: compile (uncached 1024x1024 vs 11x11 paper compile) ---
        "compile.row_count_independence.time_ratio": (2.0, None, 0.0, "ratio"),
        # --- claims: analytic (warm vectorized pricing vs the scalar loop) ---
        "analytic.scalar_vs_vectorized.warm_speedup": (20.0, 0.0, None, "x"),
        "analytic.scalar_vs_vectorized.reprice_new_knobs_speedup": (
            5.0, 0.0, None, "x",
        ),
        # --- claims: serve (micro-batched server vs the per-request loop) ---
        "serve.batched_vs_scalar_serving.speedup_vs_serial_scalar": (
            5.0, 0.0, None, "x",
        ),
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
        # (any seed: a scheduler that executes or skips other cycles fails)
        "sim_fig2.sim.cycles": (75924.0, 0.0, 0.0, "count"),
        "sim_fig2.sim.ticks_executed": (75824.0, 0.0, 0.0, "count"),
        "sim_fig2.sim.cycles_skipped": (100.0, 0.0, 0.0, "count"),
        "sim_fig2.sim.skip_regions": (100.0, 0.0, 0.0, "count"),
        "sim_fig2.sim.component_ticks": (224763.0, 0.0, 0.0, "count"),
        "sim_latency.sim.cycles": (1183249.0, 0.0, 0.0, "count"),
        "sim_latency.sim.ticks_executed": (117133.0, 0.0, 0.0, "count"),
        "sim_latency.sim.cycles_skipped": (1066116.0, 0.0, 0.0, "count"),
        "sim_latency.sim.skip_regions": (34234.0, 0.0, 0.0, "count"),
        "sim_latency.sim.component_ticks": (306856.0, 0.0, 0.0, "count"),
    },
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


def resolve_references(
    host_key: str, references: ReferenceTable
) -> Dict[str, MetricBand]:
    """The effective metric bands for one host.

    Per-metric precedence: the host's own entry wins; metrics it does not
    mention fall back to the wildcard entry.  A host with no entry of its
    own gets the wildcard table verbatim.
    """
    resolved: Dict[str, MetricBand] = {}
    for name, band in (references.get(WILDCARD) or {}).items():
        resolved[name] = _normalize_band(name, band)
    for name, band in (references.get(host_key) or {}).items():
        resolved[name] = _normalize_band(name, band)
    return resolved


def _normalize_band(name: str, band: Sequence) -> MetricBand:
    """Validate and normalise one band (tuples from Python, lists from JSON)."""
    if not isinstance(band, (tuple, list)) or len(band) != 4:
        raise ValueError(
            f"reference {name!r} must be (ref, lo_frac, hi_frac, unit), got {band!r}"
        )
    ref, lo, hi, unit = band
    if not isinstance(ref, (int, float)) or isinstance(ref, bool):
        raise ValueError(f"reference {name!r} has a non-numeric ref {ref!r}")
    for frac in (lo, hi):
        if frac is not None and (
            not isinstance(frac, (int, float)) or isinstance(frac, bool)
        ):
            raise ValueError(f"reference {name!r} has a non-numeric bound {frac!r}")
    return (float(ref), lo, hi, str(unit))


def load_references(path: str) -> ReferenceTable:
    """Load a reference table from JSON (bands as 4-element lists).

    The file mirrors the Python structure::

        {"ci:x86_64": {"sim.smache_cycles_per_sec.speedup": [5.0, -0.2, null, "x"]},
         "*": {...}}
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"reference file {path!r} must hold a JSON object")
    table: Dict[str, Dict[str, MetricBand]] = {}
    for host_key, metrics in payload.items():
        if not isinstance(metrics, dict):
            raise ValueError(
                f"reference file {path!r}: host {host_key!r} must map metrics "
                "to [ref, lo, hi, unit] bands"
            )
        table[host_key] = {
            name: _normalize_band(name, band) for name, band in metrics.items()
        }
    return table

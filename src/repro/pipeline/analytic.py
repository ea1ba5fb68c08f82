"""Closed-form performance model: cycles, DRAM traffic and ops without a clock.

The cycle-accurate simulator in :mod:`repro.arch` steps every component every
cycle, which is what makes it trustworthy — and what makes broad design-space
sweeps expensive.  This module predicts the same three quantities (cycle
count, DRAM traffic, operation count) directly from the
:class:`~repro.core.buffers.BufferPlan`, the stream-range structure and the
:class:`~repro.memory.dram.DRAMTiming`, in microseconds instead of seconds.

The model is *structural*, not fitted: every term corresponds to a mechanism
of the simulated microarchitecture.

Smache (per work-instance)
    ``floor((prefetch_words + N) * word_period)`` — the streaming front-end
    accepts one word per cycle, so the instance is throughput-bound by the
    ``N`` stream words (plus the static-buffer prefetch on warm-up).
    ``word_period`` exceeds one cycle only when the DRAM read latency is so
    large that the response window (``RESPONSE_CAPACITY`` in-flight reads)
    cannot cover it;

    ``+ window_hi`` — emission of tuple ``i`` waits until the window head has
    run ``window_hi`` positions ahead (the look-ahead of FSM-2);

    ``+ read_latency + kernel.latency + SMACHE_PIPELINE_OVERHEAD`` — the
    pipeline fill/drain: DRAM read latency, kernel pipeline depth and the
    seven single-cycle hops of the shell (read command, DRAM accept, response
    channel, router, window insert, tuple channel, write-back/commit);

    ``+ burst_breaks * (random_access_cycles - stream_word_cycles)`` — every
    non-contiguous transition on the DRAM read or write port (prefetch job
    starts, the per-instance stream restart, the ping-pong write-base flip)
    stalls the stream by the burst-break penalty.

Baseline
    The shared command bus serves exactly one transaction per cycle, so the
    instance cost is the bus occupancy ``seq * stream_word_cycles +
    rand * random_access_cycles`` — with the sequential/random split counted
    exactly from the per-range fetch schedule — plus a per-instance drain
    (read latency + kernel latency + ``BASELINE_DRAIN_OVERHEAD``).

DRAM traffic and operation counts are exact (they are deterministic counts,
not timing), so only the cycle prediction carries a tolerance:
:data:`ANALYTIC_TOLERANCE` (5%), asserted against the simulator by
:func:`validate_prediction` in the ReFrame style of a reference value with a
relative band.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.buffers import BufferPlan
from repro.core.ranges import StreamRange
from repro.memory.dram import DEFAULT_RESPONSE_CAPACITY, DRAMTiming
from repro.reference.kernels import StencilKernel
from repro.pipeline.compile import CompiledDesign

#: Relative tolerance of the cycle prediction against the simulator.
ANALYTIC_TOLERANCE = 0.05

#: Fixed single-cycle hops between the DRAM response and the committed write
#: (read command, DRAM accept, response channel, router, window insert, tuple
#: channel, write-back) in the simulated Smache shell.
SMACHE_PIPELINE_OVERHEAD = 7

#: Per-instance drain of the baseline master beyond bus occupancy and the
#: read/kernel latencies (response hop + final write commit).  Exact for a
#: burst-break penalty >= 2 cycles; overestimates by <= 2 cycles per instance
#: at the degenerate penalty-free timing.
BASELINE_DRAIN_OVERHEAD = 2

#: In-flight read window of the simulated DRAM read port, shared with
#: :class:`repro.memory.dram.DRAMModel` so the two cannot drift.
RESPONSE_CAPACITY = DEFAULT_RESPONSE_CAPACITY


@dataclass(frozen=True)
class PerformancePrediction:
    """Analytically predicted counterpart of a ``SimulationResult``."""

    system: str
    cycles: int
    iterations: int
    grid_points: int
    dram_words_read: int
    dram_words_written: int
    dram_bytes: int
    operations: int
    detail: Dict[str, float] = field(default_factory=dict)

    @property
    def dram_traffic_kib(self) -> float:
        """Total DRAM traffic in KiB."""
        return self.dram_bytes / 1024.0

    @property
    def cycles_per_point(self) -> float:
        """Average cycles per grid point per work-instance."""
        total_points = max(1, self.grid_points * self.iterations)
        return self.cycles / total_points

    def execution_time_us(self, frequency_mhz: float) -> float:
        """Predicted execution time in microseconds at the given clock."""
        if frequency_mhz <= 0:
            raise ValueError("frequency must be positive")
        return self.cycles / frequency_mhz

    def mops(self, frequency_mhz: float) -> float:
        """Millions of kernel operations per second at the given clock."""
        time_us = self.execution_time_us(frequency_mhz)
        return self.operations / time_us if time_us else 0.0


# --------------------------------------------------------------------------- #
# shared helpers
# --------------------------------------------------------------------------- #
def _extrapolate(per_instance: Sequence[int], iterations: int) -> int:
    """Sum a per-instance series whose tail alternates with period two.

    ``per_instance`` holds the first ``min(iterations, 3)`` instance values;
    after the warm-up instance the system ping-pongs between two DRAM bases,
    so instances alternate between exactly two steady values.
    """
    if iterations <= len(per_instance):
        return sum(per_instance[:iterations])
    total = sum(per_instance)
    odd_value, even_value = per_instance[1], per_instance[2]
    remaining_odd = sum(1 for i in range(3, iterations) if i % 2 == 1)
    remaining_even = (iterations - 3) - remaining_odd
    return total + remaining_odd * odd_value + remaining_even * even_value


def _burst_break(last_addr: Optional[int], addr: int) -> bool:
    """True when ``addr`` does not continue the port's open burst."""
    return last_addr is None or addr != last_addr + 1


# --------------------------------------------------------------------------- #
# Smache
# --------------------------------------------------------------------------- #
def predict_smache(
    plan: BufferPlan,
    kernel: StencilKernel,
    iterations: int,
    timing: Optional[DRAMTiming] = None,
    write_through: bool = True,
) -> PerformancePrediction:
    """Predict the Smache system's cycles, traffic and ops for one workload."""
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    t = timing or DRAMTiming()
    n = plan.grid.size
    window_hi = plan.stream.window_hi
    statics = tuple((s.start, s.length) for s in plan.statics)
    prefetch_words = sum(length for _, length in statics)
    penalty = t.random_access_cycles - t.stream_word_cycles

    # Effective cycles per stream word: one, unless the read latency exceeds
    # what the in-flight response window can hide.
    word_period = max(
        float(t.stream_word_cycles),
        (t.read_latency + t.stream_word_cycles) / RESPONSE_CAPACITY,
    )
    fill_overhead = (
        window_hi + t.read_latency + kernel.latency + SMACHE_PIPELINE_OVERHEAD
    )

    read_last: Optional[int] = None
    write_last: Optional[int] = None
    per_instance: List[int] = []
    total_breaks = 0
    for instance in range(min(iterations, 3)):
        src = 0 if instance % 2 == 0 else n
        dst = n if instance % 2 == 0 else 0
        prefetching = instance == 0 or not write_through
        breaks = 0
        if prefetching:
            for start, length in statics:
                if _burst_break(read_last, src + start):
                    breaks += 1
                read_last = src + start + length - 1
        if _burst_break(read_last, src):
            breaks += 1
        read_last = src + n - 1
        if _burst_break(write_last, dst):
            breaks += 1
        write_last = dst + n - 1
        streamed = n + (prefetch_words if prefetching else 0)
        per_instance.append(int(streamed * word_period) + fill_overhead + breaks * penalty)
        total_breaks += breaks

    cycles = 1 + _extrapolate(per_instance, iterations) if iterations else 0
    prefetch_instances = 1 if (write_through and iterations) else iterations
    words_read = prefetch_words * prefetch_instances + n * iterations
    words_written = n * iterations
    word_bytes = plan.grid.word_bytes
    return PerformancePrediction(
        system="smache",
        cycles=cycles,
        iterations=iterations,
        grid_points=n,
        dram_words_read=words_read,
        dram_words_written=words_written,
        dram_bytes=(words_read + words_written) * word_bytes,
        operations=kernel.ops_per_point * n * iterations,
        detail={
            "word_period": word_period,
            "fill_overhead": fill_overhead,
            "prefetch_words": prefetch_words,
            "burst_breaks_first_instances": total_breaks,
        },
    )


# --------------------------------------------------------------------------- #
# baseline
# --------------------------------------------------------------------------- #
def _fetch_deltas(ranges: Sequence[StreamRange]) -> List[Tuple[int, int, Tuple[int, ...]]]:
    """Per-range fetch schedule: ``(start, length, per-access address deltas)``.

    Mirrors :func:`repro.arch.baseline.build_fetch_plan`: existing accesses
    fetch ``centre + delta``; skipped/constant accesses issue a dummy centre
    read (delta 0) to keep the schedule regular.  Within a range every point
    shares the same deltas, which is what makes the count closed-form.
    Deltas are relative to the centre, so a translated range has those of
    its template: they are computed once per template, and no translated
    representative is built.
    """
    by_template: Dict[int, Tuple[int, ...]] = {}
    out = []
    for r in ranges:
        template = r.template
        deltas = by_template.get(id(template))
        if deltas is None:
            deltas = by_template[id(template)] = tuple(
                (p.linear_index - template.centre_linear)
                if (p.exists and p.linear_index is not None)
                else 0
                for p in template.points
            )
        out.append((r.start, r.length, deltas))
    return out


def baseline_schedule_constants(
    plan: BufferPlan, ranges: Sequence[StreamRange]
) -> Tuple[int, int, int, int]:
    """Instance-invariant constants of the baseline fetch schedule.

    Returns ``(n_points, seq_intra, first_rel, last_rel)``: the per-point
    access count, the sequential read transitions that repeat identically
    every instance (within a point's fetches, between consecutive points of a
    range, and between consecutive ranges), and the base-relative addresses
    of the first and last read of an instance.  These are pure structural
    counts — shared between :func:`predict_baseline` and the vectorized
    engine of :mod:`repro.pipeline.analytic_batch` so the two cannot drift.
    """
    if not ranges:
        raise ValueError("predict_baseline needs the problem's stream ranges")
    n = plan.grid.size
    n_points = len(ranges[0].template.points)
    schedule = _fetch_deltas(ranges)

    # Per distinct deltas (shared object per template): sequential steps
    # within one point's fetches, and whether consecutive points chain.
    per_point: Dict[int, Tuple[int, bool]] = {}
    seq_intra = 0
    for start, length, deltas in schedule:
        steps = per_point.get(id(deltas))
        if steps is None:
            steps = per_point[id(deltas)] = (
                sum(1 for a, b in zip(deltas, deltas[1:]) if b == a + 1),
                bool(deltas) and deltas[0] == deltas[-1],
            )
        within, chained = steps
        seq_intra += length * within
        if chained:
            seq_intra += length - 1
    for (s0, l0, d0), (s1, _, d1) in zip(schedule, schedule[1:]):
        last_addr = (s0 + l0 - 1) + (d0[-1] if d0 else 0)
        first_addr = s1 + (d1[0] if d1 else 0)
        if first_addr == last_addr + 1:
            seq_intra += 1

    first_rel = schedule[0][0] + (schedule[0][2][0] if schedule[0][2] else 0)
    last_rel = (n - 1) + (schedule[-1][2][-1] if schedule[-1][2] else 0)
    return n_points, seq_intra, first_rel, last_rel


def predict_baseline(
    plan: BufferPlan,
    ranges: Sequence[StreamRange],
    kernel: StencilKernel,
    iterations: int,
    timing: Optional[DRAMTiming] = None,
) -> PerformancePrediction:
    """Predict the no-buffering baseline's cycles, traffic and ops."""
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    t = timing or DRAMTiming()
    n = plan.grid.size
    # The carry-in transition of each instance depends on the ping-pong base
    # and is walked per instance below; everything else is instance-invariant.
    n_points, seq_intra, first_rel, last_rel = baseline_schedule_constants(plan, ranges)

    read_last: Optional[int] = None
    write_last: Optional[int] = None
    per_instance_seq: List[int] = []
    for instance in range(min(iterations, 3)):
        src = 0 if instance % 2 == 0 else n
        dst = n if instance % 2 == 0 else 0
        seq = seq_intra + (0 if _burst_break(read_last, src + first_rel) else 1)
        read_last = src + last_rel
        # writes walk the destination copy in order; only the first can break.
        seq += (n - 1) + (0 if _burst_break(write_last, dst) else 1)
        write_last = dst + n - 1
        per_instance_seq.append(seq)

    seq_total = _extrapolate(per_instance_seq, iterations)
    accesses = (n_points + 1) * n * iterations
    rand_total = accesses - seq_total
    bus_cycles = seq_total * t.stream_word_cycles + rand_total * t.random_access_cycles
    drain = t.read_latency + kernel.latency + BASELINE_DRAIN_OVERHEAD
    cycles = bus_cycles + iterations * drain + 1 if iterations else 0

    words_read = n_points * n * iterations
    words_written = n * iterations
    word_bytes = plan.grid.word_bytes
    return PerformancePrediction(
        system="baseline",
        cycles=cycles,
        iterations=iterations,
        grid_points=n,
        dram_words_read=words_read,
        dram_words_written=words_written,
        dram_bytes=(words_read + words_written) * word_bytes,
        operations=kernel.ops_per_point * n * iterations,
        detail={
            "sequential_accesses": seq_total,
            "random_accesses": rand_total,
            "bus_cycles": bus_cycles,
            "per_instance_drain": drain,
        },
    )


def predict_performance(
    design: CompiledDesign,
    system: str = "smache",
    iterations: int = 1,
    kernel: Optional[StencilKernel] = None,
    timing: Optional[DRAMTiming] = None,
    write_through: bool = True,
) -> PerformancePrediction:
    """Predict performance of a compiled design on either system."""
    kernel = kernel or design.problem.effective_kernel
    if system == "smache":
        return predict_smache(
            design.plan, kernel, iterations, timing=timing, write_through=write_through
        )
    if system == "baseline":
        return predict_baseline(design.plan, design.ranges, kernel, iterations, timing=timing)
    raise ValueError(f"unknown system {system!r}; expected 'smache' or 'baseline'")


# --------------------------------------------------------------------------- #
# cross-validation against the simulator (ReFrame-style reference bands)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ReferenceBand:
    """A reference value with a relative tolerance band, ReFrame style.

    ``lower``/``upper`` are relative bounds: ``(-0.05, 0.05)`` accepts
    measurements within 5% on either side of the reference.
    """

    value: float
    lower: float = -ANALYTIC_TOLERANCE
    upper: float = ANALYTIC_TOLERANCE

    def error(self, measured: float) -> float:
        """Signed relative deviation of ``measured`` from the reference."""
        if self.value == 0:
            return 0.0 if measured == 0 else float("inf")
        return (measured - self.value) / abs(self.value)

    def contains(self, measured: float) -> bool:
        """True when ``measured`` falls inside the band."""
        return self.lower <= self.error(measured) <= self.upper


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of cross-validating the analytic model against the simulator."""

    system: str
    bands: Dict[str, ReferenceBand]
    predicted: Dict[str, float]
    iterations: int = 0
    simulate_seconds: float = 0.0
    predict_seconds: float = 0.0

    @property
    def errors(self) -> Dict[str, float]:
        """Signed relative error per metric (prediction vs simulation)."""
        return {m: band.error(self.predicted[m]) for m, band in self.bands.items()}

    @property
    def ok(self) -> bool:
        """True when every metric is inside its tolerance band."""
        return all(band.contains(self.predicted[m]) for m, band in self.bands.items())

    @property
    def worst_error(self) -> float:
        """Largest absolute relative error across the metrics."""
        return max((abs(e) for e in self.errors.values()), default=0.0)

    @property
    def speedup(self) -> float:
        """Wall-clock advantage of prediction over simulation."""
        if self.predict_seconds <= 0:
            return float("inf")
        return self.simulate_seconds / self.predict_seconds


#: The metrics cross-validated between the two backends.  Cycle counts carry
#: the relative tolerance band; word/operation counts must match exactly.
VALIDATED_METRICS = ("cycles", "dram_words_read", "dram_words_written", "operations")


def build_validation_report(
    system: str,
    simulated: Dict[str, float],
    predicted: Dict[str, float],
    iterations: int = 0,
    tolerance: float = ANALYTIC_TOLERANCE,
    simulate_seconds: float = 0.0,
    predict_seconds: float = 0.0,
) -> ValidationReport:
    """Assemble the canonical cross-validation report from metric dicts.

    The single place that encodes the banding rule (cycles get the relative
    ``tolerance``, counts must match exactly), shared by the in-process
    :func:`validate_prediction` and the sweep-engine E5 experiment.
    """
    bands = {
        metric: ReferenceBand(
            simulated[metric],
            *((-tolerance, tolerance) if metric == "cycles" else (0.0, 0.0)),
        )
        for metric in VALIDATED_METRICS
    }
    return ValidationReport(
        system=system,
        bands=bands,
        predicted={metric: predicted[metric] for metric in VALIDATED_METRICS},
        iterations=iterations,
        simulate_seconds=simulate_seconds,
        predict_seconds=predict_seconds,
    )


def validate_prediction(
    design: CompiledDesign,
    system: str = "smache",
    iterations: int = 5,
    timing: Optional[DRAMTiming] = None,
    tolerance: float = ANALYTIC_TOLERANCE,
) -> ValidationReport:
    """Run simulator and analytic model on the same workload and compare.

    Cycle counts carry the relative ``tolerance`` band; DRAM word counts and
    operation counts must match exactly (they are counts, not timing).
    """
    import time

    from repro.pipeline.backends import EvaluationRequest, get_backend

    request = EvaluationRequest(system=system, iterations=iterations, dram_timing=timing)
    t0 = time.perf_counter()
    simulated = get_backend("simulate").evaluate(design, request)
    t1 = time.perf_counter()
    predicted = get_backend("analytic").evaluate(design, request)
    t2 = time.perf_counter()
    return build_validation_report(
        system=system,
        simulated={m: getattr(simulated, m) for m in VALIDATED_METRICS},
        predicted={m: getattr(predicted, m) for m in VALIDATED_METRICS},
        iterations=iterations,
        tolerance=tolerance,
        simulate_seconds=t1 - t0,
        predict_seconds=t2 - t1,
    )

"""An independent literal implementation of the analytic model, for tests.

The production model (:mod:`repro.pipeline.analytic`) walks the three
warm-up instances once per design, when it builds the design's knobs, and
prices every request with one formula that the scalar backend and the batch
engine share.  So "scalar == batched" alone would check that formula against
itself.  This module keeps the model in its first, literal form: each call
walks the warm-up instances port by port and sums the period-two tail, with
nothing cached and nothing shared with the production code except the
published constants.  The parity suites compare both production paths
against it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.buffers import BufferPlan
from repro.core.ranges import StreamRange
from repro.memory.dram import DRAMTiming
from repro.pipeline.analytic import (
    BASELINE_DRAIN_OVERHEAD,
    RESPONSE_CAPACITY,
    SMACHE_PIPELINE_OVERHEAD,
    PerformancePrediction,
)
from repro.pipeline.backends import EvaluationRequest, EvaluationResult
from repro.pipeline.compile import CompiledDesign
from repro.reference.kernels import StencilKernel

#: Every result field that must match the oracle bit for bit.
METRIC_FIELDS = (
    "backend",
    "system",
    "iterations",
    "cycles",
    "dram_words_read",
    "dram_words_written",
    "dram_bytes",
    "operations",
)


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


def _fetch_deltas(ranges: Sequence[StreamRange]) -> List[Tuple[int, int, Tuple[int, ...]]]:
    """Per-range fetch schedule: ``(start, length, per-access address deltas)``.

    Mirrors :func:`repro.arch.baseline.build_fetch_plan`: existing accesses
    fetch ``centre + delta``; skipped/constant accesses issue a dummy centre
    read (delta 0) to keep the schedule regular.
    """
    out = []
    for r in ranges:
        template = r.representative
        deltas = tuple(
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
    """``(n_points, seq_intra, first_rel, last_rel)`` of the fetch schedule.

    The per-point access count, the sequential read transitions that repeat
    identically every instance, and the base-relative addresses of the first
    and last read of an instance.
    """
    if not ranges:
        raise ValueError("predict_baseline needs the problem's stream ranges")
    n = plan.grid.size
    n_points = len(ranges[0].representative.points)
    schedule = _fetch_deltas(ranges)

    seq_intra = 0
    for start, length, deltas in schedule:
        seq_intra += length * sum(1 for a, b in zip(deltas, deltas[1:]) if b == a + 1)
        if deltas and deltas[0] == deltas[-1]:
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


def evaluate(design: CompiledDesign, request: EvaluationRequest) -> EvaluationResult:
    """The oracle's answer in the analytic backend's result shape."""
    kernel = request.resolve_kernel(design)
    if request.system == "smache":
        prediction = predict_smache(
            design.plan,
            kernel,
            request.iterations,
            timing=request.dram_timing,
            write_through=request.write_through,
        )
    else:
        prediction = predict_baseline(
            design.plan, design.ranges, kernel, request.iterations, timing=request.dram_timing
        )
    return EvaluationResult(
        backend="analytic",
        system=request.system,
        design=design,
        iterations=request.iterations,
        cycles=prediction.cycles,
        dram_words_read=prediction.dram_words_read,
        dram_words_written=prediction.dram_words_written,
        dram_bytes=prediction.dram_bytes,
        operations=prediction.operations,
        extra=dict(prediction.detail),
        artifacts={"prediction": prediction},
    )


def assert_bitwise_equal(oracle_result, result):
    """Oracle vs production: every metric, every detail value, same types."""
    for name in METRIC_FIELDS:
        assert getattr(result, name) == getattr(oracle_result, name), name
    assert result.extra == oracle_result.extra
    for key, value in oracle_result.extra.items():
        assert type(result.extra[key]) is type(value), key
    assert result.artifacts["prediction"] == oracle_result.artifacts["prediction"]

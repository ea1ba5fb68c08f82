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

The model is written once.  What depends on the design alone (its sizes,
and the burst-break or sequential-access counts of the three warm-up
instances) is built once per design into :class:`SmacheKnobs` /
:class:`BaselineKnobs`.  What depends on the request is
:func:`smache_terms` / :func:`baseline_terms`, over operands that are Python
ints in the scalar backend and int64 columns in the vectorized engine of
:mod:`repro.pipeline.analytic_batch`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.buffers import BufferPlan
from repro.core.ranges import RangePartition, StreamRange
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


#: The ``detail`` keys of each system's prediction, in the order its terms
#: function returns the values.
DETAIL_FIELDS: Dict[str, Tuple[str, ...]] = {
    "smache": ("word_period", "fill_overhead", "prefetch_words", "burst_breaks_first_instances"),
    "baseline": ("sequential_accesses", "random_accesses", "bus_cycles", "per_instance_drain"),
}

#: The timing a request without one is priced at.
DEFAULT_TIMING = DRAMTiming()


# --------------------------------------------------------------------------- #
# per-design knobs: the warm-up instance walk, once per design
# --------------------------------------------------------------------------- #
class SmacheKnobs(NamedTuple):
    """Per-design constants of the Smache terms (everything read off the plan).

    ``breaks_write_through`` and ``breaks_write_back`` hold the burst breaks of
    the three warm-up instances under each write policy.
    """

    n: int
    window_hi: int
    prefetch_words: int
    word_bytes: int
    breaks_write_through: Tuple[int, int, int]
    breaks_write_back: Tuple[int, int, int]


class BaselineKnobs(NamedTuple):
    """Per-design constants of the baseline terms (the fetch-schedule walk).

    ``sequential`` holds the sequential DRAM accesses of the three warm-up
    instances.
    """

    n: int
    n_points: int
    word_bytes: int
    sequential: Tuple[int, int, int]


def _burst_breaks(
    n: int, reads: Callable[[int], Sequence[Tuple[int, int]]]
) -> Tuple[int, int, int]:
    """Burst breaks of the three warm-up instances on the read and write ports.

    ``reads(instance)`` lists the instance's read bursts as ``(first, last)``
    addresses relative to its source copy, and every instance writes its
    destination copy in order; the two copies ping-pong.  A burst breaks
    unless it starts right after the port's previous access.
    """
    read_last: Optional[int] = None
    write_last: Optional[int] = None
    breaks = []
    for instance in range(3):
        src, dst = (0, n) if instance % 2 == 0 else (n, 0)
        count = 0
        for first, last in reads(instance):
            count += read_last is None or src + first != read_last + 1
            read_last = src + last
        count += write_last is None or dst != write_last + 1
        write_last = dst + n - 1
        breaks.append(count)
    return breaks[0], breaks[1], breaks[2]


def smache_knobs(plan: BufferPlan) -> SmacheKnobs:
    """The Smache knobs of a plan: its sizes and both warm-up walks.

    Every instance streams the grid; instance 0 first prefetches the static
    buffers, and so does every later one under write-back.
    """
    n = plan.grid.size
    prefetch = tuple((s.start, s.start + s.length - 1) for s in plan.statics)
    stream = ((0, n - 1),)
    return SmacheKnobs(
        n=n,
        window_hi=plan.stream.window_hi,
        prefetch_words=sum(s.length for s in plan.statics),
        word_bytes=plan.grid.word_bytes,
        breaks_write_through=_burst_breaks(n, lambda i: prefetch + stream if i == 0 else stream),
        breaks_write_back=_burst_breaks(n, lambda i: prefetch + stream),
    )


def baseline_knobs(plan: BufferPlan, ranges: Sequence[StreamRange]) -> BaselineKnobs:
    """The baseline knobs of a plan: its fetch schedule's sequential accesses.

    The schedule mirrors :func:`repro.arch.baseline.build_fetch_plan`: each
    point fetches ``centre + delta`` per stencil access, a skipped or
    constant access a dummy centre read (delta 0).  Within a range every
    point shares the deltas, so all but each port's carry-in into an
    instance repeat identically every instance; the walk adds the carry-ins.
    A row run repeats its first row's transitions on each of its rows, so
    the walk takes one row per run and multiplies.
    """
    partition = RangePartition.of(ranges)
    if not partition:
        raise ValueError("baseline_knobs needs the problem's stream ranges")
    n = plan.grid.size
    row_length = partition.row_length
    seq_intra = 0
    first_rel = 0
    last_addr: Optional[int] = None
    for run in partition.runs:
        # One row of the run, at row-relative addresses: its sequential
        # steps, and its first and last reads.
        row_seq, row_first, row_last = 0, None, 0
        for band in run.bands:
            t = band.template
            deltas = tuple(
                (p.linear_index - t.centre_linear) if (p.exists and p.linear_index is not None)
                else 0
                for p in t.points
            )
            row_seq += band.length * sum(1 for a, b in zip(deltas, deltas[1:]) if b == a + 1)
            row_seq += band.length - 1 if deltas[0] == deltas[-1] else 0
            first = band.offset + deltas[0]
            if row_first is None:
                row_first = first
            elif first == row_last + 1:
                row_seq += 1
            row_last = band.offset + band.length - 1 + deltas[-1]
        seq_intra += run.rows * row_seq + (run.rows - 1) * (row_first + row_length == row_last + 1)
        base = run.first_row * row_length
        if last_addr is None:
            first_rel = base + row_first
        elif base + row_first == last_addr + 1:
            seq_intra += 1
        last_addr = base + (run.rows - 1) * row_length + row_last
    last_rel = (n - 1) + deltas[-1]

    # Per instance: the steady transitions, the n - 1 in-order write steps,
    # and each of the two carry-ins (one read, one write) that continues.
    breaks = _burst_breaks(n, lambda i: ((first_rel, last_rel),))
    steady = seq_intra + (n - 1) + 2
    return BaselineKnobs(
        n=n,
        n_points=len(partition.runs[0].bands[0].template.points),
        word_bytes=plan.grid.word_bytes,
        sequential=(steady - breaks[0], steady - breaks[1], steady - breaks[2]),
    )


def design_knobs(design: CompiledDesign, system: str) -> Union[SmacheKnobs, BaselineKnobs]:
    """The knobs of ``design`` on ``system`` (the engine caches them, see ``knobs_for``)."""
    if system == "smache":
        return smache_knobs(design.plan)
    if system == "baseline":
        return baseline_knobs(design.plan, design.ranges)
    raise ValueError(f"unknown system {system!r}; expected 'smache' or 'baseline'")


# --------------------------------------------------------------------------- #
# the request-side terms, over ints or int64 columns
# --------------------------------------------------------------------------- #
# Every operand below is a Python number or a NumPy column: the scalar
# backend passes numbers, the batch engine columns (and numbers for a packed
# session's one request).  These three helpers are the only places where
# the two differ; a comparison is multiplied in as 0 or 1, which both kinds
# of operand do alike.
def select(cond, a, b):
    """``a`` where ``cond`` holds, else ``b``."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def maximum(a, b):
    """The larger of ``a`` and ``b``."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.maximum(a, b)
    return max(a, b)


def trunc(x):
    """``x`` truncated toward zero to an integer."""
    return x.astype(np.int64) if isinstance(x, np.ndarray) else int(x)


def extrapolate(per_instance: Sequence, it):
    """Sum ``it`` instances from the values of the three warm-up instances.

    After the warm-up instance the system ping-pongs between two DRAM bases,
    so every odd instance repeats instance 1 (``it // 2`` of them) and every
    even one after instance 0 repeats instance 2 (``(it - 1) // 2``).
    """
    ran = it > 0
    return (
        ran * per_instance[0]
        + it // 2 * per_instance[1]
        + ran * ((it - 1) // 2) * per_instance[2]
    )


class Terms(NamedTuple):
    """One system's priced outputs; ``detail`` follows :data:`DETAIL_FIELDS`."""

    cycles: Any
    words_read: Any
    words_written: Any
    dram_bytes: Any
    operations: Any
    detail: Tuple[Any, ...]


def smache_terms(
    k: SmacheKnobs, it, swc, rac, read_latency, write_through, kernel_latency, kernel_ops
) -> Terms:
    """The Smache cycles, traffic and ops of ``it`` work-instances."""
    # Effective cycles per stream word: one, unless the read latency exceeds
    # what the in-flight response window can hide.
    word_period = maximum(1.0 * swc, (read_latency + swc) / RESPONSE_CAPACITY)
    fill_overhead = k.window_hi + read_latency + kernel_latency + SMACHE_PIPELINE_OVERHEAD
    penalty = rac - swc
    breaks = select(write_through, k.breaks_write_through, k.breaks_write_back)
    # Instance 0 streams the static prefetch too; later ones under write-back.
    first = trunc((k.n + k.prefetch_words) * word_period) + fill_overhead
    later = trunc((k.n + select(write_through, 0, k.prefetch_words)) * word_period) + fill_overhead
    per_instance = (
        first + breaks[0] * penalty,
        later + breaks[1] * penalty,
        later + breaks[2] * penalty,
    )
    # Write-through prefetches once in all; write-back once per instance.
    words_read = k.prefetch_words * select(write_through, it > 0, it) + k.n * it
    words_written = k.n * it
    return Terms(
        (it > 0) + extrapolate(per_instance, it),
        words_read,
        words_written,
        (words_read + words_written) * k.word_bytes,
        kernel_ops * k.n * it,
        (
            word_period,
            fill_overhead,
            k.prefetch_words,
            (it > 0) * breaks[0] + (it > 1) * breaks[1] + (it > 2) * breaks[2],
        ),
    )


def baseline_terms(
    k: BaselineKnobs, it, swc, rac, read_latency, write_through, kernel_latency, kernel_ops
) -> Terms:
    """The baseline cycles, traffic and ops of ``it`` work-instances.

    ``write_through`` is ignored: the baseline has no static buffers.
    """
    seq_total = extrapolate(k.sequential, it)
    rand_total = (k.n_points + 1) * k.n * it - seq_total
    bus_cycles = seq_total * swc + rand_total * rac
    drain = read_latency + kernel_latency + BASELINE_DRAIN_OVERHEAD
    words_read = k.n_points * k.n * it
    words_written = k.n * it
    return Terms(
        bus_cycles + it * drain + (it > 0),
        words_read,
        words_written,
        (words_read + words_written) * k.word_bytes,
        kernel_ops * k.n * it,
        (seq_total, rand_total, bus_cycles, drain),
    )


#: Each system's terms function; all share one signature.
TERMS: Dict[str, Callable[..., Terms]] = {"smache": smache_terms, "baseline": baseline_terms}


# --------------------------------------------------------------------------- #
# scalar predictions
# --------------------------------------------------------------------------- #
def predict(
    system: str,
    knobs: Union[SmacheKnobs, BaselineKnobs],
    iterations: int,
    kernel: StencilKernel,
    timing: Optional[DRAMTiming] = None,
    write_through: bool = True,
) -> PerformancePrediction:
    """Price one request on a design's knobs."""
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    t = timing or DEFAULT_TIMING
    terms = TERMS[system](
        knobs, iterations, t.stream_word_cycles, t.random_access_cycles, t.read_latency,
        write_through, kernel.latency, kernel.ops_per_point,
    )
    return PerformancePrediction(
        system=system,
        cycles=terms.cycles,
        iterations=iterations,
        grid_points=knobs.n,
        dram_words_read=terms.words_read,
        dram_words_written=terms.words_written,
        dram_bytes=terms.dram_bytes,
        operations=terms.operations,
        detail=dict(zip(DETAIL_FIELDS[system], terms.detail)),
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
    return predict(system, design_knobs(design, system), iterations, kernel, timing, write_through)


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

"""Literal per-range computations over eagerly expanded stream ranges, for tests.

The production consumers of a range partition (the planner's window scores
and plans, the baseline knobs, the case count and the cost backend's
extras) work one row run at a time and multiply by its row count.  This
module computes the same quantities the way they were first written: over
a plain list of :class:`StreamRange`, each resolved afresh with
``tuple_for``, one range at a time, every static run merged literally.
"""

from typing import List, Optional, Sequence, Tuple

from repro.core.access import tuple_for
from repro.core.buffers import BufferPlan
from repro.core.planner import Algorithm1Result, PlannerResult, _describe_run, _merge_runs
from repro.core.ranges import StreamRange
from repro.pipeline.analytic import BaselineKnobs, _burst_breaks
from tests.pipeline.analytic_oracle import baseline_schedule_constants


def eager_ranges(partition, grid, stencil, boundary, pattern=None) -> List[StreamRange]:
    """The partition's ranges, each with its representative resolved afresh."""
    centres = list(pattern.indices()) if pattern is not None else None
    return [
        StreamRange(
            r.start,
            r.length,
            r.case_id,
            tuple_for(grid, stencil, boundary, r.start, centres[r.start] if centres else None),
        )
        for r in partition
    ]


def static_runs(ranges: Sequence[StreamRange], lo: int, hi: int) -> List[Tuple[int, int]]:
    """The merged static runs of window ``[lo, hi]``, range by range."""
    return _merge_runs([
        (r.start + o, r.end + o) for r in ranges for o in r.stream_offsets if not lo <= o <= hi
    ])


def ranked(ranges: Sequence[StreamRange]) -> List[PlannerResult]:
    """Every candidate window's cost, in the planner's order (ties by candidate order)."""
    offsets = {o for r in ranges for o in r.stream_offsets}
    results = []
    for lo in sorted({o for o in offsets if o < 0} | {0}):
        for hi in sorted({o for o in offsets if o > 0} | {0}):
            runs = static_runs(ranges, lo, hi)
            elements = sum(end - start for start, end in runs)
            results.append(PlannerResult(lo, hi, hi - lo, elements, hi - lo + elements, len(runs)))
    return sorted(results, key=lambda r: (r.total_elements, r.n_static_buffers, r.stream_reach))


def chosen(ranges: Sequence[StreamRange], max_stream_reach: Optional[int]) -> PlannerResult:
    """The best window within the reach bound (no bit bound)."""
    return next(
        r for r in ranked(ranges)
        if max_stream_reach is None or r.stream_reach <= max_stream_reach
    )


def plan_pin(grid, ranges: Sequence[StreamRange], lo: int, hi: int):
    """Each static's (name, start, length, served offsets), then the kept offsets."""
    statics = tuple(
        (
            _describe_run(grid, start, end, i),
            start,
            end - start,
            tuple(sorted({
                o for r in ranges for o in r.stream_offsets
                if not lo <= o <= hi and start <= r.start + o < end
            })),
        )
        for i, (start, end) in enumerate(static_runs(ranges, lo, hi))
    )
    kept = tuple(sorted({o for r in ranges for o in r.stream_offsets if lo <= o <= hi}))
    return statics, kept


def baseline_knobs(plan: BufferPlan, ranges: Sequence[StreamRange]) -> BaselineKnobs:
    """The baseline knobs from the literal per-range fetch-schedule walk."""
    n_points, seq_intra, first_rel, last_rel = baseline_schedule_constants(plan, ranges)
    n = plan.grid.size
    breaks = _burst_breaks(n, lambda i: ((first_rel, last_rel),))
    steady = seq_intra + (n - 1) + 2
    return BaselineKnobs(
        n=n,
        n_points=n_points,
        word_bytes=plan.grid.word_bytes,
        sequential=tuple(steady - b for b in breaks),
    )


def algorithm1(ranges: Sequence[StreamRange]) -> Algorithm1Result:
    """The paper's Algorithm 1, one range at a time."""
    per_stream: List[int] = []
    per_static: List[int] = []
    for r in ranges:
        offsets = sorted(set(r.stream_offsets) | {0}, key=lambda o: (abs(o), o))
        best = None
        for i in range(len(offsets)):
            kept = offsets[: i + 1]
            cost = (max(kept) - min(kept), (len(offsets) - 1 - i) * r.length)
            if best is None or sum(cost) < sum(best):
                best = cost
        per_stream.append(best[0])
        per_static.append(best[1])
    return Algorithm1Result(
        per_range_stream=tuple(per_stream),
        per_range_static=tuple(per_static),
        total_elements=max(per_stream) + sum(per_static),
    )


def cost_extras(ranges: Sequence[StreamRange]) -> Tuple[int, int]:
    """The cost backend's Algorithm-1 total and stream-only elements."""
    offsets = [o for r in ranges for o in r.stream_offsets]
    stream_only = (max(offsets) - min(offsets)) if offsets else 0
    return algorithm1(ranges).total_elements, stream_only

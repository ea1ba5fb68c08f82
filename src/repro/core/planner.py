"""Buffer-configuration planning (the paper's Algorithm 1, generalised).

The planner answers the question: *given a stencil problem, which accesses are
served by the moving stream (window) buffer and which by static buffers, so
that total on-chip memory is minimised?*

Section II of the paper formalises the per-range trade-off: keeping a tuple
element in the stream buffer costs window *reach*, while moving it to a static
buffer costs one element per position of the range.  The global objective is

    ``total = max over ranges of (stream reach) + sum of static buffer sizes``

because a single physical stream buffer (the one with the largest reach)
serves all ranges.

Two planners are provided:

* :func:`plan_buffers` — the production planner.  It observes that the choice
  per range is really the choice of a single *global window* ``[lo, hi]`` of
  stream offsets: any access whose offset falls inside the window is free
  (it is in the stream buffer anyway), any access outside is offloaded to a
  static buffer.  Static buffers are then *merged* across ranges (the
  top-row/bottom-row buffers of the paper's example each serve three ranges:
  two corners and an edge).  The planner enumerates candidate windows drawn
  from the distinct offsets of the problem, which is exact for the global
  objective and cheap (the number of distinct offsets is tiny).  Each
  window is scored from where each offset is accessed, computed once per
  problem, rather than by walking every range again.  Scoring ignores the
  reach and bit bounds, so one :class:`ScoredWindows` serves every bound:
  a bound only selects among the ranked windows.

* :func:`paper_algorithm1` — a literal transcription of the per-range
  pseudo-code from the paper, kept for comparison and used in the test-suite
  to check that the production planner never does worse.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.boundary import BoundarySpec
from repro.core.buffers import (
    PIPELINE_SLACK,
    BufferPlan,
    StaticBufferSpec,
    StreamBufferSpec,
)
from repro.core.grid import GridSpec, IterationPattern
from repro.core.ranges import RangePartition, StreamRange, partition_into_ranges
from repro.core.stencil import StencilShape


class UnsupportedPatternError(ValueError):
    """A non-contiguous iteration pattern whose plan would need static buffers.

    Static-buffer runs are placed by adding grid-linear stencil offsets to
    stream positions, which only coincide for the contiguous pattern.  A
    strided or explicit pattern therefore compiles only when every access
    fits the stream window — e.g. not with a circular boundary on dimension
    0, whose wrap-around rows are served by static buffers.
    """


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #
def _merge_runs(runs: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Merge overlapping or adjacent ``[start, end)`` runs."""
    if not runs:
        return []
    ordered = sorted(runs)
    merged: List[Tuple[int, int]] = []
    run_start, run_end = ordered[0]
    for start, end in ordered:
        if start <= run_end:
            if end > run_end:
                run_end = end
        else:
            merged.append((run_start, run_end))
            run_start, run_end = start, end
    merged.append((run_start, run_end))
    return merged


#: A periodic span: ``count`` runs of ``length`` (<= a row) elements from ``start``, a row apart.
Span = Tuple[int, int, int]


def _pieces(span: Span, period: int) -> List[Tuple[int, int, int]]:
    """``span`` as ``(first row, end row, row mask)`` pieces: a run ends in its row or the next."""
    start, length, count = span
    row, phase = divmod(start, period)
    tail = phase + length - period
    head = ((1 << (length - max(tail, 0))) - 1) << phase
    if tail <= 0:
        return [(row, row + count, head)]
    return [(row, row + count, head), (row + 1, row + count + 1, (1 << tail) - 1)]


class _OffsetSpans:
    """Where each distinct stream offset is accessed, computed once per problem.

    ``spans[o]`` holds one periodic :data:`Span` (period: the row length)
    per band of each row run whose offsets contain ``o``, shifted by ``o``:
    the elements those ranges read through ``o``.  A range offloads exactly
    its offsets outside the window, so a window's static elements are the
    union of its offloaded offsets' spans.  The rows are cut into
    *segments* wherever a span starts or ends, so every row of a segment
    holds the same elements of an offset: one bit mask.  A window is scored
    from the OR of its offloaded masks per segment; only the chosen window
    expands its runs row by row (:meth:`static_runs`).
    """

    def __init__(self, ranges: Sequence[StreamRange]) -> None:
        partition = RangePartition.of(ranges)
        period = self.period = partition.row_length
        self.spans: Dict[int, List[Span]] = {}
        for run in partition.runs:
            for band in run.bands:
                start = run.first_row * period + band.offset
                for o in set(band.template.stream_offsets):
                    self.spans.setdefault(o, []).append((start + o, band.length, run.rows))
        pieces = {o: [p for s in ss for p in _pieces(s, period)] for o, ss in self.spans.items()}
        bounds = sorted({row for ps in pieces.values() for p in ps for row in p[:2]})
        index = {row: i for i, row in enumerate(bounds)}
        #: Each segment's first row and row count.
        self.segments = [(lo, hi - lo) for lo, hi in zip(bounds, bounds[1:])]
        self.masks: Dict[int, List[int]] = {}
        for o, ps in pieces.items():
            masks = self.masks[o] = [0] * len(self.segments)
            for first, end, mask in ps:
                for i in range(index[first], index[end]):
                    masks[i] |= mask

    def _offloaded(self, window_lo: int, window_hi: int) -> List[int]:
        """Per segment, the row mask of the elements a window offloads."""
        out = [0] * len(self.segments)
        for o, masks in self.masks.items():
            if not window_lo <= o <= window_hi:
                out = [a | b for a, b in zip(out, masks)]
        return out

    def static_cost(self, window_lo: int, window_hi: int) -> Tuple[int, int]:
        """A window's static elements and merged static runs, rows unexpanded."""
        top = self.period - 1
        elements = runs = carry = 0
        for (_, rows), mask in zip(self.segments, self._offloaded(window_lo, window_hi)):
            first, last = mask & 1, mask >> top
            elements += rows * mask.bit_count()
            # Runs per row, less the joins where a row ends and the next begins set.
            starts = (mask & ~(mask << 1)).bit_count()
            runs += rows * starts - (rows - 1) * (first & last) - (carry & first)
            carry = last
        return elements, runs

    def static_runs(self, window_lo: int, window_hi: int) -> List[Tuple[int, int]]:
        """The merged static element runs of a candidate window."""
        period = self.period
        runs: List[Tuple[int, int]] = []
        for (first, rows), mask in zip(self.segments, self._offloaded(window_lo, window_hi)):
            if mask == (1 << period) - 1:
                runs.append((first * period, (first + rows) * period))
            else:  # the mask's runs of set bits, repeated on every row
                bits = [(m.start(), m.end()) for m in re.finditer("1+", bin(mask)[:1:-1])]
                runs += [
                    (row * period + lo, row * period + hi)
                    for row in range(first, first + rows)
                    for lo, hi in bits
                ]
        return _merge_runs(runs)

    def serves(
        self, merged: Sequence[Tuple[int, int]], window_lo: int, window_hi: int
    ) -> List[Tuple[int, ...]]:
        """For each of a window's merged runs, the offloaded offsets it serves."""
        starts = [start for start, _ in merged]
        served: List[set] = [set() for _ in merged]
        for o, spans in self.spans.items():
            if window_lo <= o <= window_hi:
                continue
            # Each run of a span lies inside exactly one merged run: find the
            # run of row k, then skip to the first row past that merged run.
            for start, _, count in spans:
                k = 0
                while k < count:
                    i = bisect_right(starts, start + k * self.period) - 1
                    served[i].add(o)
                    k = max(k + 1, -(-(merged[i][1] - start) // self.period))
        return [tuple(sorted(offsets)) for offsets in served]

    def candidate_windows(self) -> List[Tuple[int, int]]:
        """Candidate ``(lo, hi)`` windows drawn from the problem's distinct offsets."""
        los = sorted({o for o in self.spans if o < 0} | {0})
        his = sorted({o for o in self.spans if o > 0} | {0})
        return [(lo, hi) for lo in los for hi in his]


def _describe_run(grid: GridSpec, start: int, end: int, index: int) -> str:
    """Name a static buffer after the grid region it covers."""
    row_len = grid.shape[-1]
    if start % row_len == 0 and (end - start) % row_len == 0:
        first_row = start // row_len
        last_row = (end - start) // row_len + first_row - 1
        if first_row == last_row:
            return f"row{first_row}"
        return f"rows{first_row}-{last_row}"
    return f"static{index}"


# --------------------------------------------------------------------------- #
# the production planner
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class PlannerResult:
    """The cost of one candidate window, scored before any plan is built."""

    window_lo: int
    window_hi: int
    stream_reach: int
    static_elements: int
    total_elements: int
    n_static_buffers: int


def _window_result(
    offset_spans: _OffsetSpans, window_lo: int, window_hi: int
) -> PlannerResult:
    static, n_runs = offset_spans.static_cost(window_lo, window_hi)
    reach = window_hi - window_lo
    return PlannerResult(window_lo, window_hi, reach, static, reach + static, n_runs)


def evaluate_window(
    ranges: Sequence[StreamRange],
    window_lo: int,
    window_hi: int,
) -> PlannerResult:
    """Cost of one candidate window (without building the full plan)."""
    return _window_result(_OffsetSpans(ranges), window_lo, window_hi)


def optimal_split_for_range(
    r: StreamRange,
    max_stream_reach: Optional[int] = None,
) -> Tuple[Tuple[int, ...], Tuple[int, ...], int, int]:
    """Per-range optimal split (Section II, per-range view).

    Considers every contiguous sub-window of the sorted offsets that contains
    offset 0 and returns ``(kept, offloaded, stream_reach, static_elements)``
    minimising ``stream_reach + static_elements`` subject to the optional
    reach constraint.
    """
    offsets = sorted(set(r.stream_offsets) | {0})
    best = None
    for i, lo in enumerate(offsets):
        if lo > 0:
            break
        for hi in offsets[i:]:
            if hi < 0:
                continue
            reach = hi - lo
            if max_stream_reach is not None and reach > max_stream_reach:
                continue
            kept = tuple(o for o in r.stream_offsets if lo <= o <= hi)
            offloaded = tuple(o for o in r.stream_offsets if not (lo <= o <= hi))
            static = len(offloaded) * r.length
            total = reach + static
            cand = (total, reach, kept, offloaded, static)
            if best is None or cand[:2] < best[:2]:
                best = cand
    if best is None:
        # Unreachable with the {0} candidate always present, but keep a
        # defensive fallback: offload everything.
        offloaded = tuple(r.stream_offsets)
        return (), offloaded, 0, len(offloaded) * r.length
    _, reach, kept, offloaded, static = best
    return kept, offloaded, reach, static


class ScoredWindows:
    """One problem's candidate windows, scored once, and the plans built from them.

    Scoring ignores every bound: it builds the per-offset spans and each
    candidate's :class:`PlannerResult`, ranked by total elements, then
    fewer static buffers, then the narrower window, candidate order
    breaking the remaining ties.  Choosing a window under a reach bound and
    a bit bound is then one scan of that ranking (:meth:`select`), and
    bounds that choose the same window share one plan per word size,
    double buffering and slack (:meth:`plan`).  Scoring runs on first use,
    inside the first :func:`plan_buffers` call that reads it.
    """

    def __init__(self, ranges: Sequence[StreamRange]) -> None:
        if not ranges:
            raise ValueError("the stencil problem produced no stream ranges")
        self.ranges = RangePartition.of(ranges)
        self._plans: Dict[Tuple[int, int, str], BufferPlan] = {}

    @cached_property
    def spans(self) -> _OffsetSpans:
        """Where each distinct stream offset is accessed."""
        return _OffsetSpans(self.ranges)

    @cached_property
    def ranked(self) -> Tuple[PlannerResult, ...]:
        """Every candidate window's cost, best first."""
        spans = self.spans
        results = [_window_result(spans, lo, hi) for lo, hi in spans.candidate_windows()]
        return tuple(
            sorted(results, key=lambda r: (r.total_elements, r.n_static_buffers, r.stream_reach))
        )

    def select(
        self,
        word_bits: int,
        max_stream_reach: Optional[int] = None,
        max_total_bits: Optional[int] = None,
        double_buffer_statics: bool = True,
        slack: int = PIPELINE_SLACK,
    ) -> PlannerResult:
        """The best window within the reach bound.

        That is the first ranked window within reach whose buffers fit
        ``max_total_bits``, else the first within reach: the choice of a
        stable sort on (infeasible, total elements, static buffers, width).
        """
        static_bank_factor = 2 if double_buffer_statics else 1
        fallback: Optional[PlannerResult] = None
        for result in self.ranked:
            if max_stream_reach is not None and result.stream_reach > max_stream_reach:
                continue
            if max_total_bits is None:
                return result
            total_bits = (result.stream_reach + slack) * word_bits + (
                result.static_elements * word_bits * static_bank_factor
            )
            if total_bits <= max_total_bits:
                return result
            if fallback is None:
                fallback = result
        if fallback is None:
            raise ValueError(
                "no candidate window satisfies max_stream_reach="
                f"{max_stream_reach}; relax the constraint"
            )
        return fallback

    def plan(
        self,
        grid: GridSpec,
        stencil: StencilShape,
        boundary: BoundarySpec,
        window: PlannerResult,
        word_bits: int,
        double_buffer_statics: bool = True,
        slack: int = PIPELINE_SLACK,
    ) -> BufferPlan:
        """The plan of a selected window, built once per word size, banks and slack.

        The key holds the ``repr`` of the caller's values, so values that
        compare equal but print differently (``32`` and ``32.0``) never
        share a plan.
        """
        lo, hi = window.window_lo, window.window_hi
        key = (lo, hi, repr((word_bits, double_buffer_statics, slack)))
        plan = self._plans.get(key)
        if plan is not None:
            return plan
        spans = self.spans
        merged_runs = spans.static_runs(lo, hi)
        statics = tuple(
            StaticBufferSpec(
                name=_describe_run(grid, start, end, i),
                start=start,
                length=end - start,
                word_bits=word_bits,
                double_buffered=double_buffer_statics,
                serves_offsets=served,
            )
            for i, ((start, end), served) in enumerate(
                zip(merged_runs, spans.serves(merged_runs, lo, hi))
            )
        )

        kept = sorted(o for o in spans.spans if lo <= o <= hi)
        stream = StreamBufferSpec(
            reach=hi - lo,
            window_lo=lo,
            window_hi=hi,
            word_bits=word_bits,
            slack=slack,
        )
        plan = BufferPlan(
            grid=grid,
            stencil=stencil,
            boundary=boundary,
            stream=stream,
            statics=statics,
            kept_offsets=tuple(kept),
        )
        # dict.setdefault is atomic: a racing builder adopts the first plan.
        return self._plans.setdefault(key, plan)


def plan_buffers(
    grid: GridSpec,
    stencil: StencilShape,
    boundary: BoundarySpec,
    pattern: Optional[IterationPattern] = None,
    *,
    ranges: Optional[Sequence[StreamRange]] = None,
    windows: Optional[ScoredWindows] = None,
    word_bits: Optional[int] = None,
    max_stream_reach: Optional[int] = None,
    max_total_bits: Optional[int] = None,
    double_buffer_statics: bool = True,
    slack: int = PIPELINE_SLACK,
) -> BufferPlan:
    """Compute the globally optimal buffer configuration for a stencil problem.

    The windows are scored once, regardless of the bounds, and the bounds
    only select among them (see :class:`ScoredWindows`).  A caller planning
    one problem under several bounds passes the same ``windows`` to each
    call: the scoring is then paid once, and bounds that select the same
    window return the same plan object.

    Parameters
    ----------
    grid, stencil, boundary, pattern:
        The stencil problem.  ``pattern`` defaults to contiguous streaming.
    ranges:
        The problem's stream ranges, when the caller has already partitioned
        it (they must be ``partition_into_ranges(grid, stencil, boundary,
        pattern)``); computed here when omitted.
    windows:
        The problem's scored windows, when the caller already holds them
        (they must be ``ScoredWindows(ranges)`` of this problem's ranges);
        ``ranges`` is then not read.  Scored here when omitted.
    word_bits:
        Element width; defaults to the grid's word size.
    max_stream_reach:
        Upper bound on the stream-buffer reach in elements (models an on-chip
        memory constraint); candidates above the bound are discarded.
    max_total_bits:
        Upper bound on total buffer bits.  If no candidate satisfies it the
        candidate with the fewest total elements (window reach plus static
        elements, single bank) is returned, whatever its bits; callers can
        check :attr:`BufferPlan.total_bits`.
    double_buffer_statics:
        Whether static buffers are double buffered (the paper's design).
    slack:
        Extra window slots beyond the reach (pipeline registers).
    """
    if word_bits is None:
        word_bits = grid.word_bits
    if windows is None:
        if ranges is None:
            ranges = partition_into_ranges(grid, stencil, boundary, pattern)
        windows = ScoredWindows(ranges)
    best = windows.select(
        word_bits, max_stream_reach, max_total_bits, double_buffer_statics, slack
    )
    if best.n_static_buffers and pattern is not None and not pattern.is_contiguous():
        raise UnsupportedPatternError(
            f"the {pattern.kind} iteration pattern would need static buffers, "
            "which are only planned for the contiguous pattern; use a "
            "contiguous pattern or boundaries that keep every access in the "
            "stream window"
        )
    return windows.plan(grid, stencil, boundary, best, word_bits, double_buffer_statics, slack)


# --------------------------------------------------------------------------- #
# literal Algorithm 1 (per-range, no static-buffer merging)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Algorithm1Result:
    """Outcome of the paper's per-range algorithm."""

    per_range_stream: Tuple[int, ...]
    per_range_static: Tuple[int, ...]
    total_elements: int


def paper_algorithm1(ranges: Sequence[StreamRange]) -> Algorithm1Result:
    """Literal transcription of Algorithm 1 from the paper.

    For each range the offsets are ordered by increasing distance from the
    centre; keeping the ``i+1`` nearest offsets in the stream buffer costs
    their reach, and each remaining offset costs one static element per range
    position.  (The paper's pseudo-code prints the static cost as ``i * R_j``;
    from the surrounding text the intended quantity is the number of
    *offloaded* elements times the range size, which is what is implemented
    here.)  The global cost is ``max(stream) + sum(static)`` — note that,
    unlike :func:`plan_buffers`, static buffers are **not** merged across
    ranges, so this is an upper bound on the production planner's cost.
    The ranges of a row run repeat its first row's, so each band is solved
    once and repeated over the run's rows.
    """
    per_stream: List[int] = []
    per_static: List[int] = []
    for run in RangePartition.of(ranges).runs:
        row = []
        for band in run.bands:
            offsets = sorted(set(band.template.stream_offsets) | {0}, key=lambda o: (abs(o), o))
            # (stream, static) of keeping the i + 1 nearest offsets; the first best wins.
            splits = [
                (max(kept) - min(kept), (len(offsets) - len(kept)) * band.length)
                for kept in (offsets[: i + 1] for i in range(len(offsets)))
            ]
            row.append(min(splits, key=sum))
        per_stream += [stream for stream, _ in row] * run.rows
        per_static += [static for _, static in row] * run.rows
    total = (max(per_stream) if per_stream else 0) + sum(per_static)
    return Algorithm1Result(
        per_range_stream=tuple(per_stream),
        per_range_static=tuple(per_static),
        total_elements=total,
    )

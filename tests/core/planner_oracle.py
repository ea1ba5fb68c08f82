"""The planner's window choice as one stable sort, kept as a reference.

Before scoring and selection were split, :func:`repro.core.planner.plan_buffers`
scored the windows within the reach bound and took the first after a stable
sort on (infeasible, total elements, static buffers, width).  This is a
literal copy of that ranking; ``ScoredWindows.select`` must choose the same
window for every bound.
"""

from typing import Optional, Sequence

from repro.core.buffers import PIPELINE_SLACK
from repro.core.planner import PlannerResult, _OffsetSpans, _window_result
from repro.core.ranges import StreamRange


def sort_ranked_window(
    ranges: Sequence[StreamRange],
    word_bits: int,
    max_stream_reach: Optional[int] = None,
    max_total_bits: Optional[int] = None,
    double_buffer_statics: bool = True,
    slack: int = PIPELINE_SLACK,
) -> PlannerResult:
    """The window the sort-based ranking chooses under the given bounds."""
    static_bank_factor = 2 if double_buffer_statics else 1
    offset_spans = _OffsetSpans(ranges)
    scored = []
    for lo, hi in offset_spans.candidate_windows():
        if max_stream_reach is not None and (hi - lo) > max_stream_reach:
            continue
        result = _window_result(offset_spans, lo, hi)
        total_bits = (result.stream_reach + slack) * word_bits + (
            result.static_elements * word_bits * static_bank_factor
        )
        feasible = max_total_bits is None or total_bits <= max_total_bits
        rank = (0 if feasible else 1, result.total_elements, result.n_static_buffers)
        scored.append((rank, (lo, hi), result))
    if not scored:
        raise ValueError(
            "no candidate window satisfies max_stream_reach="
            f"{max_stream_reach}; relax the constraint"
        )
    scored.sort(key=lambda item: (item[0], item[1][1] - item[1][0]))
    return scored[0][2]

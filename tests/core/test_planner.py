"""Tests for repro.core.planner: Algorithm 1 and the global window planner."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.access import tuple_for
from repro.core.boundary import BoundaryKind, BoundarySpec, EdgeBehaviour
from repro.core.buffers import PIPELINE_SLACK
from repro.core.grid import GridSpec
from repro.core.planner import (
    evaluate_window,
    optimal_split_for_range,
    paper_algorithm1,
    plan_buffers,
    _merge_runs,
    _OffsetSpans,
)
from repro.core.ranges import StreamRange, partition_into_ranges
from repro.core.stencil import StencilShape
from repro.pipeline import StencilProblem, compile
from tests.core.conftest import stencil_cases


class TestMergeRuns:
    def test_disjoint_runs_stay_separate(self):
        assert _merge_runs([(0, 5), (10, 15)]) == [(0, 5), (10, 15)]

    def test_overlapping_runs_merge(self):
        assert _merge_runs([(0, 6), (4, 10)]) == [(0, 10)]

    def test_adjacent_runs_merge(self):
        assert _merge_runs([(0, 5), (5, 9)]) == [(0, 9)]

    def test_unsorted_input(self):
        assert _merge_runs([(10, 12), (0, 3), (2, 5)]) == [(0, 5), (10, 12)]

    def test_empty(self):
        assert _merge_runs([]) == []


class TestPaperCasePlan:
    def test_window_is_interior_reach(self, paper_design):
        plan = paper_design.plan
        assert plan.stream.reach == 22
        assert plan.stream.window_lo == -11
        assert plan.stream.window_hi == 11
        assert plan.stream.depth == 22 + PIPELINE_SLACK

    def test_two_static_buffers_top_and_bottom_rows(self, paper_design):
        plan = paper_design.plan
        assert plan.n_static_buffers == 2
        regions = sorted((s.start, s.end) for s in plan.statics)
        assert regions == [(0, 11), (110, 121)]

    def test_static_buffers_are_double_buffered(self, paper_design):
        plan = paper_design.plan
        assert all(s.double_buffered for s in plan.statics)
        assert all(s.banks == 2 for s in plan.statics)

    def test_total_cost_elements(self, paper_design):
        assert paper_design.plan.total_cost_elements == 22 + 22

    def test_plan_bits(self, paper_design):
        plan = paper_design.plan
        assert plan.stream_bits == 25 * 32
        assert plan.static_bits == 2 * 11 * 32 * 2
        assert plan.total_bits == plan.stream_bits + plan.static_bits

    def test_static_buffers_named_after_rows(self, paper_design):
        names = sorted(s.name for s in paper_design.plan.statics)
        assert names == ["row0", "row10"]

    def test_static_for_lookup(self, paper_design):
        plan = paper_design.plan
        assert plan.static_for(0) is not None
        assert plan.static_for(115) is not None
        assert plan.static_for(60) is None

    def test_lookup_offsets_are_kept_window_offsets(self, paper_design):
        plan = paper_design.plan
        assert set(plan.lookup_offsets()) == {-11, -1, 1, 11}

    def test_describe_mentions_buffers(self, paper_design):
        text = paper_design.plan.describe()
        assert "static bufs : 2" in text
        assert "reach 22" in text

    def test_1024_plan_matches_formulas(self):
        plan = compile(StencilProblem.paper_example(1024, 1024)).plan
        assert plan.stream.reach == 2048
        assert plan.stream.depth == 2051
        assert plan.static_elements == 2048
        assert plan.n_static_buffers == 2


class TestPlanCorrectness:
    """Every access must be served by the window or by a static buffer."""

    @pytest.mark.parametrize(
        "shape,stencil,boundary",
        [
            ((11, 11), StencilShape.four_point_2d(), BoundarySpec.paper_2d()),
            ((9, 7), StencilShape.five_point_2d(), BoundarySpec.all_circular(2)),
            ((8, 8), StencilShape.star_2d(2), BoundarySpec.all_open(2)),
            ((10, 6), StencilShape.asymmetric_2d(), BoundarySpec.paper_2d()),
            (
                (12, 5),
                StencilShape.moore(2, 1),
                BoundarySpec.per_dimension([BoundaryKind.MIRROR, BoundaryKind.CIRCULAR]),
            ),
        ],
    )
    def test_every_access_covered(self, shape, stencil, boundary):
        grid = GridSpec(shape=shape)
        plan = plan_buffers(grid, stencil, boundary)
        ranges = partition_into_ranges(grid, stencil, boundary)
        for r in ranges:
            for pos in range(r.start, r.end):
                for offset in r.stream_offsets:
                    target = pos + offset
                    in_window = plan.stream.window_lo <= offset <= plan.stream.window_hi
                    in_static = plan.static_for(target) is not None
                    assert in_window or in_static, (
                        f"access {target} (offset {offset}) of position {pos} is not covered"
                    )

    def test_no_static_buffers_for_small_open_problem(self):
        grid = GridSpec(shape=(9, 9))
        plan = plan_buffers(grid, StencilShape.five_point_2d(), BoundarySpec.all_open(2))
        assert plan.n_static_buffers == 0
        assert plan.stream.reach == 18


class TestPlannerOptimality:
    def test_planner_never_worse_than_algorithm1(self, paper_problem, paper_design):
        ranges = partition_into_ranges(
            paper_problem.grid, paper_problem.stencil, paper_problem.boundary
        )
        plan = paper_design.plan
        algo1 = paper_algorithm1(ranges)
        assert plan.total_cost_elements <= algo1.total_elements

    def test_planner_never_worse_than_stream_only(self, paper_problem, paper_design):
        # "Stream-only" = a single window wide enough to serve every offset of
        # every range without any static buffer (the full circular span).
        ranges = partition_into_ranges(
            paper_problem.grid, paper_problem.stencil, paper_problem.boundary
        )
        offsets = [o for r in ranges for o in r.stream_offsets]
        stream_only = max(offsets) - min(offsets)
        assert stream_only == 220
        assert paper_design.plan.total_cost_elements <= stream_only

    def test_planner_matches_brute_force_on_candidate_windows(self, small_problem, small_design):
        ranges = partition_into_ranges(
            small_problem.grid, small_problem.stencil, small_problem.boundary
        )
        offsets = set()
        for r in ranges:
            offsets.update(r.stream_offsets)
        los = sorted({o for o in offsets if o < 0} | {0})
        his = sorted({o for o in offsets if o > 0} | {0})
        best = min(
            evaluate_window(ranges, lo, hi).total_elements for lo in los for hi in his
        )
        assert small_design.plan.total_cost_elements == best

    @given(rows=st.integers(4, 12), cols=st.integers(4, 12))
    @settings(max_examples=20, deadline=None)
    def test_planner_cost_upper_bounds(self, rows, cols):
        grid = GridSpec(shape=(rows, cols))
        stencil = StencilShape.four_point_2d()
        boundary = BoundarySpec.paper_2d()
        ranges = partition_into_ranges(grid, stencil, boundary)
        plan = plan_buffers(grid, stencil, boundary)
        # The full-span window (serving every offset, no statics) is always a
        # candidate, so the planner can never do worse than it.
        offsets = [o for r in ranges for o in r.stream_offsets]
        stream_only = max(offsets) - min(offsets)
        assert plan.total_cost_elements <= stream_only


def per_range_static_runs(ranges, lo, hi):
    """The static runs of window ``[lo, hi]``, merged range by range."""
    runs = [
        (r.start + o, r.end + o)
        for r in ranges
        for o in r.stream_offsets
        if not lo <= o <= hi
    ]
    return _merge_runs(runs)


class TestOffsetSpans:
    """The per-offset window scan equals a literal per-range walk."""

    @given(case=stencil_cases())
    @settings(max_examples=60, deadline=None)
    def test_window_scan_and_plan_match_the_per_range_walk(self, case):
        grid, stencil, boundary = case
        ranges = partition_into_ranges(grid, stencil, boundary)
        spans = _OffsetSpans(ranges)
        offsets = {o for r in ranges for o in r.stream_offsets}
        assert spans.candidate_windows() == [
            (lo, hi)
            for lo in sorted({o for o in offsets if o < 0} | {0})
            for hi in sorted({o for o in offsets if o > 0} | {0})
        ]
        for lo, hi in spans.candidate_windows():
            literal = per_range_static_runs(ranges, lo, hi)
            assert spans.static_runs(lo, hi) == literal
            result = evaluate_window(ranges, lo, hi)
            assert result.static_elements == sum(end - start for start, end in literal)
            assert result.n_static_buffers == len(literal)

        plan = plan_buffers(grid, stencil, boundary, ranges=ranges)
        lo, hi = plan.stream.window_lo, plan.stream.window_hi
        for s in plan.statics:
            served = {
                o
                for r in ranges
                for o in r.stream_offsets
                if not lo <= o <= hi and s.start <= r.start + o < s.end
            }
            assert s.serves_offsets == tuple(sorted(served))
        # The lookup offsets are the union of every range's window-served offsets.
        kept = {o for r in ranges for o in r.stream_offsets if lo <= o <= hi}
        assert plan.lookup_offsets() == tuple(sorted(kept))

        # Ranges built eagerly (no translated interior rows) plan identically.
        eager = [
            StreamRange(r.start, r.length, r.case_id, tuple_for(grid, stencil, boundary, r.start))
            for r in ranges
        ]
        from_eager = plan_buffers(grid, stencil, boundary, ranges=eager)
        assert from_eager.stream == plan.stream
        assert from_eager.statics == plan.statics
        assert from_eager.lookup_offsets() == plan.lookup_offsets()


def plan_pin(plan):
    """A plan's window and stream reach, and each static's (start, length, served offsets)."""
    return (
        (plan.stream.window_lo, plan.stream.window_hi, plan.stream.reach),
        tuple((s.start, s.length, s.serves_offsets) for s in plan.statics),
    )


PAPER = StencilProblem.paper_example()
#: Windows (-14, 14) and (0, 0) tie on 28 total elements; (-14, 14) has no static.
TIE_ON_STATICS = (
    GridSpec(shape=(4, 7)),
    StencilShape.star_2d(2),
    BoundarySpec(
        edges=(
            EdgeBehaviour(BoundaryKind.OPEN, BoundaryKind.CONSTANT),
            EdgeBehaviour(BoundaryKind.CIRCULAR, BoundaryKind.OPEN),
        ),
        constant_value=1.5,
    ),
)
#: Under reach bound 1, windows (-1, 0) and (0, 0) tie on 19 total elements
#: and one static each; (0, 0) is narrower.
TIE_ON_WIDTH = (
    GridSpec(shape=(19,)),
    StencilShape.von_neumann(1),
    BoundarySpec(
        edges=(EdgeBehaviour(BoundaryKind.CIRCULAR, BoundaryKind.CONSTANT),),
        constant_value=1.5,
    ),
)


class TestGoldenPlans:
    """Exact plans: a change to the planner's ranking cannot move a design silently."""

    @pytest.mark.parametrize(
        "problem,reach,expected",
        [
            pytest.param(
                (PAPER.grid, PAPER.stencil, PAPER.boundary),
                None,
                ((-11, 11, 22), ((0, 11, (-110,)), (110, 11, (110,)))),
                id="paper-example",
            ),
            pytest.param(
                (PAPER.grid, PAPER.stencil, PAPER.boundary),
                4,
                ((0, 0, 0), ((0, 121, (-110, -11, -1, 1, 11, 110)),)),
                id="paper-example-reach-4",
            ),
            pytest.param(
                (
                    GridSpec(shape=(8, 6, 5)),
                    StencilShape.von_neumann(3),
                    BoundarySpec.per_dimension(
                        [BoundaryKind.CIRCULAR, BoundaryKind.CIRCULAR, BoundaryKind.MIRROR]
                    ),
                ),
                None,
                ((-30, 30, 60), ((0, 30, (-210,)), (210, 30, (210,)))),
                id="3d-circular-planes",
            ),
            pytest.param(
                TIE_ON_STATICS, None, ((-14, 14, 28), ()), id="tie-fewer-statics-wins"
            ),
            pytest.param(
                TIE_ON_WIDTH, 1, ((0, 0, 0), ((0, 19, (-1, 1, 18)),)), id="tie-narrower-wins"
            ),
        ],
    )
    def test_plan_is_pinned(self, problem, reach, expected):
        assert plan_pin(plan_buffers(*problem, max_stream_reach=reach)) == expected

    @pytest.mark.parametrize(
        "problem,windows",
        [
            pytest.param(TIE_ON_STATICS, ((-14, 14), (0, 0)), id="statics"),
            pytest.param(TIE_ON_WIDTH, ((-1, 0), (0, 0)), id="width"),
        ],
    )
    def test_tie_cases_tie(self, problem, windows):
        ranges = partition_into_ranges(*problem)
        totals = {evaluate_window(ranges, lo, hi).total_elements for lo, hi in windows}
        assert len(totals) == 1


class TestPlannerConstraints:
    def test_max_stream_reach_is_respected(self, paper_problem):
        plan = plan_buffers(
            paper_problem.grid,
            paper_problem.stencil,
            paper_problem.boundary,
            max_stream_reach=12,
        )
        assert plan.stream.reach <= 12
        # offloading +-11 to static buffers forces more static storage
        assert plan.static_elements > 22

    def test_unsatisfiable_reach_constraint_raises(self, paper_problem):
        with pytest.raises(ValueError):
            plan_buffers(
                paper_problem.grid,
                paper_problem.stencil,
                paper_problem.boundary,
                max_stream_reach=-1,
            )

    def test_max_total_bits_prefers_smaller_plan(self, paper_problem):
        unconstrained = plan_buffers(
            paper_problem.grid, paper_problem.stencil, paper_problem.boundary
        )
        constrained = plan_buffers(
            paper_problem.grid,
            paper_problem.stencil,
            paper_problem.boundary,
            max_total_bits=unconstrained.total_bits,
        )
        assert constrained.total_bits <= unconstrained.total_bits

    def test_zero_reach_window_offloads_every_offset(self, paper_problem):
        plan = plan_buffers(
            paper_problem.grid,
            paper_problem.stencil,
            paper_problem.boundary,
            max_stream_reach=0,
        )
        assert plan.stream.reach == 0
        assert plan.stream.window_lo == 0 and plan.stream.window_hi == 0
        # with no window to serve neighbours, every non-centre offset is static
        assert set(plan.lookup_offsets()) <= {0}
        assert plan.static_elements >= paper_problem.grid.size

    def test_max_total_bits_infeasible_falls_back_to_smallest_footprint(self, paper_problem):
        unconstrained = plan_buffers(
            paper_problem.grid, paper_problem.stencil, paper_problem.boundary
        )
        # a one-bit budget admits no candidate; the planner falls back to the
        # plan with the fewest total elements and the caller checks total_bits
        fallback = plan_buffers(
            paper_problem.grid,
            paper_problem.stencil,
            paper_problem.boundary,
            max_total_bits=1,
        )
        assert fallback.total_bits > 1
        assert fallback.total_cost_elements == unconstrained.total_cost_elements
        assert fallback.stream.reach == unconstrained.stream.reach

    def test_single_buffering_halves_static_bits(self, paper_problem):
        double = plan_buffers(paper_problem.grid, paper_problem.stencil, paper_problem.boundary)
        single = plan_buffers(
            paper_problem.grid,
            paper_problem.stencil,
            paper_problem.boundary,
            double_buffer_statics=False,
        )
        assert single.static_bits * 2 == double.static_bits

    def test_word_bits_override(self, paper_problem):
        plan = plan_buffers(
            paper_problem.grid, paper_problem.stencil, paper_problem.boundary, word_bits=64
        )
        assert plan.stream.word_bits == 64
        assert plan.stream_bits == plan.stream.depth * 64


class TestPerRangeSplit:
    def test_interior_range_split_is_locally_optimal(self, paper_problem):
        # Viewed in isolation (the per-range view of Section II), the interior
        # range prefers to offload the +-11 row offsets: 2 (reach) + 2*9
        # (static) = 20 beats keeping everything in a reach-22 window.  The
        # global planner overrides this because the per-row static buffers
        # would not merge, but the per-range optimum itself must hold.
        ranges = partition_into_ranges(
            paper_problem.grid, paper_problem.stencil, paper_problem.boundary
        )
        interior = next(r for r in ranges if r.start == 56)  # row 5, columns 1..9
        kept, offloaded, reach, static = optimal_split_for_range(interior)
        assert set(kept) == {-1, 1}
        assert set(offloaded) == {-11, 11}
        assert reach + static == 20
        assert reach + static <= interior.reach

    def test_corner_range_offloads_the_wrap(self, paper_problem):
        ranges = partition_into_ranges(
            paper_problem.grid, paper_problem.stencil, paper_problem.boundary
        )
        corner = [r for r in ranges if r.start == 0][0]
        kept, offloaded, reach, static = optimal_split_for_range(corner)
        assert 110 in offloaded
        assert static == corner.length * len(offloaded)

    def test_split_respects_reach_constraint(self, paper_problem):
        ranges = partition_into_ranges(
            paper_problem.grid, paper_problem.stencil, paper_problem.boundary
        )
        interior = max(ranges, key=lambda r: r.length)
        kept, offloaded, reach, static = optimal_split_for_range(interior, max_stream_reach=4)
        assert reach <= 4
        assert len(offloaded) >= 2

    def test_algorithm1_reports_per_range_results(self, paper_problem):
        ranges = partition_into_ranges(
            paper_problem.grid, paper_problem.stencil, paper_problem.boundary
        )
        result = paper_algorithm1(ranges)
        assert len(result.per_range_stream) == len(ranges)
        assert len(result.per_range_static) == len(ranges)
        assert result.total_elements == max(result.per_range_stream) + sum(
            result.per_range_static
        )

"""The row-run consumers against the literal per-range walk of ``range_oracle``.

Every consumer of a range partition works per row run and multiplies by
its row count; over 1-D, 2-D and 3-D grids (3-D ones holding an interior
run per plane, 2-D ones with a static buffer per row), every boundary
kind, strided patterns (the enumerating partitioner) and reach bounds 0, 4
and unbounded, each must equal the same computation over the eagerly
expanded ranges.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.boundary import BoundaryKind, BoundarySpec, EdgeBehaviour
from repro.core.grid import GridSpec, IterationPattern
from repro.core.planner import ScoredWindows, UnsupportedPatternError, paper_algorithm1
from repro.core.ranges import classify_cases, partition_into_ranges
from repro.core.stencil import StencilShape
from repro.pipeline import StencilProblem, compile, evaluate
from repro.pipeline.analytic import baseline_knobs
from tests.core import range_oracle as oracle
from tests.core.conftest import stencil_cases


@st.composite
def planes_cases(draw):
    """A 3-D grid with several planes, each holding an interior row run."""
    shape = (draw(st.integers(2, 4)), draw(st.integers(3, 6)), draw(st.integers(1, 6)))
    kinds = st.sampled_from(list(BoundaryKind))
    boundary = BoundarySpec(
        edges=tuple(EdgeBehaviour(draw(kinds), draw(kinds)) for _ in shape),
        constant_value=1.5,
    )
    stencil = draw(st.sampled_from([StencilShape.von_neumann(3), StencilShape.moore(3)]))
    return GridSpec(shape=shape), stencil, boundary


@st.composite
def gapped_cases(draw):
    """A 2-D grid whose offloaded row offset leaves a gap in every row.

    Under reach bound 0 the plan holds one static buffer per row, and one
    periodic span of the offset serves each of them.
    """
    shape = (draw(st.integers(2, 8)), draw(st.integers(3, 12)))
    kinds = st.sampled_from(list(BoundaryKind))
    boundary = BoundarySpec(
        edges=tuple(EdgeBehaviour(draw(kinds), draw(kinds)) for _ in shape),
        constant_value=1.5,
    )
    return GridSpec(shape=shape), StencilShape.from_offsets([(0, 0), (0, -2)]), boundary


@st.composite
def partitioned_cases(draw):
    """A stencil case and its pattern: contiguous, or strided (enumerated)."""
    grid, stencil, boundary = draw(stencil_cases() | planes_cases() | gapped_cases())
    strided = draw(st.booleans())
    return grid, stencil, boundary, IterationPattern.strided(grid, 2) if strided else None


def _pin(plan):
    statics = tuple((s.name, s.start, s.length, s.serves_offsets) for s in plan.statics)
    return statics, plan.kept_offsets


@given(case=partitioned_cases(), reach=st.sampled_from([0, 4, None]))
@example(  # the paper example with every offset offloaded: one static of whole rows
    case=(GridSpec(shape=(11, 11)), StencilShape.four_point_2d(), BoundarySpec.paper_2d(), None),
    reach=0,
)
@example(  # a 3-D grid of 4 planes, 5 interior rows each
    case=(GridSpec(shape=(4, 7, 5)), StencilShape.von_neumann(3), BoundarySpec.all_circular(3),
          None),
    reach=4,
)
@settings(max_examples=80, deadline=None)
def test_run_consumers_match_the_per_range_walk(case, reach):
    grid, stencil, boundary, pattern = case
    partition = partition_into_ranges(grid, stencil, boundary, pattern)
    eager = oracle.eager_ranges(partition, grid, stencil, boundary, pattern)

    windows = ScoredWindows(partition)
    assert list(windows.ranked) == oracle.ranked(eager)
    best = windows.select(grid.word_bits, reach)
    assert best == oracle.chosen(eager, reach)
    lo, hi = best.window_lo, best.window_hi
    assert windows.spans.static_runs(lo, hi) == oracle.static_runs(eager, lo, hi)
    # Static buffers are planned for the contiguous pattern only.
    if pattern is None or not best.n_static_buffers:
        plan = windows.plan(grid, stencil, boundary, best, grid.word_bits)
        assert _pin(plan) == oracle.plan_pin(grid, eager, lo, hi)
        assert baseline_knobs(plan, partition) == oracle.baseline_knobs(plan, eager)

    assert partition.n_cases == len({r.case_id for r in eager})
    for case_id, info in classify_cases(partition).items():
        of_case = [r for r in eager if r.case_id == case_id]
        assert info.representative == of_case[0].representative
        assert (info.n_ranges, info.n_positions) == (len(of_case), sum(r.length for r in of_case))
    assert paper_algorithm1(partition) == oracle.algorithm1(eager)

    problem = StencilProblem(
        grid=grid, stencil=stencil, boundary=boundary, pattern=pattern, max_stream_reach=reach
    )
    try:
        design = compile(problem, cache=None)
    except UnsupportedPatternError:
        return
    extra = evaluate(design, backend="cost").extra
    assert (extra["algorithm1_elements"], extra["stream_only_elements"]) == (
        oracle.cost_extras(eager)
    )

"""Tests for repro.core.ranges: range partitioning and case classification."""

import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.ranges as ranges_module
from repro.core.access import tuple_for
from repro.core.boundary import BoundaryKind, BoundarySpec, EdgeBehaviour
from repro.core.grid import GridSpec, IterationPattern
from repro.core.planner import plan_buffers
from repro.core.ranges import (
    StreamRange,
    classify_cases,
    n_cases,
    partition_into_ranges,
    _banded_partition,
    _enumerating_partition,
)
from repro.core.stencil import StencilShape
from repro.pipeline.analytic import predict_performance
from repro.pipeline.analytic_batch import AnalyticBatchEngine
from repro.pipeline.backends import EvaluationRequest
from repro.pipeline.compile import compile
from repro.pipeline.problem import StencilProblem
from tests.core.conftest import stencil_cases


class TestPaperCase:
    def test_nine_cases(self, grid_11x11, four_point, paper_boundary):
        assert n_cases(grid_11x11, four_point, paper_boundary) == 9

    def test_ranges_cover_stream_exactly(self, grid_11x11, four_point, paper_boundary):
        ranges = partition_into_ranges(grid_11x11, four_point, paper_boundary)
        covered = sorted((r.start, r.end) for r in ranges)
        position = 0
        for start, end in covered:
            assert start == position
            position = end
        assert position == 121

    def test_ranges_per_row(self, grid_11x11, four_point, paper_boundary):
        # every row splits into left edge / interior / right edge
        ranges = partition_into_ranges(grid_11x11, four_point, paper_boundary)
        assert len(ranges) == 33

    def test_interior_case_dominates(self, grid_11x11, four_point, paper_boundary):
        ranges = partition_into_ranges(grid_11x11, four_point, paper_boundary)
        cases = classify_cases(ranges)
        assert max(c.n_positions for c in cases.values()) == 81

    def test_case_info_consistency(self, grid_11x11, four_point, paper_boundary):
        ranges = partition_into_ranges(grid_11x11, four_point, paper_boundary)
        cases = classify_cases(ranges)
        assert sum(c.n_positions for c in cases.values()) == 121
        assert sum(c.n_ranges for c in cases.values()) == len(ranges)

    def test_range_properties(self, grid_11x11, four_point, paper_boundary):
        ranges = partition_into_ranges(grid_11x11, four_point, paper_boundary)
        interior = [r for r in ranges if r.start == 56][0]
        assert interior.reach == 22
        assert interior.n_points == 4
        assert interior.end == interior.start + interior.length


class TestBandedVsEnumerating:
    @pytest.mark.parametrize(
        "shape,boundary",
        [
            ((7, 9), BoundarySpec.paper_2d()),
            ((6, 6), BoundarySpec.all_circular(2)),
            ((5, 8), BoundarySpec.all_open(2)),
            ((8, 5), BoundarySpec.per_dimension([BoundaryKind.MIRROR, BoundaryKind.CLAMP])),
        ],
    )
    def test_both_partitioners_agree(self, shape, boundary):
        grid = GridSpec(shape=shape)
        stencil = StencilShape.four_point_2d()
        banded = _banded_partition(grid, stencil, boundary)
        enumerated = _enumerating_partition(
            grid, stencil, boundary, IterationPattern.contiguous(grid)
        )
        assert [(r.start, r.length) for r in banded] == [
            (r.start, r.length) for r in enumerated
        ]
        assert [r.stream_offsets for r in banded] == [r.stream_offsets for r in enumerated]

    @given(
        rows=st.integers(3, 9),
        cols=st.integers(3, 9),
        periodic_rows=st.booleans(),
        periodic_cols=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_partition_covers_stream_for_any_boundary_mix(
        self, rows, cols, periodic_rows, periodic_cols
    ):
        grid = GridSpec(shape=(rows, cols))
        boundary = BoundarySpec.per_dimension(
            [
                BoundaryKind.CIRCULAR if periodic_rows else BoundaryKind.OPEN,
                BoundaryKind.CIRCULAR if periodic_cols else BoundaryKind.OPEN,
            ]
        )
        ranges = partition_into_ranges(grid, StencilShape.five_point_2d(), boundary)
        assert sum(r.length for r in ranges) == grid.size
        position = 0
        for r in ranges:
            assert r.start == position
            position += r.length


class TestRepresentatives:
    @given(case=stencil_cases())
    @settings(max_examples=50, deadline=None)
    def test_representative_is_the_tuple_at_range_start(self, case):
        # Interior rows are translated from the first interior row rather than
        # resolved afresh; the result must be the tuple tuple_for builds,
        # resolved points and linear indices included, and every position of
        # the range must share its shape.
        grid, stencil, boundary = case
        for r in partition_into_ranges(grid, stencil, boundary):
            assert r.representative == tuple_for(grid, stencil, boundary, r.start)
            for position in range(r.start, r.end):
                shape = tuple_for(grid, stencil, boundary, position).shape_key
                assert shape == r.representative.shape_key

    def test_adjacent_equal_shape_ranges_stay_split(self):
        # Two edge columns whose out-of-grid access both become the constant
        # resolve alike, as do an open left column and the interior once the
        # constant bottom edge replaces the access that told them apart.  The
        # banded partitioner keeps one range per band; the enumerator merges.
        grid = GridSpec(shape=(6, 10))
        stencil = StencilShape.asymmetric_2d()
        boundary = BoundarySpec(
            edges=(
                EdgeBehaviour(BoundaryKind.CLAMP, BoundaryKind.CONSTANT),
                EdgeBehaviour(BoundaryKind.OPEN, BoundaryKind.CONSTANT),
            )
        )
        banded = _banded_partition(grid, stencil, boundary)
        enumerated = _enumerating_partition(
            grid, stencil, boundary, IterationPattern.contiguous(grid)
        )
        assert len(banded) == 24 and len(enumerated) == 15
        assert (8, 1) in [(r.start, r.length) for r in banded]
        assert (8, 2) in [(r.start, r.length) for r in enumerated]
        # Every banded range is sound: all its positions share its shape.
        for r in banded:
            for position in range(r.start, r.end):
                shape = tuple_for(grid, stencil, boundary, position).shape_key
                assert shape == r.representative.shape_key
        # The finer split does not change the planned buffers.
        from_banded = plan_buffers(grid, stencil, boundary, ranges=banded)
        from_enumerated = plan_buffers(grid, stencil, boundary, ranges=enumerated)
        assert from_banded.stream == from_enumerated.stream
        assert from_banded.statics == from_enumerated.statics


class TestTranslatedRanges:
    """Interior-row ranges build their representative only when it is read."""

    @given(case=stencil_cases())
    @settings(max_examples=50, deadline=None)
    def test_translated_range_equals_the_eager_range(self, case):
        grid, stencil, boundary = case
        for r in partition_into_ranges(grid, stencil, boundary):
            # Round-trip first, while a translated range is still unbuilt.
            restored = pickle.loads(pickle.dumps(r))
            eager = StreamRange(
                r.start, r.length, r.case_id, tuple_for(grid, stencil, boundary, r.start)
            )
            assert (r.stream_offsets, r.reach, r.n_points) == (
                eager.stream_offsets,
                eager.reach,
                eager.n_points,
            )
            assert r == eager and eager == r and restored == eager
            assert hash(r) == hash(eager) == hash(restored)
            assert repr(r) == repr(eager) == repr(restored)
            assert r.representative == tuple_for(grid, stencil, boundary, r.start)

    def test_interior_rows_are_translated_and_frozen(self, grid_11x11, four_point, paper_boundary):
        ranges = partition_into_ranges(grid_11x11, four_point, paper_boundary)
        # Rows 0, 1 and 10 are resolved; rows 2..9 translate row 1.
        interior = next(r for r in ranges if r.start == 56)
        assert interior.template is next(r for r in ranges if r.start == 12).representative
        assert interior.template is not interior.representative
        with pytest.raises(FrozenInstanceError):
            interior.start = 0

    def test_compile_and_pricing_build_no_translated_representative(self, monkeypatch):
        built = []
        translate = ranges_module._translated

        def counting(base, shift):
            built.append(shift)
            return translate(base, shift)

        monkeypatch.setattr(ranges_module, "_translated", counting)
        design = compile(StencilProblem.paper_example(96, 96), cache=None)
        requests = [EvaluationRequest(system=s, iterations=5) for s in ("smache", "baseline")]
        for request in requests:
            predict_performance(design, system=request.system, iterations=5)
        AnalyticBatchEngine().price([(design, request) for request in requests])
        assert len(design.ranges) == 3 * 96 and built == []
        # The counter sees a build: reading one translated representative.
        design.ranges[-4].representative
        assert len(built) == 1


class TestDegenerateAndNonContiguous:
    def test_grid_smaller_than_stencil_radius(self):
        grid = GridSpec(shape=(2, 2))
        ranges = partition_into_ranges(
            grid, StencilShape.star_2d(radius=2), BoundarySpec.all_circular(2)
        )
        assert sum(r.length for r in ranges) == 4

    def test_1d_grid(self):
        grid = GridSpec(shape=(16,))
        stencil = StencilShape.from_offsets([(-1,), (1,)])
        ranges = partition_into_ranges(grid, stencil, BoundarySpec.all_circular(1))
        assert sum(r.length for r in ranges) == 16
        assert len(classify_cases(ranges)) == 3

    def test_non_contiguous_pattern_uses_enumerator(self, grid_11x11, four_point, paper_boundary):
        pattern = IterationPattern.strided(grid_11x11, 2)
        ranges = partition_into_ranges(grid_11x11, four_point, paper_boundary, pattern)
        assert sum(r.length for r in ranges) == 121

    def test_enumerator_guard_on_huge_patterns(self, four_point, paper_boundary):
        grid = GridSpec(shape=(64, 64))
        pattern = IterationPattern.strided(grid, 2)
        with pytest.raises(ValueError):
            _enumerating_partition(grid, four_point, paper_boundary, pattern, max_positions=100)

    def test_1024_grid_partitions_quickly(self):
        grid = GridSpec(shape=(1024, 1024))
        ranges = partition_into_ranges(
            grid, StencilShape.four_point_2d(), BoundarySpec.paper_2d()
        )
        assert sum(r.length for r in ranges) == 1024 * 1024
        assert len(classify_cases(ranges)) == 9

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
from repro.pipeline.backends import EvaluationRequest, evaluate
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
        # Only the first row of a row run is resolved, later rows' ranges are
        # built when read; either way the result must be the tuple tuple_for
        # builds, resolved points and linear indices included, and every
        # position of the range must share its shape.
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


class TestRowRuns:
    """Interior rows are one row run; a range is built only when it is read."""

    @given(case=stencil_cases())
    @settings(max_examples=50, deadline=None)
    def test_run_ranges_equal_the_eager_ranges(self, case):
        grid, stencil, boundary = case
        partition = partition_into_ranges(grid, stencil, boundary)
        # Round-trip first, while no range has been built.
        restored = pickle.loads(pickle.dumps(partition))
        eager = [
            StreamRange(r.start, r.length, r.case_id, tuple_for(grid, stencil, boundary, r.start))
            for r in partition
        ]
        assert len(partition) == len(restored) == len(eager)
        assert partition == eager and partition == tuple(eager) and restored == eager
        assert list(partition) == eager and list(restored) == eager
        assert hash(partition) == hash(restored) == hash(tuple(eager))
        assert repr(partition) == repr(restored) == repr(tuple(eager))
        for index, r in enumerate(eager):
            assert partition[index] == partition[index - len(eager)] == r
        with pytest.raises(IndexError):
            partition[len(eager)]

    def test_interior_rows_are_one_frozen_run(self):
        cases = [
            # Rows 0 and 10 are runs of their own, rows 1..9 one interior run.
            ((11, 11), [(0, 1), (1, 9), (10, 1)]),
            # A 3-D grid: every plane holds its own interior run.
            ((3, 5, 4), [(plane * 5 + row, rows) for plane in range(3)
                         for row, rows in ((0, 1), (1, 3), (4, 1))]),
        ]
        for shape, runs in cases:
            grid = GridSpec(shape=shape)
            stencil = StencilShape.von_neumann(len(shape))
            boundary = BoundarySpec.per_dimension(
                [BoundaryKind.CIRCULAR] * (len(shape) - 1) + [BoundaryKind.OPEN]
            )
            partition = partition_into_ranges(grid, stencil, boundary)
            assert [(run.first_row, run.rows) for run in partition.runs] == runs
            row_length = shape[-1]
            band = partition.runs[1].bands[1]
            assert (band.offset, band.length) == (1, row_length - 2)
            assert band.template == tuple_for(grid, stencil, boundary, row_length + 1)
            # Row 2's interior range: the band one row on, resolved when read.
            r = partition[3 * 2 + 1]
            assert (r.start, r.length, r.case_id) == (
                2 * row_length + 1, band.length, band.case_id
            )
            assert r.representative == tuple_for(grid, stencil, boundary, r.start)
            with pytest.raises(FrozenInstanceError):
                r.start = 0

    def test_compile_and_pricing_are_row_count_independent(self, monkeypatch):
        calls, built = [], []
        resolve = ranges_module.tuple_for

        def counting(*args):
            calls.append(args)
            return resolve(*args)

        class CountingRange(StreamRange):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self.start)

        monkeypatch.setattr(ranges_module, "tuple_for", counting)
        monkeypatch.setattr(ranges_module, "StreamRange", CountingRange)
        per_side = []
        for side in (16, 96, 1024):
            calls.clear()
            design = compile(StencilProblem.paper_example(side, side), cache=None)
            requests = [EvaluationRequest(system=s, iterations=5) for s in ("smache", "baseline")]
            for request in requests:
                predict_performance(design, system=request.system, iterations=5)
            AnalyticBatchEngine().price([(design, request) for request in requests])
            evaluate(design, backend="cost")
            assert len(design.ranges) == 3 * side
            per_side.append(len(calls))
        # Rows 0, 1 and side - 1 are resolved, three bands each.
        assert per_side == [9, 9, 9] and built == []
        # The counters see a build: reading one interior-row range.
        r = design.ranges[-5]
        assert r.start == 1022 * 1024 + 1
        assert built == [r.start] and len(calls) == 10


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

"""Tests for repro.core.boundary: boundary kinds and access resolution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.boundary import (
    BoundaryKind,
    BoundarySpec,
    EdgeBehaviour,
    ResolutionKind,
    _mirror_index,
)
from repro.core.grid import GridSpec
from repro.core.stencil import StencilShape


@pytest.fixture
def grid():
    return GridSpec(shape=(11, 11))


class TestConstruction:
    def test_all_open(self):
        spec = BoundarySpec.all_open(2)
        assert spec.ndim == 2
        assert not spec.has_circular()

    def test_all_circular(self):
        spec = BoundarySpec.all_circular(3)
        assert spec.ndim == 3
        assert spec.has_circular()

    def test_paper_2d_is_circular_rows_open_cols(self):
        spec = BoundarySpec.paper_2d()
        assert spec.kind_at(0, high_side=False) is BoundaryKind.CIRCULAR
        assert spec.kind_at(0, high_side=True) is BoundaryKind.CIRCULAR
        assert spec.kind_at(1, high_side=False) is BoundaryKind.OPEN
        assert spec.kind_at(1, high_side=True) is BoundaryKind.OPEN

    def test_per_dimension(self):
        spec = BoundarySpec.per_dimension([BoundaryKind.MIRROR, BoundaryKind.CLAMP])
        assert spec.kind_at(0, True) is BoundaryKind.MIRROR
        assert spec.kind_at(1, False) is BoundaryKind.CLAMP

    def test_mixed_edges(self):
        spec = BoundarySpec(
            edges=(EdgeBehaviour(low=BoundaryKind.OPEN, high=BoundaryKind.CIRCULAR),)
        )
        assert spec.kind_at(0, high_side=False) is BoundaryKind.OPEN
        assert spec.kind_at(0, high_side=True) is BoundaryKind.CIRCULAR

    def test_empty_edges_rejected(self):
        with pytest.raises(ValueError):
            BoundarySpec(edges=())

    def test_describe_mentions_kinds(self):
        text = BoundarySpec.paper_2d().describe()
        assert "circular" in text and "open" in text


class TestResolveInterior:
    def test_interior_point_unaffected(self, grid):
        spec = BoundarySpec.paper_2d()
        point = spec.resolve(grid, (5, 5), (1, 0))
        assert point.kind is ResolutionKind.INTERIOR
        assert point.linear_index == grid.linear_index((6, 5))
        assert point.exists

    def test_arity_mismatch_raises(self, grid):
        spec = BoundarySpec.all_open(3)
        with pytest.raises(ValueError):
            spec.resolve(grid, (0, 0), (1, 0))

    def test_coord_arity_mismatch_raises(self, grid):
        spec = BoundarySpec.all_open(2)
        with pytest.raises(ValueError):
            spec.resolve(grid, (0,), (1, 0))


class TestResolveCircular:
    def test_north_of_top_row_wraps_to_bottom(self, grid):
        spec = BoundarySpec.paper_2d()
        point = spec.resolve(grid, (0, 3), (-1, 0))
        assert point.kind is ResolutionKind.WRAPPED
        assert point.linear_index == grid.linear_index((10, 3))

    def test_south_of_bottom_row_wraps_to_top(self, grid):
        spec = BoundarySpec.paper_2d()
        point = spec.resolve(grid, (10, 7), (1, 0))
        assert point.kind is ResolutionKind.WRAPPED
        assert point.linear_index == grid.linear_index((0, 7))

    def test_wrap_spans_multiple_rows(self, grid):
        spec = BoundarySpec.all_circular(2)
        point = spec.resolve(grid, (0, 0), (-3, 0))
        assert point.linear_index == grid.linear_index((8, 0))

    def test_full_wrap_is_identity(self, grid):
        spec = BoundarySpec.all_circular(2)
        point = spec.resolve(grid, (4, 4), (11, 0))
        assert point.linear_index == grid.linear_index((4, 4))
        assert point.kind is ResolutionKind.WRAPPED


class TestResolveOpen:
    def test_west_of_left_column_is_skipped(self, grid):
        spec = BoundarySpec.paper_2d()
        point = spec.resolve(grid, (5, 0), (0, -1))
        assert point.kind is ResolutionKind.SKIPPED
        assert not point.exists
        assert point.linear_index is None

    def test_east_of_right_column_is_skipped(self, grid):
        spec = BoundarySpec.paper_2d()
        assert spec.resolve(grid, (5, 10), (0, 1)).kind is ResolutionKind.SKIPPED

    def test_corner_open_dimension_wins_over_circular(self, grid):
        # At (0,0) the offset (-1,-1) leaves the grid in both dimensions:
        # circular would wrap dim 0, but dim 1 is open, so the access is skipped.
        spec = BoundarySpec.paper_2d()
        assert spec.resolve(grid, (0, 0), (-1, -1)).kind is ResolutionKind.SKIPPED


class TestResolveClampMirrorConstant:
    def test_clamp_to_edge(self, grid):
        spec = BoundarySpec.per_dimension([BoundaryKind.CLAMP, BoundaryKind.CLAMP])
        point = spec.resolve(grid, (0, 5), (-3, 0))
        assert point.kind is ResolutionKind.WRAPPED
        assert point.linear_index == grid.linear_index((0, 5))

    def test_mirror_reflects_without_repeating_edge(self, grid):
        spec = BoundarySpec.per_dimension([BoundaryKind.MIRROR, BoundaryKind.MIRROR])
        point = spec.resolve(grid, (0, 5), (-1, 0))
        assert point.linear_index == grid.linear_index((1, 5))
        point = spec.resolve(grid, (10, 5), (2, 0))
        assert point.linear_index == grid.linear_index((8, 5))

    def test_constant_substitutes_value(self, grid):
        spec = BoundarySpec.per_dimension(
            [BoundaryKind.CONSTANT, BoundaryKind.CONSTANT], constant_value=2.5
        )
        point = spec.resolve(grid, (0, 0), (-1, 0))
        assert point.kind is ResolutionKind.CONSTANT
        assert point.constant_value == 2.5
        assert not point.exists

    def test_mirror_single_extent_dimension(self):
        grid = GridSpec(shape=(1, 5))
        spec = BoundarySpec.per_dimension([BoundaryKind.MIRROR, BoundaryKind.MIRROR])
        point = spec.resolve(grid, (0, 2), (-1, 0))
        assert point.linear_index == grid.linear_index((0, 2))

    def test_mirror_index_helper_period(self):
        assert _mirror_index(-1, 5) == 1
        assert _mirror_index(5, 5) == 3
        assert _mirror_index(-4, 5) == 4
        assert _mirror_index(8, 5) == 0


class TestResolveStencil:
    def test_interior_stencil_has_all_points(self, grid):
        spec = BoundarySpec.paper_2d()
        points = spec.resolve_stencil(grid, (5, 5), StencilShape.four_point_2d())
        assert len(points) == 4
        assert all(p.exists for p in points)

    def test_corner_stencil_mixes_kinds(self, grid):
        spec = BoundarySpec.paper_2d()
        points = spec.resolve_stencil(grid, (0, 0), StencilShape.four_point_2d())
        kinds = sorted(p.kind.value for p in points)
        assert kinds == ["interior", "interior", "skipped", "wrapped"]

    def test_grid_boundary_dim_mismatch_raises(self):
        grid = GridSpec(shape=(4, 4, 4))
        with pytest.raises(ValueError):
            BoundarySpec.paper_2d().resolve(grid, (0, 0, 0), (1, 0, 0))

    @pytest.mark.parametrize(
        "spec, shape, centre, stencil",
        [
            (BoundarySpec.paper_2d(), (4, 4, 4), (0, 0, 0), StencilShape.moore(3)),
            (BoundarySpec.all_open(2), (11, 11), (0,), StencilShape.four_point_2d()),
            (BoundarySpec.all_open(2), (11, 11), (0, 0), StencilShape.moore(3)),
            (BoundarySpec.all_open(3), (11, 11), (0, 0), StencilShape.four_point_2d()),
        ],
        ids=["boundary-vs-grid", "centre", "offset", "boundary-first"],
    )
    def test_bad_arity_raises_what_each_offset_raises(self, spec, shape, centre, stencil):
        """The stencil is checked once, with the error of its first offset."""
        grid = GridSpec(shape=shape)
        with pytest.raises(ValueError) as single:
            spec.resolve(grid, centre, stencil.offsets[0])
        with pytest.raises(ValueError) as whole:
            spec.resolve_stencil(grid, centre, stencil)
        assert str(whole.value) == str(single.value)

    @pytest.mark.parametrize("kind", list(BoundaryKind), ids=lambda k: k.value)
    def test_stencil_equals_one_resolve_per_offset(self, kind):
        spec = BoundarySpec(edges=(EdgeBehaviour.both(kind), EdgeBehaviour(BoundaryKind.OPEN, kind)),
                            constant_value=2.5)
        grid = GridSpec(shape=(5, 7))
        stencil = StencilShape.star_2d(3)
        for centre in grid.coords():
            assert spec.resolve_stencil(grid, centre, stencil) == tuple(
                spec.resolve(grid, centre, offset) for offset in stencil.offsets
            )


circular_or_mirror = st.sampled_from(
    [BoundaryKind.CIRCULAR, BoundaryKind.MIRROR, BoundaryKind.CLAMP]
)


class TestResolutionProperties:
    @given(
        rows=st.integers(2, 10),
        cols=st.integers(2, 10),
        kind0=circular_or_mirror,
        kind1=circular_or_mirror,
        dr=st.integers(-6, 6),
        dc=st.integers(-6, 6),
        r=st.integers(0, 9),
        c=st.integers(0, 9),
    )
    @settings(max_examples=80, deadline=None)
    def test_wrapping_kinds_always_resolve_in_grid(self, rows, cols, kind0, kind1, dr, dc, r, c):
        """Circular / mirror / clamp edges always produce a valid grid element."""
        grid = GridSpec(shape=(rows, cols))
        spec = BoundarySpec.per_dimension([kind0, kind1])
        centre = (min(r, rows - 1), min(c, cols - 1))
        point = spec.resolve(grid, centre, (dr, dc))
        assert point.exists
        assert 0 <= point.linear_index < grid.size

    @given(
        rows=st.integers(2, 8),
        cols=st.integers(2, 8),
        dr=st.integers(-4, 4),
        dc=st.integers(-4, 4),
        r=st.integers(0, 7),
        c=st.integers(0, 7),
    )
    @settings(max_examples=80, deadline=None)
    def test_circular_matches_numpy_modulo(self, rows, cols, dr, dc, r, c):
        """Circular resolution agrees with NumPy's modular indexing."""
        grid = GridSpec(shape=(rows, cols))
        spec = BoundarySpec.all_circular(2)
        centre = (min(r, rows - 1), min(c, cols - 1))
        point = spec.resolve(grid, centre, (dr, dc))
        expected = np.ravel_multi_index(
            ((centre[0] + dr) % rows, (centre[1] + dc) % cols), (rows, cols)
        )
        assert point.linear_index == expected

    @given(
        rows=st.integers(2, 8),
        cols=st.integers(2, 8),
        r=st.integers(0, 7),
        c=st.integers(0, 7),
        dr=st.integers(-3, 3),
        dc=st.integers(-3, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_in_grid_targets_are_never_modified(self, rows, cols, r, c, dr, dc):
        """If centre+offset is already inside the grid, every kind leaves it alone."""
        grid = GridSpec(shape=(rows, cols))
        centre = (min(r, rows - 1), min(c, cols - 1))
        target = (centre[0] + dr, centre[1] + dc)
        if not grid.contains(target):
            return
        for kind in BoundaryKind:
            spec = BoundarySpec.per_dimension([kind, kind])
            point = spec.resolve(grid, centre, (dr, dc))
            assert point.kind is ResolutionKind.INTERIOR
            assert point.linear_index == grid.linear_index(target)

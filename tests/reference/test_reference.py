"""Tests for repro.reference: kernels and the golden stencil executor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.boundary import BoundaryKind, BoundarySpec, EdgeBehaviour, ResolutionKind
from repro.core.grid import GridSpec
from repro.core.stencil import StencilShape
from repro.reference.kernels import (
    AveragingKernel,
    MaxKernel,
    StencilKernel,
    SumKernel,
    WeightedKernel,
)
from repro.reference.stencil_exec import (
    build_gather_plan,
    clear_gather_plan_cache,
    gather_plan,
    make_test_grid,
    reference_run,
    reference_step,
    reference_step_scalar,
)


class TestKernels:
    def test_averaging_kernel_mean(self):
        k = AveragingKernel()
        assert k.apply([(0, 1), (1, 0)], [2.0, 4.0]) == 3.0

    def test_averaging_kernel_empty_tuple(self):
        assert AveragingKernel().apply([], []) == 0.0

    def test_averaging_kernel_metadata(self):
        k = AveragingKernel()
        assert k.ops_per_point == 4
        assert k.adder_levels == 2

    def test_sum_kernel(self):
        assert SumKernel().apply([(0, 1)], [1.5, 2.5]) == 4.0

    def test_max_kernel(self):
        assert MaxKernel().apply([(0, 1), (1, 0)], [3.0, -1.0]) == 3.0
        assert MaxKernel().apply([], []) == 0.0

    def test_weighted_kernel_uses_offsets(self):
        k = WeightedKernel(weights={(0, 1): 2.0, (1, 0): -1.0}, bias=0.5)
        out = k.apply([(0, 1), (1, 0)], [3.0, 4.0])
        assert out == pytest.approx(0.5 + 6.0 - 4.0)

    def test_weighted_kernel_ignores_unknown_offsets(self):
        k = WeightedKernel(weights={(0, 1): 2.0})
        assert k.apply([(5, 5)], [100.0]) == 0.0

    def test_weighted_kernel_ops_derived_from_taps(self):
        k = WeightedKernel(weights={(0, 1): 1.0, (1, 0): 1.0, (0, -1): 1.0})
        assert k.ops_per_point == 6

    def test_weighted_kernel_requires_weights(self):
        with pytest.raises(ValueError):
            WeightedKernel(weights={})

    def test_jacobi_factory(self):
        k = WeightedKernel.jacobi_2d()
        assert set(k.weights) == {(-1, 0), (1, 0), (0, -1), (0, 1)}

    def test_diffusion_factory_conserves_weight(self):
        k = WeightedKernel.diffusion_2d(nu=0.1)
        assert sum(k.weights.values()) == pytest.approx(1.0)


class TestReferenceStep:
    def test_averaging_on_constant_grid_is_identity_interior(self):
        grid = GridSpec(shape=(8, 8))
        data = np.full(grid.shape, 5.0)
        out = reference_step(data, grid, StencilShape.four_point_2d(),
                             BoundarySpec.all_circular(2), AveragingKernel())
        assert np.allclose(out, 5.0)

    def test_shape_mismatch_rejected(self):
        grid = GridSpec(shape=(4, 4))
        with pytest.raises(ValueError):
            reference_step(np.zeros((3, 3)), grid, StencilShape.four_point_2d(),
                           BoundarySpec.all_open(2), AveragingKernel())

    def test_circular_wrap_uses_opposite_row(self):
        grid = GridSpec(shape=(4, 4))
        data = np.zeros(grid.shape)
        data[3, 2] = 8.0  # bottom row value
        stencil = StencilShape.from_offsets([(-1, 0)], name="north-only")
        out = reference_step(data, grid, stencil, BoundarySpec.paper_2d(), SumKernel())
        # the north neighbour of (0,2) wraps to (3,2)
        assert out[0, 2] == 8.0

    def test_open_boundary_reduces_divisor(self):
        grid = GridSpec(shape=(3, 3))
        data = np.ones(grid.shape)
        out = reference_step(data, grid, StencilShape.four_point_2d(),
                             BoundarySpec.all_open(2), AveragingKernel())
        # centre has 4 neighbours, corner only 2, both average to 1.0 on a
        # constant grid; check the corner arithmetic explicitly with a ramp
        ramp = np.arange(9, dtype=float).reshape(3, 3)
        out = reference_step(ramp, grid, StencilShape.four_point_2d(),
                             BoundarySpec.all_open(2), AveragingKernel())
        assert out[0, 0] == pytest.approx((ramp[0, 1] + ramp[1, 0]) / 2)

    def test_constant_boundary_contributes_value(self):
        grid = GridSpec(shape=(3, 3))
        data = np.zeros(grid.shape)
        spec = BoundarySpec.per_dimension(
            [BoundaryKind.CONSTANT, BoundaryKind.CONSTANT], constant_value=4.0
        )
        out = reference_step(data, grid, StencilShape.four_point_2d(), spec, SumKernel())
        assert out[0, 0] == 8.0  # two out-of-grid neighbours at 4.0 each
        assert out[1, 1] == 0.0

    def test_diffusion_conserves_total_heat_on_periodic_grid(self):
        grid = GridSpec(shape=(12, 12))
        data = make_test_grid(grid, kind="impulse")
        out = reference_run(data, grid, StencilShape.five_point_2d(),
                            BoundarySpec.all_circular(2),
                            WeightedKernel.diffusion_2d(0.2), iterations=5)
        assert out.sum() == pytest.approx(data.sum())

    def test_reference_run_iterations(self):
        grid = GridSpec(shape=(5, 5))
        data = make_test_grid(grid, kind="ramp")
        once = reference_step(data, grid, StencilShape.four_point_2d(),
                              BoundarySpec.paper_2d(), AveragingKernel())
        twice = reference_run(data, grid, StencilShape.four_point_2d(),
                              BoundarySpec.paper_2d(), AveragingKernel(), iterations=2)
        again = reference_step(once, grid, StencilShape.four_point_2d(),
                               BoundarySpec.paper_2d(), AveragingKernel())
        assert np.allclose(twice, again)

    def test_zero_iterations_returns_copy(self):
        grid = GridSpec(shape=(4, 4))
        data = make_test_grid(grid, kind="random")
        out = reference_run(data, grid, StencilShape.four_point_2d(),
                            BoundarySpec.paper_2d(), AveragingKernel(), iterations=0)
        assert np.array_equal(out, data)
        assert out is not data

    def test_negative_iterations_rejected(self):
        grid = GridSpec(shape=(4, 4))
        with pytest.raises(ValueError):
            reference_run(np.zeros(grid.shape), grid, StencilShape.four_point_2d(),
                          BoundarySpec.paper_2d(), AveragingKernel(), iterations=-1)

    @given(
        rows=st.integers(3, 8),
        cols=st.integers(3, 8),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=20, deadline=None)
    def test_periodic_averaging_matches_numpy_roll(self, rows, cols, seed):
        """On a fully periodic grid the 4-point average equals the mean of the
        four np.roll shifts — an independent NumPy formulation."""
        grid = GridSpec(shape=(rows, cols))
        rng = np.random.default_rng(seed)
        data = rng.random(grid.shape)
        out = reference_step(data, grid, StencilShape.four_point_2d(),
                             BoundarySpec.all_circular(2), AveragingKernel())
        expected = (
            np.roll(data, 1, axis=0) + np.roll(data, -1, axis=0)
            + np.roll(data, 1, axis=1) + np.roll(data, -1, axis=1)
        ) / 4.0
        assert np.allclose(out, expected)


class HarmonicKernel(StencilKernel):
    """A custom kernel with no apply_batch override: exercises the fallback."""

    def apply(self, offsets, values):
        if not values:
            return 0.0
        acc = 0.0
        for v in values:
            acc += 1.0 / (1.0 + abs(v))
        return acc


BOUNDARY_CASES = [
    BoundarySpec.paper_2d(),
    BoundarySpec.all_open(2),
    BoundarySpec.all_circular(2),
    BoundarySpec.per_dimension([BoundaryKind.MIRROR, BoundaryKind.CLAMP]),
    BoundarySpec.per_dimension(
        [BoundaryKind.CONSTANT, BoundaryKind.CIRCULAR], constant_value=2.75
    ),
]

KERNEL_CASES = [
    AveragingKernel(),
    SumKernel(),
    MaxKernel(),
    WeightedKernel.jacobi_2d(),
    WeightedKernel.diffusion_2d(0.15),
    HarmonicKernel(name="harmonic"),
]


class TestVectorizedExecutor:
    """The vectorized gather-plan path must equal the scalar loop *exactly*."""

    @pytest.mark.parametrize("boundary", BOUNDARY_CASES, ids=lambda b: b.describe())
    @pytest.mark.parametrize("kernel", KERNEL_CASES, ids=lambda k: k.name)
    def test_bitwise_equal_to_scalar(self, boundary, kernel):
        grid = GridSpec(shape=(7, 9))
        data = make_test_grid(grid, seed=3, kind="random")
        for stencil in (StencilShape.four_point_2d(), StencilShape.five_point_2d()):
            vec = reference_step(data, grid, stencil, boundary, kernel)
            scalar = reference_step_scalar(data, grid, stencil, boundary, kernel)
            assert np.array_equal(vec, scalar)  # exact equality, not tolerance

    @given(rows=st.integers(3, 9), cols=st.integers(3, 9), seed=st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_bitwise_equal_on_random_grids(self, rows, cols, seed):
        grid = GridSpec(shape=(rows, cols))
        data = make_test_grid(grid, seed=seed, kind="random")
        boundary = BOUNDARY_CASES[seed % len(BOUNDARY_CASES)]
        kernel = KERNEL_CASES[seed % len(KERNEL_CASES)]
        vec = reference_step(data, grid, StencilShape.four_point_2d(), boundary, kernel)
        scalar = reference_step_scalar(
            data, grid, StencilShape.four_point_2d(), boundary, kernel
        )
        assert np.array_equal(vec, scalar)

    def test_multi_iteration_run_equals_repeated_scalar_steps(self):
        grid = GridSpec(shape=(6, 8))
        data = make_test_grid(grid, seed=11, kind="random")
        stencil = StencilShape.four_point_2d()
        boundary = BoundarySpec.paper_2d()
        kernel = AveragingKernel()
        vec = reference_run(data, grid, stencil, boundary, kernel, iterations=7)
        scalar = data.copy()
        for _ in range(7):
            scalar = reference_step_scalar(scalar, grid, stencil, boundary, kernel)
        assert np.array_equal(vec, scalar)

    def test_interior_collapses_into_one_group(self):
        # Groups are keyed by the surviving offsets alone: on a periodic grid
        # every position keeps all four, wrapped or not, so one group holds
        # the whole grid.
        plan = build_gather_plan(
            GridSpec(shape=(10, 10)), StencilShape.four_point_2d(),
            BoundarySpec.all_circular(2),
        )
        assert [len(g.rows) for g in plan.groups] == [100]
        # The paper's case: circular rows keep every interior-column access,
        # open columns drop the west (first column) or east (last) access.
        plan = build_gather_plan(
            GridSpec(shape=(11, 11)), StencilShape.four_point_2d(),
            BoundarySpec.paper_2d(),
        )
        assert sorted(len(g.rows) for g in plan.groups) == [11, 11, 99]

    def test_plan_cache_returns_same_object(self):
        clear_gather_plan_cache()
        grid = GridSpec(shape=(5, 5))
        args = (grid, StencilShape.four_point_2d(), BoundarySpec.paper_2d())
        assert gather_plan(*args) is gather_plan(*args)

    @pytest.mark.parametrize("kernel", KERNEL_CASES, ids=lambda k: k.name)
    def test_signed_zero_bit_patterns_match_scalar(self, kernel):
        # np.array_equal treats -0.0 == 0.0, so compare raw bit patterns:
        # the vectorized folds must reproduce the scalar path's signed zeros
        # (Python's sum() starts from int 0, turning a leading -0.0 into +0.0).
        grid = GridSpec(shape=(4, 4))
        data = np.full(grid.shape, -0.0)
        for boundary in (BoundarySpec.paper_2d(), BoundarySpec.all_open(2)):
            vec = reference_step(data, grid, StencilShape.four_point_2d(), boundary, kernel)
            scalar = reference_step_scalar(
                data, grid, StencilShape.four_point_2d(), boundary, kernel
            )
            assert vec.tobytes() == scalar.tobytes()

    def test_signed_zero_constants_do_not_share_a_cached_plan(self):
        # BoundarySpec(constant_value=-0.0) == BoundarySpec(constant_value=0.0),
        # so the plan cache must also key the constant's bit pattern.
        grid = GridSpec(shape=(3,))
        stencil = StencilShape.from_offsets([(-1,), (0,)], name="west-centre")
        data = np.full(grid.shape, -0.0)
        for value in (0.0, -0.0):
            boundary = BoundarySpec.per_dimension([BoundaryKind.CONSTANT], value)
            vec = reference_step(data, grid, stencil, boundary, MaxKernel())
            scalar = reference_step_scalar(data, grid, stencil, boundary, MaxKernel())
            assert vec.tobytes() == scalar.tobytes()

    def test_all_skipped_positions_produce_kernel_empty_value(self):
        # A stencil reaching entirely outside an open-boundary grid: every
        # access is skipped, so the kernel's empty-tuple value applies.
        grid = GridSpec(shape=(2, 2))
        stencil = StencilShape.from_offsets([(5, 5)], name="far")
        boundary = BoundarySpec.all_open(2)
        data = make_test_grid(grid, kind="ramp")
        vec = reference_step(data, grid, stencil, boundary, AveragingKernel())
        scalar = reference_step_scalar(data, grid, stencil, boundary, AveragingKernel())
        assert np.array_equal(vec, scalar)
        assert np.all(vec == 0.0)


@st.composite
def stencil_problems(draw):
    """A 1-D to 3-D grid, a stencil on it and any boundary kind per side."""
    shape = tuple(draw(st.lists(st.integers(1, 9), min_size=1, max_size=3)))
    ndim = len(shape)
    offset = st.tuples(*[st.integers(-3, 3)] * ndim)
    offsets = draw(st.lists(offset, min_size=1, max_size=6, unique=True))
    kind = st.sampled_from(list(BoundaryKind))
    edges = [EdgeBehaviour(low=draw(kind), high=draw(kind)) for _ in shape]
    boundary = BoundarySpec(
        edges=tuple(edges), constant_value=draw(st.sampled_from([0.0, -0.0, 2.5]))
    )
    return GridSpec(shape=shape), StencilShape.from_offsets(offsets), boundary


class TestGeneratedProblems:
    """Every grid, stencil, boundary and kernel: the plan path is bitwise exact."""

    @given(
        problem=stencil_problems(),
        kernel=st.sampled_from(KERNEL_CASES),
        iterations=st.integers(0, 6),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=100, deadline=None)
    def test_run_matches_scalar_steps_bitwise(self, problem, kernel, iterations, seed):
        grid, stencil, boundary = problem
        data = make_test_grid(grid, seed=seed, kind="random")
        # signed zeros in the grid meet the signed-zero constants
        data[np.random.default_rng(seed).random(grid.shape) < 0.3] = -0.0
        vec = reference_run(data, grid, stencil, boundary, kernel, iterations=iterations)
        scalar = data
        for _ in range(iterations):
            scalar = reference_step_scalar(scalar, grid, stencil, boundary, kernel)
        assert vec.shape == scalar.shape and vec.dtype == scalar.dtype
        assert vec.tobytes() == scalar.tobytes()

        surviving = {
            tuple(
                point.offset
                for point in boundary.resolve_stencil(grid, grid.coord(linear), stencil)
                if point.kind is not ResolutionKind.SKIPPED
            )
            for linear in range(grid.size)
        }
        assert len(build_gather_plan(grid, stencil, boundary).groups) == len(surviving)


class TestMakeTestGrid:
    def test_ramp(self):
        grid = GridSpec(shape=(3, 4))
        data = make_test_grid(grid, kind="ramp")
        assert data[0, 0] == 0 and data[2, 3] == 11

    def test_random_is_deterministic_per_seed(self):
        grid = GridSpec(shape=(4, 4))
        a = make_test_grid(grid, seed=7, kind="random")
        b = make_test_grid(grid, seed=7, kind="random")
        assert np.array_equal(a, b)

    def test_impulse(self):
        grid = GridSpec(shape=(5, 5))
        data = make_test_grid(grid, kind="impulse")
        assert data.sum() == 1.0
        assert data[2, 2] == 1.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_test_grid(GridSpec(shape=(2, 2)), kind="noise")

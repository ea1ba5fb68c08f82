"""1D and 3D stencil problems through the full cycle-accurate system.

The paper validates on a 2D grid, but nothing in the Smache model is
2D-specific; these tests exercise the whole stack (planner, buffers,
simulation) on 1D and 3D problems and validate against the NumPy reference.
"""

import numpy as np
import pytest

from repro.arch.system import run_smache
from repro.core.boundary import BoundaryKind, BoundarySpec
from repro.core.grid import GridSpec
from repro.core.stencil import StencilShape
from repro.pipeline import StencilProblem, compile
from repro.reference.kernels import AveragingKernel, WeightedKernel
from repro.reference.stencil_exec import make_test_grid, reference_run


class Test1D:
    def test_periodic_ring_average(self):
        problem = StencilProblem(
            grid=GridSpec(shape=(64,)),
            stencil=StencilShape.from_offsets([(-1,), (1,)], name="ring"),
            boundary=BoundarySpec.all_circular(1),
            name="ring-64",
        )
        # wrap offsets are +-63: the planner should keep +-1 in the window and
        # put the two wrap elements in static buffers
        plan = compile(problem).plan
        assert plan.stream.reach == 2
        assert plan.n_static_buffers == 2
        assert plan.static_elements == 2

        kernel = AveragingKernel(expected_points=2)
        grid_in = make_test_grid(problem.grid, kind="random")
        ref = reference_run(grid_in, problem.grid, problem.stencil, problem.boundary, kernel, 4)
        sim = run_smache(compile(problem), grid_in, iterations=4, kernel=kernel)
        np.testing.assert_allclose(sim.output, ref, rtol=1e-12)

    def test_long_reach_1d_filter(self):
        stencil = StencilShape.from_offsets([(-8,), (-1,), (0,), (1,), (8,)], name="long")
        problem = StencilProblem(
            grid=GridSpec(shape=(48,)),
            stencil=stencil,
            boundary=BoundarySpec.per_dimension([BoundaryKind.CLAMP]),
        )
        kernel = AveragingKernel(expected_points=5)
        grid_in = make_test_grid(problem.grid, kind="ramp")
        ref = reference_run(grid_in, problem.grid, problem.stencil, problem.boundary, kernel, 2)
        sim = run_smache(compile(problem), grid_in, iterations=2, kernel=kernel)
        np.testing.assert_allclose(sim.output, ref, rtol=1e-12)


class Test3D:
    def test_3d_periodic_slab(self):
        """A small 3D grid, periodic in the outermost dimension only."""
        problem = StencilProblem(
            grid=GridSpec(shape=(4, 6, 5)),
            stencil=StencilShape.von_neumann(3, radius=1),
            boundary=BoundarySpec.per_dimension(
                [BoundaryKind.CIRCULAR, BoundaryKind.OPEN, BoundaryKind.OPEN]
            ),
            name="slab",
        )
        # the wrap across the outermost dimension needs static storage
        assert compile(problem).plan.n_static_buffers >= 1

        kernel = AveragingKernel(expected_points=7)
        grid_in = make_test_grid(problem.grid, kind="random")
        ref = reference_run(grid_in, problem.grid, problem.stencil, problem.boundary, kernel, 2)
        sim = run_smache(compile(problem), grid_in, iterations=2, kernel=kernel)
        np.testing.assert_allclose(sim.output, ref, rtol=1e-12)

    def test_3d_weighted_diffusion_open_box(self):
        weights = {
            (0, 0, 0): 0.4,
            (-1, 0, 0): 0.1, (1, 0, 0): 0.1,
            (0, -1, 0): 0.1, (0, 1, 0): 0.1,
            (0, 0, -1): 0.1, (0, 0, 1): 0.1,
        }
        problem = StencilProblem(
            grid=GridSpec(shape=(5, 5, 5)),
            stencil=StencilShape.from_offsets(list(weights), name="7-point"),
            boundary=BoundarySpec.all_open(3),
        )
        kernel = WeightedKernel(name="diff3d", weights=weights)
        grid_in = make_test_grid(problem.grid, kind="impulse")
        ref = reference_run(grid_in, problem.grid, problem.stencil, problem.boundary, kernel, 3)
        sim = run_smache(compile(problem), grid_in, iterations=3, kernel=kernel)
        np.testing.assert_allclose(sim.output, ref, rtol=1e-12)

    def test_3d_cost_model_scales_with_plane_size(self):
        small = StencilProblem(
            grid=GridSpec(shape=(8, 8, 8)),
            stencil=StencilShape.von_neumann(3, radius=1),
            boundary=BoundarySpec.per_dimension(
                [BoundaryKind.CIRCULAR, BoundaryKind.OPEN, BoundaryKind.OPEN]
            ),
        )
        large = StencilProblem(
            grid=GridSpec(shape=(8, 16, 16)),
            stencil=StencilShape.von_neumann(3, radius=1),
            boundary=BoundarySpec.per_dimension(
                [BoundaryKind.CIRCULAR, BoundaryKind.OPEN, BoundaryKind.OPEN]
            ),
        )
        # the window must span one full plane (+- plane size), so the stream
        # buffer grows with the plane while the hybrid register section stays put
        assert compile(small).plan.stream.reach == 2 * 8 * 8
        assert compile(large).plan.stream.reach == 2 * 16 * 16
        assert compile(large).cost.r_stream_bits == compile(small).cost.r_stream_bits

    def test_tiny_periodic_3d_grid_degenerates_to_all_static(self):
        """When the whole grid is cheaper to hold than the window, the planner
        collapses to a single static buffer covering it (reach-0 window)."""
        problem = StencilProblem(
            grid=GridSpec(shape=(4, 8, 8)),
            stencil=StencilShape.von_neumann(3, radius=1),
            boundary=BoundarySpec.per_dimension(
                [BoundaryKind.CIRCULAR, BoundaryKind.OPEN, BoundaryKind.OPEN]
            ),
        )
        plan = compile(problem).plan
        assert plan.stream.reach == 0
        assert plan.n_static_buffers == 1
        assert plan.static_elements <= problem.grid.size

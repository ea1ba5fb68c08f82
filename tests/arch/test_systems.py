"""System-level tests: Smache and baseline vs the NumPy reference.

These are the most important tests in the repository: they establish that the
cycle-accurate hardware models compute exactly what the golden model computes,
for a variety of grids, stencils and boundary conditions, and that the
performance counters behave the way the paper's argument requires (contiguous
streaming, 1 read per element for Smache vs n_points reads for the baseline).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.system import BaselineSystem, SmacheSystem, run_baseline, run_smache
from repro.core.boundary import BoundaryKind, BoundarySpec
from repro.core.config import SmacheConfig
from repro.core.grid import GridSpec
from repro.core.partition import StreamBufferMode
from repro.core.stencil import StencilShape
from repro.memory.dram import DRAMTiming
from repro.reference.kernels import AveragingKernel, MaxKernel, SumKernel, WeightedKernel
from repro.reference.stencil_exec import make_test_grid, reference_run


def check_equivalence(config, kernel, iterations=2, kind="random"):
    """Run reference, Smache and baseline; assert all three agree."""
    grid_in = make_test_grid(config.grid, kind=kind)
    reference = reference_run(
        grid_in, config.grid, config.stencil, config.boundary, kernel, iterations=iterations
    )
    smache = run_smache(config, grid_in, iterations=iterations, kernel=kernel)
    baseline = run_baseline(config, grid_in, iterations=iterations, kernel=kernel)
    np.testing.assert_allclose(smache.output, reference, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(baseline.output, reference, rtol=1e-12, atol=1e-12)
    return smache, baseline


class TestFunctionalEquivalence:
    def test_paper_case(self, paper_config, averaging_kernel):
        check_equivalence(paper_config, averaging_kernel, iterations=3)

    def test_small_asymmetric_grid(self, averaging_kernel):
        config = SmacheConfig.paper_example(rows=5, cols=13)
        check_equivalence(config, averaging_kernel, iterations=2)

    def test_fully_periodic_five_point(self):
        config = SmacheConfig.periodic_2d(9, 9)
        check_equivalence(config, WeightedKernel.jacobi_2d(), iterations=3)

    def test_open_boundaries_no_static_buffers(self, averaging_kernel):
        config = SmacheConfig(
            grid=GridSpec(shape=(10, 10)),
            stencil=StencilShape.four_point_2d(),
            boundary=BoundarySpec.all_open(2),
        )
        assert config.plan().n_static_buffers == 0
        check_equivalence(config, averaging_kernel, iterations=2)

    def test_mirror_boundaries_star_stencil(self):
        config = SmacheConfig(
            grid=GridSpec(shape=(9, 8)),
            stencil=StencilShape.star_2d(radius=2),
            boundary=BoundarySpec.per_dimension([BoundaryKind.MIRROR, BoundaryKind.MIRROR]),
        )
        check_equivalence(config, AveragingKernel(expected_points=8), iterations=2)

    def test_constant_boundaries_sum_kernel(self):
        config = SmacheConfig(
            grid=GridSpec(shape=(7, 7)),
            stencil=StencilShape.four_point_2d(),
            boundary=BoundarySpec.per_dimension(
                [BoundaryKind.CONSTANT, BoundaryKind.CONSTANT], constant_value=1.25
            ),
        )
        check_equivalence(config, SumKernel(), iterations=2)

    def test_asymmetric_stencil(self):
        config = SmacheConfig(
            grid=GridSpec(shape=(12, 9)),
            stencil=StencilShape.asymmetric_2d(),
            boundary=BoundarySpec.paper_2d(),
        )
        check_equivalence(config, MaxKernel(), iterations=2)

    def test_clamped_diffusion(self):
        config = SmacheConfig(
            grid=GridSpec(shape=(8, 14)),
            stencil=StencilShape.five_point_2d(),
            boundary=BoundarySpec.per_dimension([BoundaryKind.CLAMP, BoundaryKind.CLAMP]),
        )
        check_equivalence(config, WeightedKernel.diffusion_2d(0.15), iterations=3)

    def test_register_only_mode_is_functionally_identical(self, averaging_kernel):
        config = SmacheConfig.paper_example(rows=7, cols=9, mode=StreamBufferMode.REGISTER_ONLY)
        check_equivalence(config, averaging_kernel, iterations=2)

    def test_single_iteration(self, small_config, averaging_kernel):
        check_equivalence(small_config, averaging_kernel, iterations=1)

    def test_many_iterations_stay_in_sync(self, small_config, averaging_kernel):
        check_equivalence(small_config, averaging_kernel, iterations=12)

    def test_zero_iterations_returns_input(self, small_config, averaging_kernel):
        grid_in = make_test_grid(small_config.grid, kind="ramp")
        result = run_smache(small_config, grid_in, iterations=0, kernel=averaging_kernel)
        np.testing.assert_allclose(result.output, grid_in)

    @given(
        rows=st.integers(4, 9),
        cols=st.integers(4, 9),
        periodic_rows=st.booleans(),
        periodic_cols=st.booleans(),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=12, deadline=None)
    def test_random_problems_match_reference(self, rows, cols, periodic_rows, periodic_cols, seed):
        """Property: for random small problems the Smache system equals the reference."""
        config = SmacheConfig(
            grid=GridSpec(shape=(rows, cols)),
            stencil=StencilShape.four_point_2d(),
            boundary=BoundarySpec.per_dimension(
                [
                    BoundaryKind.CIRCULAR if periodic_rows else BoundaryKind.OPEN,
                    BoundaryKind.CIRCULAR if periodic_cols else BoundaryKind.OPEN,
                ]
            ),
        )
        rng = np.random.default_rng(seed)
        grid_in = rng.random(config.grid.shape)
        kernel = AveragingKernel()
        reference = reference_run(
            grid_in, config.grid, config.stencil, config.boundary, kernel, iterations=2
        )
        smache = run_smache(config, grid_in, iterations=2, kernel=kernel)
        np.testing.assert_allclose(smache.output, reference, rtol=1e-12, atol=1e-12)


class TestTrafficAccounting:
    def test_smache_reads_each_element_once_per_instance(self, paper_config, averaging_kernel):
        iterations = 4
        grid_in = make_test_grid(paper_config.grid, kind="ramp")
        result = run_smache(paper_config, grid_in, iterations=iterations, kernel=averaging_kernel)
        n = paper_config.grid.size
        prefetch = sum(s.length for s in paper_config.plan().statics)
        assert result.dram_words_read == iterations * n + prefetch
        assert result.dram_words_written == iterations * n

    def test_baseline_reads_n_points_words_per_element(self, paper_config, averaging_kernel):
        iterations = 4
        grid_in = make_test_grid(paper_config.grid, kind="ramp")
        result = run_baseline(paper_config, grid_in, iterations=iterations, kernel=averaging_kernel)
        n = paper_config.grid.size
        assert result.dram_words_read == iterations * n * 4
        assert result.dram_words_written == iterations * n

    def test_traffic_ratio_is_about_40_percent(self, paper_config, averaging_kernel):
        grid_in = make_test_grid(paper_config.grid, kind="ramp")
        smache = run_smache(paper_config, grid_in, iterations=5, kernel=averaging_kernel)
        baseline = run_baseline(paper_config, grid_in, iterations=5, kernel=averaging_kernel)
        ratio = smache.dram_bytes / baseline.dram_bytes
        assert 0.35 < ratio < 0.45

    def test_smache_accesses_are_overwhelmingly_sequential(self, paper_config, averaging_kernel):
        grid_in = make_test_grid(paper_config.grid, kind="ramp")
        smache = run_smache(paper_config, grid_in, iterations=3, kernel=averaging_kernel)
        assert smache.extra["dram_sequential"] > 10 * smache.extra["dram_random"]

    def test_baseline_accesses_are_overwhelmingly_random(self, paper_config, averaging_kernel):
        grid_in = make_test_grid(paper_config.grid, kind="ramp")
        baseline = run_baseline(paper_config, grid_in, iterations=3, kernel=averaging_kernel)
        assert baseline.extra["dram_random"] > baseline.extra["dram_sequential"]

    def test_operations_counted_per_point(self, small_config, averaging_kernel):
        iterations = 3
        grid_in = make_test_grid(small_config.grid, kind="ramp")
        smache = run_smache(small_config, grid_in, iterations=iterations, kernel=averaging_kernel)
        assert smache.operations == iterations * small_config.grid.size * 4


class TestCyclePerformance:
    def test_smache_is_about_one_cycle_per_point(self, paper_config, averaging_kernel):
        grid_in = make_test_grid(paper_config.grid, kind="ramp")
        result = run_smache(paper_config, grid_in, iterations=10, kernel=averaging_kernel)
        assert result.cycles_per_point < 1.35

    def test_baseline_is_about_five_cycles_per_point(self, paper_config, averaging_kernel):
        grid_in = make_test_grid(paper_config.grid, kind="ramp")
        result = run_baseline(paper_config, grid_in, iterations=10, kernel=averaging_kernel)
        assert 4.5 < result.cycles_per_point < 6.0

    def test_smache_cycle_advantage_grows_with_iterations(self, small_config, averaging_kernel):
        grid_in = make_test_grid(small_config.grid, kind="ramp")
        smache = run_smache(small_config, grid_in, iterations=8, kernel=averaging_kernel)
        baseline = run_baseline(small_config, grid_in, iterations=8, kernel=averaging_kernel)
        assert baseline.cycles > 3 * smache.cycles

    def test_instance_cycles_reported(self, small_config, averaging_kernel):
        grid_in = make_test_grid(small_config.grid, kind="ramp")
        result = run_smache(small_config, grid_in, iterations=5, kernel=averaging_kernel)
        assert len(result.instance_cycles) == 5
        # later instances skip the warm-up prefetch, so they are not slower
        assert result.instance_cycles[-1] <= result.instance_cycles[0] + 2

    def test_execution_time_and_mops(self, small_config, averaging_kernel):
        grid_in = make_test_grid(small_config.grid, kind="ramp")
        result = run_smache(small_config, grid_in, iterations=2, kernel=averaging_kernel)
        t = result.execution_time_us(200.0)
        assert t == pytest.approx(result.cycles / 200.0)
        assert result.mops(200.0) == pytest.approx(result.operations / t)
        with pytest.raises(ValueError):
            result.execution_time_us(0)


class TestArchitecturalInvariants:
    def test_hybrid_window_never_needs_concurrent_bram_reads(self, paper_config, averaging_kernel):
        grid_in = make_test_grid(paper_config.grid, kind="ramp")
        result = run_smache(paper_config, grid_in, iterations=3, kernel=averaging_kernel)
        assert result.extra["max_bram_reads_per_cycle"] <= 1

    def test_all_window_or_static_hits(self, paper_config, averaging_kernel):
        grid_in = make_test_grid(paper_config.grid, kind="ramp")
        result = run_smache(paper_config, grid_in, iterations=2, kernel=averaging_kernel)
        n_reads = result.extra["window_hits"] + result.extra["static_hits"]
        from repro.arch.access_table import AccessTable

        table = AccessTable(paper_config.grid, paper_config.stencil, paper_config.boundary)
        assert n_reads == 2 * table.total_element_reads()

    def test_static_buffers_serve_the_boundary_rows(self, paper_config, averaging_kernel):
        grid_in = make_test_grid(paper_config.grid, kind="ramp")
        system = SmacheSystem(paper_config, kernel=averaging_kernel, iterations=2)
        system.load_input(grid_in)
        system.run()
        # each static buffer is read once per boundary-row element per instance
        for static in system.front_end.statics:
            assert static.reads == 2 * static.spec.length
            assert static.writes == 2 * static.spec.length
            assert static.swaps == 2

    def test_write_through_keeps_static_banks_in_sync_with_dram(
        self, paper_config, averaging_kernel
    ):
        grid_in = make_test_grid(paper_config.grid, kind="random")
        system = SmacheSystem(paper_config, kernel=averaging_kernel, iterations=3)
        system.load_input(grid_in)
        result = system.run()
        flat = result.output.ravel()
        for static in system.front_end.statics:
            bank = static.read_bank_snapshot()
            np.testing.assert_allclose(
                bank, flat[static.spec.start : static.spec.end], rtol=1e-12
            )

    def test_operand_outside_window_and_statics_is_an_error(self, paper_config):
        # A plan without its static buffers leaves the boundary rows' far
        # operands unserved: the front-end must refuse, not invent a value.
        import dataclasses

        from repro.sim.engine import SimulationError

        plan = dataclasses.replace(paper_config.plan(), statics=())
        system = SmacheSystem(paper_config, plan=plan, iterations=1)
        system.load_input(make_test_grid(paper_config.grid))
        with pytest.raises(SimulationError, match="neither by the window nor by any static"):
            system.run(max_cycles=100_000)

    def test_load_input_validates_shape(self, paper_config, averaging_kernel):
        system = SmacheSystem(paper_config, kernel=averaging_kernel, iterations=1)
        with pytest.raises(ValueError):
            system.load_input(np.zeros((3, 3)))
        baseline = BaselineSystem(paper_config, kernel=averaging_kernel, iterations=1)
        with pytest.raises(ValueError):
            baseline.load_input(np.zeros((3, 3)))


class TestWriteThroughAblationBehaviour:
    def test_disabling_write_through_still_correct_but_more_traffic(
        self, small_config, averaging_kernel
    ):
        grid_in = make_test_grid(small_config.grid, kind="random")
        reference = reference_run(
            grid_in,
            small_config.grid,
            small_config.stencil,
            small_config.boundary,
            averaging_kernel,
            iterations=4,
        )
        with_wt = SmacheSystem(small_config, kernel=averaging_kernel, iterations=4)
        with_wt.load_input(grid_in)
        r_with = with_wt.run()
        without_wt = SmacheSystem(
            small_config, kernel=averaging_kernel, iterations=4, write_through=False
        )
        without_wt.load_input(grid_in)
        r_without = without_wt.run()
        np.testing.assert_allclose(r_with.output, reference, rtol=1e-12)
        np.testing.assert_allclose(r_without.output, reference, rtol=1e-12)
        assert r_without.dram_words_read > r_with.dram_words_read
        assert r_without.cycles >= r_with.cycles


class TestDramTimingSensitivity:
    def test_baseline_suffers_more_from_random_penalty(self, small_config, averaging_kernel):
        grid_in = make_test_grid(small_config.grid, kind="ramp")
        slow = DRAMTiming(random_access_cycles=4)
        base_fast = run_baseline(small_config, grid_in, iterations=3, kernel=averaging_kernel)
        base_slow = run_baseline(
            small_config, grid_in, iterations=3, kernel=averaging_kernel, dram_timing=slow
        )
        sm_fast = run_smache(small_config, grid_in, iterations=3, kernel=averaging_kernel)
        sm_slow = run_smache(
            small_config, grid_in, iterations=3, kernel=averaging_kernel, dram_timing=slow
        )
        baseline_slowdown = base_slow.cycles / base_fast.cycles
        smache_slowdown = sm_slow.cycles / sm_fast.cycles
        assert baseline_slowdown > 2.0
        assert smache_slowdown < 1.3
        assert baseline_slowdown > smache_slowdown * 2

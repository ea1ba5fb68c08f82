"""End-to-end integration tests: the public API flows a user would follow."""

import numpy as np
import pytest

import repro
from repro import StencilProblem, compile
from repro.arch.system import run_smache
from repro.core.partition import StreamBufferMode
from repro.dse import explore_partitions, minimise_registers, select_best
from repro.fpga.device import stratix_v
from repro.fpga.synthesis import synthesize_smache
from repro.reference import AveragingKernel, reference_run
from repro.reference.stencil_exec import make_test_grid


class TestPublicAPI:
    def test_top_level_exports(self):
        assert repro.__version__
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing export {name}"

    def test_quickstart_flow(self):
        """The README quickstart: describe, compile, estimate, simulate, validate."""
        problem = StencilProblem.paper_example()
        design = compile(problem)
        assert design.plan.n_static_buffers == 2
        assert design.cost.b_total_bits > 0

        kernel = AveragingKernel()
        grid_in = make_test_grid(problem.grid, kind="ramp")
        sim = run_smache(design, grid_in, iterations=5, kernel=kernel)
        ref = reference_run(
            grid_in, problem.grid, problem.stencil, problem.boundary, kernel, iterations=5
        )
        np.testing.assert_allclose(sim.output, ref)

    def test_dse_flow(self):
        """The DSE example flow: sweep, select, synthesise the winner."""
        problem = StencilProblem.paper_example(128, 128)
        points = explore_partitions(problem, device=stratix_v(), steps=4)
        best = select_best(points, minimise_registers)
        assert best is not None
        design = best.design
        report = synthesize_smache(design.problem, design.plan, partition=design.partition)
        assert report.fmax_mhz > 100

    def test_structural_reuse_flow(self):
        """Two-layer customisation: hardware planned for the paper case hosts a
        bigger grid with the same structure (parameter-only change)."""
        small = compile(StencilProblem.paper_example(11, 11))
        large = compile(StencilProblem.paper_example(201, 301))
        assert small.is_structurally_compatible(large)
        assert small.structural_signature()["n_static_buffers"] == 2

    def test_mode_switch_only_changes_resource_split(self):
        design_h = compile(StencilProblem.paper_example(64, 64))
        design_r = compile(
            StencilProblem.paper_example(64, 64, mode=StreamBufferMode.REGISTER_ONLY)
        )
        kernel = AveragingKernel()
        grid_in = make_test_grid(design_h.problem.grid, kind="random")
        out_h = run_smache(design_h, grid_in, iterations=1, kernel=kernel)
        out_r = run_smache(design_r, grid_in, iterations=1, kernel=kernel)
        np.testing.assert_allclose(out_h.output, out_r.output)
        assert out_h.cycles == out_r.cycles  # the mapping does not change timing
        assert design_h.cost.r_total_bits < design_r.cost.r_total_bits


class TestEvalCLI:
    def test_main_runs_selected_experiment(self, capsys, tmp_path):
        from repro.eval.__main__ import main

        out_file = tmp_path / "report.txt"
        code = main(["ablation-planner", "--output", str(out_file)])
        assert code == 0
        captured = capsys.readouterr()
        assert "planner" in captured.out.lower() or "strategy" in captured.out.lower()
        assert out_file.exists()

    def test_main_rejects_unknown_experiment(self, capsys):
        from repro.eval.__main__ import main

        with pytest.raises(SystemExit):
            main(["bogus-experiment"])

"""Tests for the static analysis and the two-layer customisation of a compiled design.

Every figure is read from :func:`repro.pipeline.compile`, the one path from a
:class:`~repro.pipeline.StencilProblem` to its plan.
"""

from dataclasses import replace

from repro.core.boundary import BoundarySpec
from repro.core.grid import GridSpec
from repro.core.partition import StreamBufferMode
from repro.core.stencil import StencilShape
from repro.pipeline import StencilProblem, compile


class TestAnalysis:
    def test_paper_case_summary(self, paper_design):
        assert paper_design.n_cases == 9
        assert paper_design.n_ranges == 33
        assert paper_design.plan.n_static_buffers == 2
        assert paper_design.plan.stream.reach == 22
        # top-edge tuples span -1 .. +110
        assert max(r.reach for r in paper_design.ranges) == 111

    def test_open_boundaries_need_no_static_buffers(self):
        design = compile(
            StencilProblem(
                grid=GridSpec(shape=(11, 11)),
                stencil=StencilShape.four_point_2d(),
                boundary=BoundarySpec.all_open(2),
            )
        )
        assert design.plan.n_static_buffers == 0
        assert design.structural_signature()["n_static_buffers"] == 0

    def test_required_static_buffer_count_shortcut(self, paper_design):
        assert paper_design.structural_signature()["n_static_buffers"] == 2

    def test_describe_contains_buffer_regions(self, paper_design):
        text = paper_design.describe()
        assert "static bufs : 2" in text
        assert "grid[0:11]" in text

    def test_analysis_respects_reach_constraint(self, paper_problem):
        plan = compile(replace(paper_problem, max_stream_reach=4)).plan
        assert plan.stream.reach <= 4
        # offloading the +-11 row offsets forces far more static storage
        assert plan.static_elements > 22


class TestConfigConstruction:
    def test_paper_example_defaults(self):
        problem = StencilProblem.paper_example()
        assert problem.grid.shape == (11, 11)
        assert problem.stencil.n_points == 4
        assert problem.mode is StreamBufferMode.HYBRID

    def test_paper_example_overrides(self):
        problem = StencilProblem.paper_example(7, 9, mode=StreamBufferMode.REGISTER_ONLY)
        assert problem.grid.shape == (7, 9)
        assert problem.mode is StreamBufferMode.REGISTER_ONLY

    def test_periodic_2d_factory(self):
        problem = StencilProblem(
            grid=GridSpec(shape=(16, 16), word_bytes=4),
            stencil=StencilShape.five_point_2d(),
            boundary=BoundarySpec.all_circular(2),
        )
        assert problem.boundary.has_circular()
        assert problem.stencil.includes_centre
        assert compile(problem).plan.n_static_buffers == 2

    def test_effective_word_bits_defaults_to_grid(self):
        assert compile(StencilProblem.paper_example()).plan.stream.word_bits == 32

    def test_effective_word_bits_override(self):
        design = compile(StencilProblem.paper_example(word_bits=16))
        assert design.plan.stream.word_bits == 16
        assert design.parameters()["word_bits"] == 16


class TestTwoLayerCustomisation:
    def test_structural_signature(self, paper_design):
        sig = paper_design.structural_signature()
        assert sig["n_static_buffers"] == 2
        assert sig["mode"] == "h"
        assert sig["n_taps"] == 4

    def test_parameters_layer(self, paper_design):
        params = paper_design.parameters()
        assert params["grid_shape"] == (11, 11)
        assert params["word_bits"] == 32
        assert params["window_depth"] == 25
        assert len(params["static_buffers"]) == 2

    def test_compatibility_same_problem(self, paper_design):
        assert paper_design.is_structurally_compatible(paper_design)

    def test_larger_grid_same_structure_is_compatible(self, paper_design):
        bigger = compile(StencilProblem.paper_example(101, 101))
        # same stencil/boundary shape -> same number of static buffers
        assert paper_design.is_structurally_compatible(bigger)
        assert bigger.is_structurally_compatible(paper_design)

    def test_problem_needing_fewer_buffers_is_compatible(self, paper_design):
        open_problem = compile(
            StencilProblem(
                grid=GridSpec(shape=(11, 11)),
                stencil=StencilShape.four_point_2d(),
                boundary=BoundarySpec.all_open(2),
            )
        )
        assert paper_design.is_structurally_compatible(open_problem)
        assert not open_problem.is_structurally_compatible(paper_design)

    def test_mode_mismatch_is_incompatible(self, paper_problem, paper_design):
        other = compile(replace(paper_problem, mode=StreamBufferMode.REGISTER_ONLY))
        assert not paper_design.is_structurally_compatible(other)

    def test_describe_runs(self, paper_design):
        text = paper_design.describe()
        assert "CompiledDesign" in text
        assert "stream mapping" in text


class TestConfigPlanCaching:
    def test_plan_and_partition_consistent(self, paper_design):
        assert paper_design.partition.depth == paper_design.plan.stream.depth

    def test_cost_estimate_uses_mode(self, paper_problem):
        hybrid = compile(paper_problem).cost
        reg_only = compile(replace(paper_problem, mode=StreamBufferMode.REGISTER_ONLY)).cost
        assert hybrid.b_stream_bits > 0
        assert reg_only.b_stream_bits == 0

    def test_custom_register_elements(self, paper_problem):
        custom = replace(
            paper_problem, mode=StreamBufferMode.CUSTOM, register_elements=20
        )
        assert compile(custom).cost.r_stream_bits == 20 * 32

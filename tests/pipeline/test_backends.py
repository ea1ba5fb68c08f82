"""Tests for the pipeline backend registry and the evaluate facade."""

import numpy as np
import pytest

from repro.core.boundary import BoundarySpec
from repro.core.stencil import StencilShape
from repro.pipeline import (
    Backend,
    EvaluationRequest,
    StencilProblem,
    available_backends,
    batch_evaluate,
    compile,
    evaluate,
    get_backend,
    register_backend,
)
from repro.pipeline.backends import _BACKENDS


@pytest.fixture(scope="module")
def small_design():
    return compile(StencilProblem.paper_example(7, 9))


class TestRegistry:
    def test_builtin_backends_present(self):
        names = available_backends()
        for expected in ("simulate", "reference", "analytic", "cost", "hdl"):
            assert expected in names

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError):
            get_backend("quantum")

    def test_custom_backend_registration(self, small_design):
        class EchoBackend(Backend):
            name = "echo"

            def evaluate(self, design, request):
                from repro.pipeline.backends import EvaluationResult

                return EvaluationResult(backend=self.name, system=request.system, design=design)

        register_backend("echo", EchoBackend)
        try:
            result = evaluate(small_design, backend="echo")
            assert result.backend == "echo"
        finally:
            _BACKENDS.pop("echo", None)


class TestBackendContract:
    """``Backend`` validates every subclass when its class statement runs."""

    def test_fault_wrapped_backends_keep_their_registry_names(self):
        from repro.faults.inject import FaultPlan, FaultyBackend, inject_faults

        with inject_faults(FaultPlan()):
            for name in available_backends():
                backend = get_backend(name)
                assert isinstance(backend, FaultyBackend)
                assert backend.name == name

    def test_conforming_subclass_defines_cleanly(self):
        class SimBackend(Backend):
            name = "sim"

            def evaluate(self, design, request):
                return (design, request)

        assert SimBackend().evaluate(1, 2) == (1, 2)

    def test_hollow_subclass_is_rejected(self):
        with pytest.raises(TypeError, match="HollowBackend never implements evaluate"):

            class HollowBackend(Backend):
                name = "hollow"

    def test_evaluate_with_too_few_arguments_is_rejected(self):
        with pytest.raises(TypeError, match=r"OddBackend: evaluate must be callable"):

            class OddBackend(Backend):
                name = "odd"

                def evaluate(self, design):
                    return design

    def test_evaluate_with_three_required_arguments_is_rejected(self):
        with pytest.raises(TypeError, match=r"evaluate\(design, request\)"):

            class GreedyBackend(Backend):
                name = "greedy"

                def evaluate(self, design, request, budget):
                    return design

    def test_evaluate_with_required_keyword_only_is_rejected(self):
        with pytest.raises(TypeError, match="KeywordBackend"):

            class KeywordBackend(Backend):
                name = "keyword"

                def evaluate(self, design, request, *, seed):
                    return design

    def test_evaluate_many_without_with_artifacts_is_rejected(self):
        with pytest.raises(TypeError, match="with_artifacts"):

            class BatchBackend(Backend):
                name = "batch"

                def evaluate(self, design, request):
                    return design

                def evaluate_many(self, items):
                    return list(items)

    def test_evaluate_inherited_through_an_intermediate_class(self):
        class MidBackend(Backend):
            name = "mid"

            def evaluate(self, design, request):
                return design

        class LeafBackend(MidBackend):
            name = "leaf"

        assert LeafBackend().evaluate("d", "r") == "d"

    def test_var_args_and_kwargs_are_accepted(self):
        class Forwarding(Backend):
            name = "forwarding"

            def evaluate(self, *args, **kwargs):
                return args

            def evaluate_many(self, *args, **kwargs):
                return [args, kwargs]

        assert Forwarding().evaluate(1, 2) == (1, 2)

    def test_name_must_match_the_registry_key(self):
        class Wrapper(Backend):
            def __init__(self):
                self.name = "wrapped"

            def evaluate(self, design, request):
                return design

        register_backend("wrapped", Wrapper)
        register_backend("misnamed", Wrapper)
        try:
            assert get_backend("wrapped").name == "wrapped"
            with pytest.raises(TypeError, match="registered as 'misnamed'"):
                get_backend("misnamed")
        finally:
            _BACKENDS.pop("wrapped", None)
            _BACKENDS.pop("misnamed", None)


class TestEvaluationRequest:
    def test_rejects_unknown_system(self):
        with pytest.raises(ValueError):
            EvaluationRequest(system="gpu")

    def test_rejects_negative_iterations(self):
        with pytest.raises(ValueError):
            EvaluationRequest(iterations=-1)

    def test_input_grid_overrides_test_pattern(self, small_design):
        grid = np.ones(small_design.problem.grid.shape)
        request = EvaluationRequest(input_grid=grid)
        assert np.array_equal(request.resolve_input(small_design), grid)


class TestBackendsAgree:
    def test_simulate_matches_reference_output(self, small_design):
        request = EvaluationRequest(iterations=3)
        simulated = evaluate(small_design, backend="simulate", request=request)
        golden = evaluate(small_design, backend="reference", request=request)
        assert np.allclose(simulated.output, golden.output)

    def test_baseline_simulation_matches_reference_output(self, small_design):
        request = EvaluationRequest(iterations=3, system="baseline")
        simulated = evaluate(small_design, backend="simulate", request=request)
        golden = evaluate(small_design, backend="reference", request=request)
        assert np.allclose(simulated.output, golden.output)

    def test_more_static_buffers_than_default_read_jobs(self):
        """Eleven static-buffer prefetches once overflowed the 8-deep read-job queue."""
        problem = StencilProblem.paper_example(
            14,
            7,
            stencil=StencilShape.asymmetric_2d(),
            boundary=BoundarySpec.all_open(2),
            max_stream_reach=16,
        )
        assert len(compile(problem).plan.statics) > 8
        simulated = evaluate(problem, backend="simulate")
        golden = evaluate(problem, backend="reference")
        predicted = evaluate(problem, backend="analytic")
        assert np.array_equal(simulated.output, golden.output)
        assert abs(predicted.cycles - simulated.cycles) <= 0.05 * simulated.cycles

    def test_analytic_produces_timing_but_no_output(self, small_design):
        result = evaluate(small_design, backend="analytic", iterations=3)
        assert result.cycles > 0
        assert result.dram_bytes > 0
        assert result.output is None

    def test_cost_backend_reports_design_economics(self, small_design):
        result = evaluate(small_design, backend="cost")
        assert result.extra["total_bits"] == small_design.cost.total_bits
        assert result.artifacts["synthesis"] is small_design.synthesis
        assert result.cycles is None

    def test_hdl_backend_generates_project(self, small_design):
        result = evaluate(small_design, backend="hdl")
        project = result.artifacts["project"]
        assert "smache_top.v" in project.files
        assert result.extra["n_files"] >= 3


class TestFacade:
    def test_evaluate_accepts_config_and_problem(self, small_problem):
        """A problem and its compiled design (the configured instance) evaluate alike."""
        by_design = evaluate(compile(small_problem), backend="analytic", iterations=2)
        by_problem = evaluate(small_problem, backend="analytic", iterations=2)
        assert by_design.cycles == by_problem.cycles

    def test_request_overrides_merge(self, small_design):
        base = EvaluationRequest(iterations=1)
        result = evaluate(
            small_design, backend="analytic", request=base, iterations=4, system="baseline"
        )
        assert result.iterations == 4
        assert result.system == "baseline"

    def test_evaluate_batch_defaults_to_analytic(self):
        problems = [StencilProblem.paper_example(7, 9), StencilProblem.paper_example(9, 11)]
        results = batch_evaluate(problems, iterations=2)
        assert [r.backend for r in results] == ["analytic", "analytic"]
        assert all(r.cycles > 0 for r in results)

    def test_execution_time_uses_design_fmax(self, small_design):
        result = evaluate(small_design, backend="analytic", iterations=1)
        expected = result.cycles / small_design.fmax_mhz
        assert result.execution_time_us() == pytest.approx(expected)

    def test_execution_time_requires_cycles(self, small_design):
        result = evaluate(small_design, backend="reference", iterations=1)
        with pytest.raises(ValueError):
            result.execution_time_us()

    @pytest.mark.parametrize("frequency", [0, -100.0])
    def test_nonpositive_frequency_rejected(self, small_design, frequency):
        """Zero/negative clocks raise a clear ValueError, never a divide-by-zero."""
        result = evaluate(small_design, backend="analytic", iterations=1)
        with pytest.raises(ValueError, match="must be positive"):
            result.execution_time_us(frequency)
        with pytest.raises(ValueError, match="must be positive"):
            result.mops(frequency)

    def test_nonpositive_design_fmax_rejected(self, small_design):
        import dataclasses

        result = evaluate(small_design, backend="analytic", iterations=1)
        broken_synthesis = dataclasses.replace(small_design.synthesis, fmax_mhz=0.0)
        broken = dataclasses.replace(small_design, synthesis=broken_synthesis)
        result = dataclasses.replace(result, design=broken)
        with pytest.raises(ValueError, match="Fmax must be positive"):
            result.execution_time_us()

    def test_cost_backend_reports_planner_comparison(self, small_design):
        result = evaluate(small_design, backend="cost")
        extra = result.extra
        assert extra["plan_elements"] <= extra["stream_only_elements"]
        assert extra["plan_elements"] == small_design.plan.total_cost_elements

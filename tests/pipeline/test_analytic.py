"""Cross-validation of the analytic backend against the cycle-accurate simulator.

The acceptance bar: cycle predictions within ``ANALYTIC_TOLERANCE`` (5%) of
the simulator on the paper's Figure 2 / Table I configurations, and DRAM
traffic / operation counts matching exactly.  The 1024x1024 Table I rows are
too large to simulate in the test-suite, so the same stencil/boundary
structure is validated on a 96x96 proxy (the model's terms — window reach,
static prefetch, per-instance overheads — scale with the plan, not with a
fitted constant, so agreement on the proxy covers the scaled rows).
"""

import pytest

from repro.core.boundary import BoundarySpec
from repro.core.grid import GridSpec
from repro.core.partition import StreamBufferMode
from repro.core.stencil import StencilShape
from repro.memory.dram import DRAMTiming
from repro.pipeline import (
    ANALYTIC_TOLERANCE,
    EvaluationRequest,
    ReferenceBand,
    StencilProblem,
    compile,
    evaluate,
    validate_prediction,
)


def assert_agreement(problem, system, iterations, timing=None, write_through=True):
    """Analytic vs simulated: cycles within tolerance, counts exact."""
    design = compile(problem)
    request = EvaluationRequest(
        system=system, iterations=iterations, dram_timing=timing, write_through=write_through
    )
    simulated = evaluate(design, backend="simulate", request=request)
    predicted = evaluate(design, backend="analytic", request=request)
    error = abs(predicted.cycles - simulated.cycles) / simulated.cycles
    assert error <= ANALYTIC_TOLERANCE, (
        f"{problem.name}/{system}: predicted {predicted.cycles} vs "
        f"simulated {simulated.cycles} ({error:.2%})"
    )
    assert predicted.dram_words_read == simulated.dram_words_read
    assert predicted.dram_words_written == simulated.dram_words_written
    assert predicted.dram_bytes == simulated.dram_bytes
    assert predicted.operations == simulated.operations
    return error


def asymmetric_problem() -> StencilProblem:
    return StencilProblem(
        grid=GridSpec(shape=(20, 24), word_bytes=4),
        stencil=StencilShape.asymmetric_2d(),
        boundary=BoundarySpec.paper_2d(),
        name="asym-20x24",
    )


class TestFigure2Configurations:
    """The paper's validation case at the paper's full instance count."""

    def test_smache_full_figure2_run(self):
        assert_agreement(StencilProblem.paper_example(), "smache", iterations=100)

    def test_baseline_figure2_scale(self):
        assert_agreement(StencilProblem.paper_example(), "baseline", iterations=30)

    @pytest.mark.parametrize("iterations", [1, 2, 5])
    def test_smache_short_runs(self, iterations):
        assert_agreement(StencilProblem.paper_example(), "smache", iterations=iterations)

    @pytest.mark.parametrize("iterations", [1, 2, 5])
    def test_baseline_short_runs(self, iterations):
        assert_agreement(StencilProblem.paper_example(), "baseline", iterations=iterations)


class TestTable1Configurations:
    """The four Table I rows: both mapping modes, small grid plus a scaled proxy."""

    @pytest.mark.parametrize(
        "mode", [StreamBufferMode.REGISTER_ONLY, StreamBufferMode.HYBRID]
    )
    def test_11x11_both_modes(self, mode):
        assert_agreement(StencilProblem.paper_example(mode=mode), "smache", iterations=10)

    @pytest.mark.parametrize(
        "mode", [StreamBufferMode.REGISTER_ONLY, StreamBufferMode.HYBRID]
    )
    def test_large_grid_proxy_both_modes(self, mode):
        # stands in for the 1024x1024 Table I rows (same structure, feasible to simulate)
        assert_agreement(
            StencilProblem.paper_example(96, 96, mode=mode), "smache", iterations=2
        )


class TestOtherShapes:
    def test_asymmetric_stencil_smache(self):
        assert_agreement(asymmetric_problem(), "smache", iterations=5)

    def test_asymmetric_stencil_baseline(self):
        assert_agreement(asymmetric_problem(), "baseline", iterations=3)

    def test_constrained_reach_plan(self):
        assert_agreement(
            StencilProblem.paper_example(max_stream_reach=4), "smache", iterations=5
        )

    def test_dram_penalty_timing(self):
        timing = DRAMTiming(random_access_cycles=5)
        assert_agreement(StencilProblem.paper_example(), "smache", 5, timing=timing)
        assert_agreement(StencilProblem.paper_example(), "baseline", 3, timing=timing)

    def test_high_read_latency_timing(self):
        timing = DRAMTiming(read_latency=8)
        assert_agreement(StencilProblem.paper_example(), "smache", 4, timing=timing)

    def test_write_through_disabled(self):
        assert_agreement(
            StencilProblem.paper_example(), "smache", iterations=4, write_through=False
        )


class TestValidationReport:
    def test_validate_prediction_passes_on_paper_case(self):
        design = compile(StencilProblem.paper_example())
        report = validate_prediction(design, system="smache", iterations=10)
        assert report.ok
        assert report.worst_error <= ANALYTIC_TOLERANCE
        assert set(report.errors) == {
            "cycles", "dram_words_read", "dram_words_written", "operations",
        }

    def test_validate_prediction_baseline(self):
        design = compile(StencilProblem.paper_example(7, 9))
        report = validate_prediction(design, system="baseline", iterations=4)
        assert report.ok


class TestReferenceBand:
    def test_contains_inside_band(self):
        band = ReferenceBand(100.0, -0.05, 0.05)
        assert band.contains(104.0)
        assert not band.contains(106.0)
        assert not band.contains(94.0)

    def test_exact_band(self):
        band = ReferenceBand(42.0, 0.0, 0.0)
        assert band.contains(42.0)
        assert not band.contains(43.0)

    def test_zero_reference(self):
        band = ReferenceBand(0.0)
        assert band.contains(0.0)
        assert not band.contains(1.0)

    def test_signed_error(self):
        band = ReferenceBand(200.0)
        assert band.error(210.0) == pytest.approx(0.05)
        assert band.error(190.0) == pytest.approx(-0.05)


class TestPredictionEdgeCases:
    def test_zero_iterations(self):
        design = compile(StencilProblem.paper_example(7, 9))
        predicted = evaluate(design, backend="analytic", iterations=0)
        assert predicted.cycles == 0
        assert predicted.dram_bytes == 0
        assert predicted.operations == 0

    @pytest.mark.parametrize("backend", ["simulate", "analytic"])
    @pytest.mark.parametrize("system", ["smache", "baseline"])
    def test_zero_iterations_cost_nothing_on_any_backend(self, system, backend):
        """No work-instance: no cycle, no DRAM word and no operation."""
        design = compile(StencilProblem.paper_example(5, 5))
        result = evaluate(
            design, backend=backend, request=EvaluationRequest(system=system, iterations=0)
        )
        assert result.cycles == 0
        assert result.dram_words_read == result.dram_words_written == 0
        assert result.dram_bytes == 0
        assert result.operations == 0

    def test_unknown_system_rejected(self):
        from repro.pipeline.analytic import predict_performance

        design = compile(StencilProblem.paper_example(7, 9))
        with pytest.raises(ValueError):
            predict_performance(design, system="tpu")

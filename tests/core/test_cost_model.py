"""Tests for repro.core.cost_model — including the exact Table I estimates."""

import pytest

from repro.core.cost_model import compare_estimates, estimate_memory_cost
from repro.core.partition import StreamBufferMode, partition_for_plan
from repro.eval.paper_constants import PAPER_TABLE1
from repro.pipeline import StencilProblem, compile


class TestTableIEstimates:
    """The cost model reproduces every Estimate row of Table I exactly."""

    @pytest.mark.parametrize(
        "shape,mode,key",
        [
            ((11, 11), StreamBufferMode.REGISTER_ONLY, ("11x11", "r")),
            ((11, 11), StreamBufferMode.HYBRID, ("11x11", "h")),
            ((1024, 1024), StreamBufferMode.REGISTER_ONLY, ("1024x1024", "r")),
            ((1024, 1024), StreamBufferMode.HYBRID, ("1024x1024", "h")),
        ],
    )
    def test_estimate_matches_paper(self, shape, mode, key):
        estimate = compile(StencilProblem.paper_example(shape[0], shape[1], mode=mode)).cost
        assert dict(estimate.as_table_row()) == PAPER_TABLE1[key]["estimate"]


class TestEstimateStructure:
    def test_totals_are_sums(self, paper_design):
        est = paper_design.cost
        assert est.r_total_bits == est.r_static_bits + est.r_stream_bits
        assert est.b_total_bits == est.b_static_bits + est.b_stream_bits
        assert est.total_bits == est.r_total_bits + est.b_total_bits

    def test_statics_in_registers_option(self, paper_design):
        plan = paper_design.plan
        est = estimate_memory_cost(plan, statics_in_bram=False)
        assert est.b_static_bits == 0
        assert est.r_static_bits == plan.static_bits

    def test_explicit_partition_overrides_mode(self, paper_design):
        plan = paper_design.plan
        partition = partition_for_plan(plan, StreamBufferMode.REGISTER_ONLY)
        est = estimate_memory_cost(plan, StreamBufferMode.HYBRID, partition=partition)
        assert est.b_stream_bits == 0
        assert est.r_stream_bits == 800

    def test_register_only_vs_hybrid_total_bram_relationship(self):
        # Hybrid moves window bits into BRAM, so its BRAM total is strictly
        # larger and its register total strictly smaller.
        est_r = compile(StencilProblem.paper_example(mode=StreamBufferMode.REGISTER_ONLY)).cost
        est_h = compile(StencilProblem.paper_example(mode=StreamBufferMode.HYBRID)).cost
        assert est_h.r_total_bits < est_r.r_total_bits
        assert est_h.b_total_bits > est_r.b_total_bits

    def test_total_memory_independent_of_mode(self):
        # The split changes, the total number of buffered bits does not.
        est_r = compile(StencilProblem.paper_example(mode=StreamBufferMode.REGISTER_ONLY)).cost
        est_h = compile(StencilProblem.paper_example(mode=StreamBufferMode.HYBRID)).cost
        assert est_r.total_bits == est_h.total_bits


class TestCompareEstimates:
    def test_identical_estimates_have_zero_error(self, paper_design):
        est = paper_design.cost
        errors = compare_estimates(est, est)
        assert all(v == 0.0 for v in errors.values())

    def test_zero_actual_nonzero_estimate_is_inf(self):
        from repro.core.cost_model import MemoryCostEstimate

        est = MemoryCostEstimate(10, 0, 0, 0)
        act = MemoryCostEstimate(0, 0, 0, 0)
        errors = compare_estimates(est, act)
        assert errors["Rsc"] == float("inf")
        assert errors["Bsc"] == 0.0

    def test_error_magnitude(self):
        from repro.core.cost_model import MemoryCostEstimate

        est = MemoryCostEstimate(0, 100, 0, 0)
        act = MemoryCostEstimate(0, 110, 0, 0)
        errors = compare_estimates(est, act)
        assert errors["Bsc"] == pytest.approx(10 / 110)


class TestScaling:
    @pytest.mark.parametrize("cols", [16, 64, 256])
    def test_hybrid_registers_independent_of_grid_width(self, cols):
        est = compile(StencilProblem.paper_example(16, cols, mode=StreamBufferMode.HYBRID)).cost
        assert est.r_stream_bits == 352  # 11 elements regardless of width

    @pytest.mark.parametrize("cols", [16, 64, 256])
    def test_register_only_scales_with_width(self, cols):
        problem = StencilProblem.paper_example(16, cols, mode=StreamBufferMode.REGISTER_ONLY)
        est = compile(problem).cost
        assert est.r_stream_bits == (2 * cols + 3) * 32

    @pytest.mark.parametrize("rows,cols", [(11, 11), (32, 64), (128, 128)])
    def test_static_bits_are_two_rows_double_buffered(self, rows, cols):
        est = compile(StencilProblem.paper_example(rows, cols)).cost
        assert est.b_static_bits == 2 * cols * 32 * 2

    def test_wider_words_scale_everything(self):
        est = compile(StencilProblem.paper_example(word_bits=64)).cost
        base = compile(StencilProblem.paper_example()).cost
        # the word_bits override reaches the plan: every buffered bit doubles
        assert est.r_total_bits == 2 * base.r_total_bits
        assert est.b_total_bits == 2 * base.b_total_bits

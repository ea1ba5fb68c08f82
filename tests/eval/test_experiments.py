"""Tests for the experiment harness (Figure 2, Table I, E3/E4, ablations).

Smaller instance counts keep most tests fast while still checking every
claim the harness makes about the *shape* of the results; one run per
experiment is also checked at the paper's own scale (Figure 2 at 100
work-instances, the ablations at 11x11 and 1024x1024), with the bounds the
reproduction claims there.
"""

import pytest

from repro.eval.ablations import (
    run_dram_penalty_ablation,
    run_planner_ablation,
    run_write_through_ablation,
)
from repro.eval.figure2 import FIGURE2_METRICS, run_figure2
from repro.eval.harness import EXPERIMENTS, run_all, run_experiment
from repro.eval.paper_constants import PAPER_FIGURE2, PAPER_RESOURCES, relative_error
from repro.eval.resources_exp import run_hybrid_tradeoff, run_resources
from repro.eval.table1 import TABLE1_COLUMNS, run_table1


@pytest.fixture(scope="module")
def figure2_small():
    return run_figure2(iterations=20)


class TestFigure2:
    def test_smache_beats_baseline_in_cycles(self, figure2_small):
        assert figure2_small.cycle_ratio < 0.3

    def test_traffic_ratio_about_40_percent(self, figure2_small):
        assert 0.35 < figure2_small.traffic_ratio < 0.45

    def test_baseline_synthesises_faster(self, figure2_small):
        assert figure2_small.baseline.freq_mhz > figure2_small.smache.freq_mhz

    def test_smache_still_wins_overall(self, figure2_small):
        assert figure2_small.speedup > 2.0

    def test_normalised_baseline_is_unity(self, figure2_small):
        norm = figure2_small.normalised()
        assert all(v == 1.0 for v in norm["baseline"].values())

    def test_format_contains_both_designs_and_paper(self, figure2_small):
        text = figure2_small.format()
        assert "baseline" in text and "smache" in text and "paper" in text

    def test_mops_consistent_with_time(self, figure2_small):
        row = figure2_small.smache
        assert row.mops == pytest.approx(
            figure2_small.smache_sim.operations / row.exec_time_us
            if figure2_small.smache_sim
            else row.mops,
            rel=1e-6,
        )

    def test_paper_errors_structure(self, figure2_small):
        errors = figure2_small.paper_errors()
        assert set(errors) == {"baseline", "smache"}
        assert set(errors["smache"]) == set(FIGURE2_METRICS)

    def test_paper_scale_run_matches_paper_within_ten_percent(self):
        """The full 100-instance experiment: every Figure 2 metric within 10%."""
        result = run_figure2(iterations=100)
        # who wins, by roughly what factor
        assert result.cycle_ratio < 0.30
        assert 0.35 < result.traffic_ratio < 0.45
        assert result.speedup > 2.0
        errors = result.paper_errors()
        for design in ("baseline", "smache"):
            for metric in FIGURE2_METRICS:
                assert errors[design][metric] < 0.10, (
                    f"{design} {metric}: measured "
                    f"{getattr(result, design).as_dict()[metric]:.1f} vs paper "
                    f"{PAPER_FIGURE2[design][metric]}"
                )


class TestTable1:
    @pytest.fixture(scope="class")
    def table1(self):
        return run_table1()

    def test_four_rows(self, table1):
        assert len(table1.rows) == 4

    def test_estimates_match_paper_exactly(self, table1):
        for row in table1.rows:
            assert row.estimate == row.paper_estimate

    def test_actuals_track_estimates(self, table1):
        for row in table1.rows:
            assert row.estimate_vs_actual_error() < 0.20

    def test_actuals_close_to_paper_actuals(self, table1):
        # The paper's Rtotal absorbs miscellaneous registers Quartus attributes
        # to the memory blocks (up to ~1.2K bits on the 1024x1024 hybrid row);
        # our split reports those under the controller instead, so only the
        # data columns are compared here (see EXPERIMENTS.md, E2 notes).
        data_columns = ("Bsc", "Rsm", "Bsm", "Btotal")
        for row in table1.rows:
            for col in data_columns:
                paper = row.paper_actual[col]
                if paper < 500:  # skip tiny columns dominated by tool noise
                    continue
                assert relative_error(row.actual[col], paper) < 0.15

    def test_format_contains_all_rows(self, table1):
        text = table1.format()
        assert "11x11r" in text and "1024x1024h" in text


class TestResourcesAndTradeoff:
    def test_resource_comparison_shape(self):
        comparison = run_resources()
        rows = comparison.rows()
        assert rows["baseline"]["bram_bits"] == 0
        assert rows["smache"]["bram_bits"] == PAPER_RESOURCES["smache"]["bram_bits"]
        # Smache pays registers and ALMs for its buffers
        assert rows["smache"]["registers"] > 3 * rows["baseline"]["registers"]
        assert rows["smache"]["alms"] > 3 * rows["baseline"]["alms"]
        assert "E3" in comparison.format()

    def test_resource_errors_within_tolerance(self):
        errors = run_resources().errors()
        assert errors["baseline"]["registers"] < 0.35
        assert errors["smache"]["registers"] < 0.25
        assert errors["smache"]["bram_bits"] < 0.05

    def test_hybrid_tradeoff_matches_paper_shape(self):
        result = run_hybrid_tradeoff()
        # the paper's numbers: ~66K registers / 131K BRAM bits vs ~1.5K / 196K
        assert result.register_only["registers"] == pytest.approx(66_000, rel=0.05)
        assert result.register_only["bram_bits"] == pytest.approx(131_000, rel=0.05)
        assert result.hybrid["registers"] < 2_000
        assert result.hybrid["bram_bits"] == pytest.approx(196_000, rel=0.05)
        assert "Case-R" in result.format()
        # the DSE sweep of the 1M-element stream buffer trades registers monotonically
        from repro.dse import explore_partitions
        from repro.pipeline import StencilProblem

        points = explore_partitions(StencilProblem.paper_example(1024, 1024), steps=6)
        regs = [p.design.cost.r_stream_bits for p in points]
        assert regs == sorted(regs)


class TestAblations:
    def test_write_through_saves_cycles_and_traffic(self):
        result = run_write_through_ablation(rows=7, cols=9, iterations=8)
        assert result.cycle_overhead > 0
        assert result.traffic_overhead > 0
        assert "write-through" in result.format()
        # paper scale: re-prefetching costs extra words and cycles every
        # instance, but the overheads stay bounded
        result = run_write_through_ablation(rows=11, cols=11, iterations=50)
        assert result.traffic_overhead > 0.05
        assert 0.05 < result.cycle_overhead < 1.0

    def test_dram_penalty_hurts_baseline_more(self):
        result = run_dram_penalty_ablation(penalties=(0, 4), rows=7, cols=9, iterations=4)
        assert result.slowdown("baseline") > 2.0
        assert result.slowdown("smache") < 1.3
        assert "penalty" in result.format()
        result = run_dram_penalty_ablation(
            penalties=(0, 2, 4, 8), rows=11, cols=11, iterations=10
        )
        assert result.slowdown("baseline") > 3.0
        assert result.slowdown("smache") < 1.2
        assert result.baseline_cycles == sorted(result.baseline_cycles)

    def test_planner_ablation_savings_grow_with_grid(self):
        result = run_planner_ablation(
            grid_sizes=((11, 11), (64, 64), (256, 256), (1024, 1024))
        )
        assert result.planner_elements[0] == 44
        assert result.saving(0) < result.saving(-1)
        # on the 1M-element grid the window 2W replaces a full-grid span ~2WH
        assert result.saving(-1) > 0.95
        assert all(
            p <= s for p, s in zip(result.planner_elements, result.stream_only_elements)
        )
        assert "planner" in result.format() or "strategy" in result.format()


class TestHarness:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("does-not-exist")

    def test_run_single_experiment(self):
        record = run_experiment("ablation-planner")
        assert record.name == "ablation-planner"
        assert record.text

    def test_run_all_subset(self):
        report = run_all(["ablation-planner", "hybrid"])
        assert len(report.records) == 2
        assert report.get("hybrid") is not None
        assert report.get("missing") is None
        assert "=" * 10 in report.format()

    def test_registry_and_titles_consistent(self):
        from repro.eval.harness import TITLES

        assert set(EXPERIMENTS) == set(TITLES)

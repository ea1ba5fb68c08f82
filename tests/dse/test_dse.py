"""Tests for repro.dse: partition sweeps, objectives and selection."""

import importlib

import pytest

from repro.dse.explorer import (
    explore_grid_sizes,
    explore_partitions,
    pareto_front,
    select_best,
)
from repro.dse.objectives import (
    maximise_fmax,
    minimise_bram_bits,
    minimise_registers,
    minimise_total_memory_bits,
    weighted_balance,
)
from repro.fpga.device import small_device, stratix_v
from repro.fpga.resources import ResourceUsage
from repro.pipeline import StencilProblem, compile
from repro.pipeline.cache import plan_cache
from repro.reference.kernels import SumKernel


@pytest.fixture(scope="module")
def sweep():
    problem = StencilProblem.paper_example(64, 64)
    return explore_partitions(problem, device=stratix_v(), steps=6)


class TestExplorePartitions:
    def test_sweep_spans_hybrid_to_register_only(self, sweep):
        regs = [p.design.partition.register_elements for p in sweep]
        assert min(regs) == 11
        assert max(regs) == sweep[0].design.plan.stream.depth

    def test_register_bits_increase_monotonically(self, sweep):
        r = [p.design.cost.r_stream_bits for p in sweep]
        assert r == sorted(r)

    def test_bram_bits_decrease_monotonically(self, sweep):
        b = [p.design.cost.b_stream_bits for p in sweep]
        assert b == sorted(b, reverse=True)

    def test_every_point_fits_the_big_device(self, sweep):
        assert all(p.fits for p in sweep)

    def test_labels_are_informative(self, sweep):
        assert "register slots" in sweep[0].label


class TestSelection:
    def test_minimise_registers_picks_hybrid_extreme(self, sweep):
        best = select_best(sweep, minimise_registers)
        assert best.design.partition.register_elements == 11

    def test_minimise_bram_picks_register_only_extreme(self, sweep):
        best = select_best(sweep, minimise_bram_bits)
        assert best.design.cost.b_stream_bits == 0

    def test_weighted_balance_interpolates(self, sweep):
        best = select_best(sweep, weighted_balance(register_weight=1.0, bram_weight=1.0))
        assert best is not None

    def test_weighted_balance_validates_weights(self):
        with pytest.raises(ValueError):
            weighted_balance(register_weight=-1)

    def test_total_memory_objective(self, sweep):
        best = select_best(sweep, minimise_total_memory_bits)
        assert best.design.cost.total_bits == min(p.design.cost.total_bits for p in sweep)

    def test_maximise_fmax_returns_a_point(self, sweep):
        assert select_best(sweep, maximise_fmax) is not None

    def test_require_fit_filters(self, sweep):
        # a device too small for anything -> None
        tiny = small_device()
        reserved = ResourceUsage(
            alms=tiny.alms - 10, registers=tiny.registers - 10, bram_bits=tiny.bram_bits - 10
        )
        problem = StencilProblem.paper_example(64, 64)
        points = explore_partitions(problem, device=tiny, steps=3, reserved=reserved)
        assert select_best(points, minimise_registers) is None
        assert select_best(points, minimise_registers, require_fit=False) is not None


class TestParetoFront:
    def test_front_contains_both_extremes(self, sweep):
        front = pareto_front(sweep)
        regs = [p.design.partition.register_elements for p in front]
        assert min(regs) == 11
        assert max(regs) == sweep[0].design.plan.stream.depth

    def test_front_points_are_mutually_non_dominating(self, sweep):
        front = pareto_front(sweep)
        for p in front:
            for q in front:
                if p is q:
                    continue
                assert not (
                    q.design.cost.r_total_bits < p.design.cost.r_total_bits
                    and q.design.cost.b_total_bits < p.design.cost.b_total_bits
                )


class TestExploreGridSizes:
    def test_prices_every_size(self):
        problem = StencilProblem.paper_example()
        points = explore_grid_sizes(problem, sizes=[(11, 11), (64, 64), (256, 256)])
        assert len(points) == 3
        bram = [p.design.cost.b_total_bits for p in points]
        assert bram == sorted(bram)

    def test_grid_size_reflected_in_config_names(self):
        problem = StencilProblem.paper_example()
        points = explore_grid_sizes(problem, sizes=[(32, 32)])
        assert "32x32" in points[0].design.problem.name


class TestPointsAreCompiledDesigns:
    """Every point is what compile() makes of its problem, kernel included."""

    @pytest.fixture(scope="class")
    def sum_problem(self):
        return StencilProblem.paper_example(11, 11, kernel=SumKernel())

    def test_partition_sweep_synthesizes_the_problem_kernel(self, sum_problem):
        points = explore_partitions(sum_problem, steps=6)
        assert points[0].design.partition.mode.value == "h"
        for point in points:
            assert point.design.problem.kernel == SumKernel()
            assert point.design.synthesis == compile(point.design.problem).synthesis

    def test_grid_sweep_synthesizes_the_problem_kernel(self, sum_problem):
        for point in explore_grid_sizes(sum_problem, sizes=[(11, 11), (16, 24)]):
            assert point.design.synthesis == compile(point.design.problem).synthesis


class TestOnePartitionPerSweep:
    def test_a_sweep_partitions_the_stream_ranges_once(self, monkeypatch):
        ranges = importlib.import_module("repro.core.ranges")
        calls = []
        partition = ranges.partition_into_ranges

        def counting(*args, **kwargs):
            calls.append(args)
            return partition(*args, **kwargs)

        for name in ("repro.core.ranges", "repro.pipeline.compile", "repro.core.planner",
                     "repro.fpga.synthesis"):
            monkeypatch.setattr(importlib.import_module(name), "partition_into_ranges", counting)
        plan_cache.clear()
        problem = StencilProblem.paper_example(256, 256)
        assert len(explore_partitions(problem, steps=8)) == 8
        assert len(calls) == 1
        # Warm: the problem and every candidate are plan-cache hits.
        explore_partitions(problem, steps=8)
        assert len(calls) == 1

"""Additional coverage for smaller APIs: units, results, error paths."""

import numpy as np
import pytest

from repro.arch.kernel import KernelResult, TupleData
from repro.arch.smache import SmacheFrontEnd
from repro.arch.system import SimulationResult
from repro.core.boundary import BoundarySpec
from repro.core.grid import GridSpec
from repro.core.planner import plan_buffers
from repro.core.stencil import StencilShape
from repro.eval.figure2 import Figure2Row
from repro.eval.paper_constants import relative_error
from repro.pipeline import StencilProblem, compile
from repro.sim.engine import SimulationError, Simulator


class TestRelativeError:
    def test_zero_paper_zero_measured(self):
        assert relative_error(0, 0) == 0.0

    def test_zero_paper_nonzero_measured(self):
        assert relative_error(5, 0) == float("inf")

    def test_symmetric_magnitude(self):
        assert relative_error(110, 100) == pytest.approx(0.1)
        assert relative_error(90, 100) == pytest.approx(0.1)


class TestSimulationResult:
    def make_result(self, cycles=1000, ops=400):
        return SimulationResult(
            design="smache",
            cycles=cycles,
            iterations=2,
            grid_points=100,
            dram_words_read=220,
            dram_words_written=200,
            dram_bytes=1680,
            operations=ops,
            output=np.zeros((10, 10)),
        )

    def test_traffic_kib(self):
        assert self.make_result().dram_traffic_kib == pytest.approx(1680 / 1024)

    def test_cycles_per_point(self):
        assert self.make_result(cycles=500).cycles_per_point == pytest.approx(2.5)

    def test_mops_definition(self):
        result = self.make_result(cycles=2000, ops=800)
        # 2000 cycles at 200 MHz = 10 us; 800 ops / 10 us = 80 MOPS
        assert result.execution_time_us(200) == pytest.approx(10.0)
        assert result.mops(200) == pytest.approx(80.0)

    def test_invalid_frequency(self):
        with pytest.raises(ValueError):
            self.make_result().execution_time_us(-1)


class TestFigure2Row:
    def test_as_dict_round_trip(self):
        row = Figure2Row(
            design="smache",
            cycle_count=14039,
            freq_mhz=235.3,
            dram_traffic_kib=95.5,
            exec_time_us=59.7,
            mops=811.21,
        )
        d = row.as_dict()
        assert d["cycle_count"] == 14039
        assert set(d) == {"cycle_count", "freq_mhz", "dram_traffic_kib", "exec_time_us", "mops"}


class TestTupleDataAndResults:
    def test_tuple_data_operand_count(self):
        t = TupleData(index=3, offsets=((0, 1), (1, 0)), values=(1.0, 2.0))
        assert t.n_operands == 2

    def test_kernel_result_fields(self):
        r = KernelResult(index=7, value=3.5)
        assert (r.index, r.value) == (7, 3.5)


class TestSmacheErrorPaths:
    def test_inconsistent_plan_raises_at_simulation_time(self):
        """If the plan's static buffers do not cover an offloaded access, the
        front-end reports a planning inconsistency instead of silently
        producing wrong data."""
        grid = GridSpec(shape=(6, 6))
        stencil = StencilShape.four_point_2d()
        boundary = BoundarySpec.paper_2d()
        plan = plan_buffers(grid, stencil, boundary)
        # Sabotage the plan: drop every static buffer.
        from dataclasses import replace

        broken = replace(plan, statics=())
        sim = Simulator()
        front_end = SmacheFrontEnd(sim, broken)
        front_end.start_work_instance(1)  # no prefetch needed without statics
        # Feed the stream and let it try to assemble the first tuple (whose
        # north neighbour wraps to the last row and needs a static buffer).
        with pytest.raises(SimulationError):
            fed = 0
            for _ in range(200):
                if front_end.stream_in.can_push() and fed < grid.size:
                    front_end.stream_in.push(float(fed))
                    fed += 1
                if front_end.tuple_out.can_pop():
                    front_end.tuple_out.pop()
                sim.step()

    def test_excess_prefetch_words_are_not_consumed(self, paper_design):
        """Once the warm-up is complete FSM-1 goes DONE; surplus prefetch data
        backs up in the channel instead of corrupting the static buffers."""
        plan = paper_design.plan
        sim = Simulator()
        front_end = SmacheFrontEnd(sim, plan)
        front_end.start_work_instance(0)
        total = sum(s.length for s in plan.statics)
        pushed = 0
        for _ in range(4 * (total + 10)):
            if pushed < total + 4 and front_end.prefetch_in.can_push():
                front_end.prefetch_in.push(1.0)
                pushed += 1
            sim.step()
        assert all(s.prefetch_complete for s in front_end.statics)
        assert front_end.fsm_prefetch.is_in("DONE")
        assert front_end.prefetch_in.occupancy > 0  # the surplus was left alone
        assert sum(s.prefetched_words for s in front_end.statics) == total


class TestConfigValidationEdges:
    def test_boundary_grid_dimension_mismatch_fails_at_planning(self):
        problem = StencilProblem(
            grid=GridSpec(shape=(8, 8)),
            stencil=StencilShape.four_point_2d(),
            boundary=BoundarySpec.all_open(3),
        )
        with pytest.raises(ValueError):
            compile(problem, cache=None)

    def test_stencil_grid_dimension_mismatch(self):
        problem = StencilProblem(
            grid=GridSpec(shape=(8, 8)),
            stencil=StencilShape.von_neumann(3, 1),
            boundary=BoundarySpec.all_open(2),
        )
        with pytest.raises(ValueError):
            compile(problem, cache=None)

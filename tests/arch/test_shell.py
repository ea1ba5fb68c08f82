"""Unit tests for the shell components (read master, router, write-back, sequencer)."""

import numpy as np
import pytest

from repro.arch.kernel import KernelResult
from repro.arch.shell import (
    TAG_PREFETCH,
    TAG_STREAM,
    ReadJob,
    ReadMaster,
    ResponseRouter,
    WritebackUnit,
)
from repro.arch.smache import SmacheFrontEnd
from repro.arch.system import SmacheSystem
from repro.memory.dram import DRAMModel
from repro.reference.kernels import AveragingKernel
from repro.reference.stencil_exec import make_test_grid
from repro.sim.engine import Simulator


@pytest.fixture
def rig(paper_design):
    """A simulator with DRAM, front-end, read master and router wired up."""
    sim = Simulator()
    dram = DRAMModel(sim, size_words=512)
    plan = paper_design.plan
    front_end = SmacheFrontEnd(sim, plan)
    read_master = ReadMaster(sim, dram)
    router = ResponseRouter(sim, dram, front_end)
    return sim, dram, front_end, read_master, router


class TestReadMaster:
    def test_issues_sequential_burst(self, rig):
        sim, dram, front_end, read_master, router = rig
        dram.preload(0, np.arange(64))
        front_end.start_work_instance(1)  # skip prefetch path; gather consumes
        read_master.jobs.push(ReadJob(base=0, length=40, tag=TAG_STREAM))
        # drain the front-end's tuple output so back-pressure does not stall
        # the stream (there is no kernel in this rig)
        while read_master.words_requested < 40:
            if front_end.tuple_out.can_pop():
                front_end.tuple_out.pop()
            sim.step()
            assert sim.cycle < 600
        assert dram.words_read <= 40
        for _ in range(20):
            if front_end.tuple_out.can_pop():
                front_end.tuple_out.pop()
            sim.step()
        assert read_master.finished()

    def test_processes_jobs_in_order(self, rig):
        sim, dram, front_end, read_master, router = rig
        dram.preload(0, np.arange(128))
        front_end.start_work_instance(0)
        read_master.jobs.push(ReadJob(base=0, length=11, tag=TAG_PREFETCH))
        read_master.jobs.push(ReadJob(base=110, length=11, tag=TAG_PREFETCH))
        sim.run_until(lambda: read_master.words_requested == 22, max_cycles=400)
        assert router.routed_prefetch <= 22


class TestResponseRouter:
    def test_routes_by_tag(self, rig):
        sim, dram, front_end, read_master, router = rig
        dram.preload(0, np.arange(256))
        front_end.start_work_instance(0)  # FSM-1 FILL: consumes prefetch words
        read_master.jobs.push(ReadJob(base=0, length=11, tag=TAG_PREFETCH))
        read_master.jobs.push(ReadJob(base=110, length=11, tag=TAG_PREFETCH))
        read_master.jobs.push(ReadJob(base=0, length=30, tag=TAG_STREAM))
        sim.run_until(lambda: router.routed_prefetch == 22, max_cycles=1000)
        assert front_end.statics[0].prefetch_complete or front_end.statics[1].prefetch_complete
        sim.run_until(lambda: router.routed_stream >= 10, max_cycles=1000)
        assert router.routed_stream >= 10


class TestWritebackUnit:
    def test_writes_to_dram_and_feeds_write_through(self, paper_design):
        sim = Simulator()
        dram = DRAMModel(sim, size_words=512)
        plan = paper_design.plan
        front_end = SmacheFrontEnd(sim, plan)
        results = sim.create_channel("results", 4)
        writeback = WritebackUnit(sim, dram, front_end, results)
        writeback.set_destination(121)
        results.push(KernelResult(index=5, value=2.5))
        results.push(KernelResult(index=115, value=7.5))
        sim.run_until(lambda: dram.writes_completed == 2, max_cycles=100)
        assert dram.storage[121 + 5] == 2.5
        assert dram.storage[121 + 115] == 7.5
        # the covered result reached the static buffer's write bank (FSM-3)
        sim.step(5)
        covered = [s for s in front_end.statics if s.covers(115)][0]
        assert covered.writes == 1

    def test_respects_backpressure(self, paper_design):
        sim = Simulator()
        dram = DRAMModel(sim, size_words=512)
        plan = paper_design.plan
        front_end = SmacheFrontEnd(sim, plan)
        results = sim.create_channel("results", 8)
        writeback = WritebackUnit(sim, dram, front_end, results)
        for i in range(6):
            if results.can_push():
                results.push(KernelResult(index=i, value=float(i)))
        sim.run_until(lambda: writeback.results_written >= 4, max_cycles=100)
        assert dram.words_written >= 1


class TestWorkSequencer:
    def test_instance_bookkeeping(self, small_problem, small_design, averaging_kernel):
        system = SmacheSystem(small_design, kernel=averaging_kernel, iterations=3)
        system.load_input(make_test_grid(small_problem.grid, kind="ramp"))
        system.run()
        seq = system.sequencer
        assert seq.done
        assert seq.current_instance == 3
        assert len(seq.instance_start_cycles) == 3
        assert len(seq.instance_end_cycles) == 3
        # ping-pong addressing
        assert seq.src_base(0) == 0
        assert seq.dst_base(0) == small_problem.grid.size
        assert seq.src_base(1) == small_problem.grid.size
        assert seq.dst_base(1) == 0

    def test_zero_iterations_finishes_immediately(
        self, small_problem, small_design, averaging_kernel
    ):
        system = SmacheSystem(small_design, kernel=averaging_kernel, iterations=0)
        system.load_input(make_test_grid(small_problem.grid, kind="ramp"))
        result = system.run()
        assert result.cycles <= 3
        assert result.dram_words_read == 0

    def test_prefetch_only_on_first_instance(self, small_problem, small_design, averaging_kernel):
        system = SmacheSystem(small_design, kernel=averaging_kernel, iterations=3)
        system.load_input(make_test_grid(small_problem.grid, kind="ramp"))
        system.run()
        prefetch_elements = sum(s.length for s in system.plan.statics)
        assert (
            system.dram.words_read
            == 3 * small_problem.grid.size + prefetch_elements
        )

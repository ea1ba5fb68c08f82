"""Complete simulated systems: Smache vs baseline.

A *system* is DRAM plus a design (Smache front-end + kernel + write-back, or
the no-buffering baseline master), assembled on one
:class:`repro.sim.engine.Simulator` and run for a number of work-instances.
Both systems ping-pong between two grid copies in DRAM (read ``k``, write
``k+1``) and both return a :class:`SimulationResult` carrying everything the
evaluation harness needs: cycle count, DRAM traffic, operation count and the
final grid (validated against the NumPy reference in the test-suite).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.arch.access_table import AccessTable
from repro.arch.baseline import BaselineMaster
from repro.arch.kernel import KernelHW
from repro.arch.shell import ReadMaster, ResponseRouter, WorkSequencer, WritebackUnit
from repro.arch.smache import SmacheFrontEnd
from repro.memory.dram import DRAMModel, DRAMTiming
from repro.reference.kernels import AveragingKernel, StencilKernel
from repro.sim.engine import Simulator
from repro.sim.stats import StatsCollector
from repro.sim.trace import TraceLog

if TYPE_CHECKING:
    from repro.pipeline.compile import CompiledDesign


@dataclass
class SimulationResult:
    """Outcome of running one system for a number of work-instances."""

    design: str
    cycles: int
    iterations: int
    grid_points: int
    dram_words_read: int
    dram_words_written: int
    dram_bytes: int
    operations: int
    output: np.ndarray
    instance_cycles: List[int] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)
    #: Scheduler efficiency counters (engine mode, ticks_executed,
    #: cycles_skipped, skip_ratio, ...).  Kept apart from ``extra`` on
    #: purpose: ``extra`` feeds the canonical campaign output, which must be
    #: byte-identical across engine modes, while these counters describe the
    #: scheduler, not the simulated hardware.
    engine_stats: Dict[str, object] = field(default_factory=dict)

    @property
    def dram_traffic_kib(self) -> float:
        """Total DRAM traffic in KiB (the paper's "KB")."""
        return self.dram_bytes / 1024.0

    @property
    def cycles_per_point(self) -> float:
        """Average cycles per grid point per work-instance."""
        total_points = max(1, self.grid_points * self.iterations)
        return self.cycles / total_points

    def execution_time_us(self, frequency_mhz: float) -> float:
        """Simulated execution time in microseconds at the given clock."""
        if frequency_mhz <= 0:
            raise ValueError("frequency must be positive")
        return self.cycles / frequency_mhz

    def mops(self, frequency_mhz: float) -> float:
        """Millions of kernel operations per second at the given clock."""
        time_us = self.execution_time_us(frequency_mhz)
        if time_us == 0:
            return 0.0
        return self.operations / time_us


# --------------------------------------------------------------------------- #
# Smache system
# --------------------------------------------------------------------------- #
class SmacheSystem:
    """DRAM + Smache front-end + kernel + write-back, ready to run.

    The hardware is built from the compiled design's plan and partition.
    """

    def __init__(
        self,
        design: "CompiledDesign",
        kernel: Optional[StencilKernel] = None,
        iterations: int = 1,
        dram_timing: Optional[DRAMTiming] = None,
        trace: Optional[TraceLog] = None,
        write_through: bool = True,
        engine: Optional[str] = None,
    ) -> None:
        self.design = design
        self.kernel_spec = kernel or AveragingKernel()
        self.iterations = iterations
        self.trace = trace or TraceLog(enabled=False)
        self.stats = StatsCollector("smache_system")
        self.write_through = write_through

        self.plan = design.plan
        self.partition = design.partition
        problem = design.problem
        grid = problem.grid
        n = grid.size

        self.sim = Simulator("smache_system", engine=engine)
        self.dram = DRAMModel(
            self.sim,
            "dram",
            size_words=2 * n,
            word_bytes=grid.word_bytes,
            timing=dram_timing,
            shared_bus=False,
        )
        self.access_table = AccessTable(grid, problem.stencil, problem.boundary)
        self.front_end = SmacheFrontEnd(
            self.sim,
            self.plan,
            partition=self.partition,
            access_table=self.access_table,
            stats=self.stats,
            trace=self.trace,
            write_through=write_through,
        )
        self.kernel = KernelHW(
            self.sim, self.kernel_spec, tuple_in=self.front_end.tuple_out, stats=self.stats
        )
        # One prefetch job per static buffer plus the stream job are queued
        # at once when an instance launches.
        self.read_master = ReadMaster(
            self.sim, self.dram, job_capacity=max(8, len(self.plan.statics) + 1)
        )
        self.router = ResponseRouter(self.sim, self.dram, self.front_end)
        self.writeback = WritebackUnit(
            self.sim, self.dram, self.front_end, self.kernel.result_out
        )
        self.sequencer = WorkSequencer(
            self.sim,
            self.dram,
            self.read_master,
            self.front_end,
            self.writeback,
            grid_words=n,
            iterations=iterations,
            trace=self.trace,
            prefetch_every_instance=not write_through,
        )

    # ------------------------------------------------------------------ #
    def load_input(self, array: np.ndarray) -> None:
        """Place the initial grid into DRAM copy A."""
        array = np.asarray(array, dtype=np.float64)
        shape = self.design.problem.grid.shape
        if array.shape != shape:
            raise ValueError(f"input shape {array.shape} does not match grid {shape}")
        self.dram.preload(0, array.ravel())

    def run(self, max_cycles: int = 50_000_000) -> SimulationResult:
        """Run all work-instances and collect the result."""
        grid = self.design.problem.grid
        n = grid.size
        self.sim.run_until(lambda: self.sequencer.done, max_cycles=max_cycles)
        final_base = self.sequencer.src_base(self.iterations)
        output = self.dram.snapshot(final_base, n).reshape(grid.shape)
        instance_cycles = [
            end - start
            for start, end in zip(
                self.sequencer.instance_start_cycles, self.sequencer.instance_end_cycles
            )
        ]
        return SimulationResult(
            design="smache",
            cycles=self.sim.cycle,
            iterations=self.iterations,
            grid_points=n,
            dram_words_read=self.dram.words_read,
            dram_words_written=self.dram.words_written,
            dram_bytes=self.dram.total_traffic_bytes,
            operations=self.kernel.operations,
            output=output,
            instance_cycles=instance_cycles,
            extra={
                "window_hits": self.front_end.window_hits,
                "static_hits": self.front_end.static_hits,
                "emit_stalls": self.front_end.emit_stall_cycles,
                "input_starved": self.front_end.input_starved_cycles,
                "dram_sequential": self.dram.sequential_accesses,
                "dram_random": self.dram.random_accesses,
                "max_bram_reads_per_cycle": self.front_end.window.max_bram_reads_per_cycle,
            },
            engine_stats=self.sim.run_stats(),
        )


# --------------------------------------------------------------------------- #
# Baseline system
# --------------------------------------------------------------------------- #
class BaselineSystem:
    """DRAM + the no-buffering baseline master."""

    def __init__(
        self,
        design: "CompiledDesign",
        kernel: Optional[StencilKernel] = None,
        iterations: int = 1,
        dram_timing: Optional[DRAMTiming] = None,
        engine: Optional[str] = None,
    ) -> None:
        self.design = design
        self.kernel_spec = kernel or AveragingKernel()
        self.iterations = iterations
        problem = design.problem
        grid = problem.grid
        n = grid.size

        self.sim = Simulator("baseline_system", engine=engine)
        self.dram = DRAMModel(
            self.sim,
            "dram",
            size_words=2 * n,
            word_bytes=grid.word_bytes,
            timing=dram_timing,
            shared_bus=True,
        )
        self.access_table = AccessTable(grid, problem.stencil, problem.boundary)
        self.master = BaselineMaster(
            self.sim,
            self.dram,
            self.access_table,
            self.kernel_spec,
            iterations=iterations,
        )

    # ------------------------------------------------------------------ #
    def load_input(self, array: np.ndarray) -> None:
        """Place the initial grid into DRAM copy A."""
        array = np.asarray(array, dtype=np.float64)
        shape = self.design.problem.grid.shape
        if array.shape != shape:
            raise ValueError(f"input shape {array.shape} does not match grid {shape}")
        self.dram.preload(0, array.ravel())

    def run(self, max_cycles: int = 100_000_000) -> SimulationResult:
        """Run all work-instances and collect the result."""
        grid = self.design.problem.grid
        n = grid.size
        self.sim.run_until(lambda: self.master.done, max_cycles=max_cycles)
        final_base = self.master.src_base(self.iterations)
        output = self.dram.snapshot(final_base, n).reshape(grid.shape)
        return SimulationResult(
            design="baseline",
            cycles=self.sim.cycle,
            iterations=self.iterations,
            grid_points=n,
            dram_words_read=self.dram.words_read,
            dram_words_written=self.dram.words_written,
            dram_bytes=self.dram.total_traffic_bytes,
            operations=self.master.operations,
            output=output,
            extra={
                "dram_sequential": self.dram.sequential_accesses,
                "dram_random": self.dram.random_accesses,
                "points_completed": self.master.points_completed,
            },
            engine_stats=self.sim.run_stats(),
        )


# --------------------------------------------------------------------------- #
# convenience wrappers
# --------------------------------------------------------------------------- #
def run_smache(
    design: "CompiledDesign",
    input_grid: np.ndarray,
    iterations: int = 1,
    kernel: Optional[StencilKernel] = None,
    dram_timing: Optional[DRAMTiming] = None,
    engine: Optional[str] = None,
) -> SimulationResult:
    """Build, load and run a Smache system in one call."""
    system = SmacheSystem(
        design, kernel=kernel, iterations=iterations, dram_timing=dram_timing, engine=engine
    )
    system.load_input(input_grid)
    return system.run()


def run_baseline(
    design: "CompiledDesign",
    input_grid: np.ndarray,
    iterations: int = 1,
    kernel: Optional[StencilKernel] = None,
    dram_timing: Optional[DRAMTiming] = None,
    engine: Optional[str] = None,
) -> SimulationResult:
    """Build, load and run a baseline system in one call."""
    system = BaselineSystem(
        design, kernel=kernel, iterations=iterations, dram_timing=dram_timing, engine=engine
    )
    system.load_input(input_grid)
    return system.run()

"""Complete simulated systems: Smache vs baseline.

A *system* is DRAM plus a design (Smache front-end + kernel + write-back, or
the no-buffering baseline master), assembled on one
:class:`repro.sim.engine.Simulator` and run for a number of work-instances.
Both systems ping-pong between two grid copies in DRAM (read ``k``, write
``k+1``) and both return a :class:`SimulationResult` carrying everything the
evaluation harness needs: cycle count, DRAM traffic, operation count and the
final grid (validated against the NumPy reference in the test-suite).

Everything a system runs comes from its compiled design: the Smache hardware
from the plan and partition, and both systems' kernel from the problem's
``effective_kernel`` unless the caller passes ``kernel=`` (the ``simulate``
backend passes the request's).  One base holds what the systems share (DRAM,
access table, input loading, result assembly); each adds its own hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.arch.baseline import BaselineMaster
from repro.arch.kernel import KernelHW
from repro.arch.shell import ReadMaster, ResponseRouter, WorkSequencer, WritebackUnit
from repro.arch.smache import SmacheFrontEnd
from repro.memory.dram import DRAMModel, DRAMTiming
from repro.reference.kernels import StencilKernel
from repro.reference.stencil_exec import reference_run
from repro.sim.engine import SimulationError, Simulator
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
# what both systems share
# --------------------------------------------------------------------------- #
class _System:
    """The design, kernel, DRAM and access table that both systems share.

    A subclass builds its hardware on :attr:`sim` and :attr:`dram`, sets
    :attr:`control` (the component with ``done`` and ``src_base(k)``) and
    :attr:`datapath` (the one counting ``operations``), and names its
    :meth:`extra` counters.
    """

    #: ``SimulationResult.design`` of this system's runs.
    DESIGN = ""
    #: Cycle budget of :meth:`run` when the caller names none.
    MAX_CYCLES = 0
    #: ``extra`` counters that are peaks, not totals: a repeated instance
    #: leaves them as they are.
    PEAK_EXTRA: FrozenSet[str] = frozenset()

    control: Any
    datapath: Any

    def __init__(
        self,
        design: "CompiledDesign",
        kernel: Optional[StencilKernel],
        iterations: int,
        dram_timing: Optional[DRAMTiming],
        engine: Optional[str],
        *,
        shared_bus: bool,
    ) -> None:
        self.design = design
        problem = design.problem
        self.kernel_spec = problem.effective_kernel if kernel is None else kernel
        self.iterations = iterations
        grid = problem.grid
        self.sim = Simulator(f"{self.DESIGN}_system", engine=engine)
        self.dram = DRAMModel(
            self.sim,
            "dram",
            size_words=2 * grid.size,
            word_bytes=grid.word_bytes,
            timing=dram_timing,
            shared_bus=shared_bus,
        )
        self.access_table = design.access_table
        self.trace = TraceLog(enabled=False)

    def extra(self) -> Dict[str, float]:
        """The system's own hardware counters, for ``SimulationResult.extra``."""
        raise NotImplementedError

    def instance_cycles(self) -> List[int]:
        """Cycles of each completed work-instance."""
        control = self.control
        starts, ends = control.instance_start_cycles, control.instance_end_cycles
        return [end - start for start, end in zip(starts, ends)]

    # ------------------------------------------------------------------ #
    def load_input(self, array: np.ndarray) -> None:
        """Place the initial grid into DRAM copy A."""
        array = np.asarray(array, dtype=np.float64)
        shape = self.design.problem.grid.shape
        if array.shape != shape:
            raise ValueError(f"input shape {array.shape} does not match grid {shape}")
        self.dram.preload(0, array.ravel())

    def run(self, max_cycles: Optional[int] = None) -> SimulationResult:
        """Run all work-instances and collect the result.

        ``max_cycles`` defaults to the system's :attr:`MAX_CYCLES`.  Unless
        the engine is ``naive`` or a trace is recorded, the run stops at
        each instance boundary to take the timing digest and fast-forwards
        once it repeats (see :mod:`repro.sim.engine`); under ``debug`` it
        simulates on and checks the fast-forwarded result field by field.
        """
        budget = self.MAX_CYCLES if max_cycles is None else max_cycles
        sim, control = self.sim, self.control
        predicted = None
        if sim.engine != "naive" and not self.trace.enabled:
            predicted = self._run_to_repeat(budget)
        if predicted is not None and sim.engine != "debug":
            sim.fast_forward(predicted.cycles - sim.cycle, budget)
            predicted.engine_stats = self._engine_stats()
            return predicted
        sim.run_until(lambda: control.done, max_cycles=budget)
        result = self._result()
        if predicted is not None:
            self._check_fast_forward(predicted, result)
        return result

    # ------------------------------------------------------------------ #
    # instance fast-forward
    # ------------------------------------------------------------------ #
    def _run_to_repeat(self, budget: int) -> Optional[SimulationResult]:
        """Simulate instance by instance until the timing digest repeats.

        Once the digest after the last completed instance equals the one
        ``period`` (1 or 2) instances earlier, with instances left to run,
        returns the whole run's result extrapolated from there (no engine
        stats); ``None`` when the digest never repeated or some component
        has none.
        """
        sim, control = self.sim, self.control
        digests: List[Tuple] = []
        totals: List[Dict[str, Any]] = []
        for completed in range(1, self.iterations):
            sim.run_until(
                lambda: len(control.instance_end_cycles) >= completed, max_cycles=budget
            )
            digest = sim.instance_digest()
            if digest is None:
                return None
            digests.append(digest)
            totals.append(self._totals())
            for period in (1, 2):
                if completed > period and digests[-1 - period] == digest:
                    return self._extrapolate(period, totals)
        return None

    def _totals(self) -> Dict[str, Any]:
        """The result's running totals at an instance boundary."""
        dram = self.dram
        return {
            "cycles": self.sim.cycle,
            "dram_words_read": dram.words_read,
            "dram_words_written": dram.words_written,
            "dram_bytes": dram.total_traffic_bytes,
            "operations": self.datapath.operations,
            "extra": self.extra(),
        }

    def _extrapolate(self, period: int, totals: List[Dict[str, Any]]) -> SimulationResult:
        """The result of the whole run, from the first ``len(totals)``
        instances and the knowledge that the rest repeat the last ``period``.

        Counters grow by the last period's deltas (peaks stay), instance
        cycles repeat, and the output continues from the simulated DRAM
        image with the vectorized reference executor, bitwise equal to
        simulating it.
        """
        done = len(totals)
        remaining = self.iterations - done
        repeats, rest = divmod(remaining, period)
        now, before, partial = totals[-1], totals[-1 - period], totals[-1 - period + rest]

        def total(new: Any, old: Any, part: Any, key: str) -> Any:
            if key in self.PEAK_EXTRA:
                return new
            return new + repeats * (new - old) + (part - old)

        counters = {
            key: total(now[key], before[key], partial[key], key)
            for key in now if key != "extra"
        }
        extra = {
            key: total(value, before["extra"][key], partial["extra"][key], key)
            for key, value in now["extra"].items()
        }
        simulated = self.instance_cycles()[:done]
        repeated = simulated[-period:]
        problem = self.design.problem
        grid = problem.grid
        image = self.dram.snapshot(self.control.src_base(done), grid.size)
        output = reference_run(
            image.reshape(grid.shape),
            grid,
            problem.stencil,
            problem.boundary,
            self.kernel_spec,
            iterations=remaining,
        )
        return SimulationResult(
            design=self.DESIGN,
            iterations=self.iterations,
            grid_points=grid.size,
            output=output,
            instance_cycles=simulated + [repeated[i % period] for i in range(remaining)],
            extra=extra,
            **counters,
        )

    def _check_fast_forward(self, predicted: SimulationResult, result: SimulationResult) -> None:
        """Debug engine: the fast-forwarded result must equal the simulated one."""
        for name in _CHECKED_FIELDS:
            expected, actual = getattr(predicted, name), getattr(result, name)
            if name == "output":
                same = expected.shape == actual.shape and expected.tobytes() == actual.tobytes()
            else:
                same = expected == actual
            if not same:
                raise SimulationError(
                    f"simulation '{self.sim.name}': fast-forward predicted {name} "
                    f"{expected!r}, simulation gives {actual!r} — some component's "
                    "instance_digest() leaves out timing state"
                )

    # ------------------------------------------------------------------ #
    def _engine_stats(self) -> Dict[str, object]:
        stats = self.sim.run_stats()
        stats["instances_simulated"] = len(self.control.instance_end_cycles)
        return stats

    def _result(self) -> SimulationResult:
        """The result of a run simulated to its end."""
        grid = self.design.problem.grid
        output = self.dram.snapshot(self.control.src_base(self.iterations), grid.size)
        return SimulationResult(
            design=self.DESIGN,
            cycles=self.sim.cycle,
            iterations=self.iterations,
            grid_points=grid.size,
            dram_words_read=self.dram.words_read,
            dram_words_written=self.dram.words_written,
            dram_bytes=self.dram.total_traffic_bytes,
            operations=self.datapath.operations,
            output=output.reshape(grid.shape),
            instance_cycles=self.instance_cycles(),
            extra=self.extra(),
            engine_stats=self._engine_stats(),
        )


#: ``SimulationResult`` fields a fast-forward must reproduce exactly.
_CHECKED_FIELDS = tuple(f.name for f in fields(SimulationResult) if f.name != "engine_stats")


# --------------------------------------------------------------------------- #
# Smache system
# --------------------------------------------------------------------------- #
class SmacheSystem(_System):
    """DRAM + Smache front-end + kernel + write-back, ready to run.

    The hardware is built from the compiled design's plan and partition.
    """

    DESIGN = "smache"
    MAX_CYCLES = 50_000_000
    PEAK_EXTRA = frozenset({"max_bram_reads_per_cycle"})

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
        super().__init__(design, kernel, iterations, dram_timing, engine, shared_bus=False)
        self.trace = trace if trace is not None else TraceLog(enabled=False)
        self.stats = StatsCollector("smache_system")
        self.write_through = write_through
        self.plan = design.plan
        self.partition = design.partition

        self.front_end = SmacheFrontEnd(
            self.sim,
            self.plan,
            partition=self.partition,
            access_table=self.access_table,
            stats=self.stats,
            trace=self.trace,
            write_through=write_through,
        )
        self.kernel = self.datapath = KernelHW(
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
        self.sequencer = self.control = WorkSequencer(
            self.sim,
            self.dram,
            self.read_master,
            self.front_end,
            self.writeback,
            grid_words=design.problem.grid.size,
            iterations=iterations,
            trace=self.trace,
            prefetch_every_instance=not write_through,
        )

    def extra(self) -> Dict[str, float]:
        """Window/static hits, stalls, DRAM access mix and BRAM port use."""
        return {
            "window_hits": self.front_end.window_hits,
            "static_hits": self.front_end.static_hits,
            "emit_stalls": self.front_end.emit_stall_cycles,
            "input_starved": self.front_end.input_starved_cycles,
            "dram_sequential": self.dram.sequential_accesses,
            "dram_random": self.dram.random_accesses,
            "max_bram_reads_per_cycle": self.front_end.window.max_bram_reads_per_cycle,
        }



# --------------------------------------------------------------------------- #
# Baseline system
# --------------------------------------------------------------------------- #
class BaselineSystem(_System):
    """DRAM + the no-buffering baseline master."""

    DESIGN = "baseline"
    MAX_CYCLES = 100_000_000

    def __init__(
        self,
        design: "CompiledDesign",
        kernel: Optional[StencilKernel] = None,
        iterations: int = 1,
        dram_timing: Optional[DRAMTiming] = None,
        engine: Optional[str] = None,
    ) -> None:
        super().__init__(design, kernel, iterations, dram_timing, engine, shared_bus=True)
        self.master = self.control = self.datapath = BaselineMaster(
            self.sim,
            self.dram,
            self.access_table,
            self.kernel_spec,
            iterations=iterations,
        )

    def extra(self) -> Dict[str, float]:
        """DRAM access mix and completed points."""
        return {
            "dram_sequential": self.dram.sequential_accesses,
            "dram_random": self.dram.random_accesses,
            "points_completed": self.master.points_completed,
        }


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

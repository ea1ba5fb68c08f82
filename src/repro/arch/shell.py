"""Shell components around the Smache front-end.

These model the parts of the design that the paper treats as "shell logic":
the DRAM read master that keeps the contiguous stream going, the response
router that separates warm-up prefetch data from stream data, the write-back
unit that returns kernel results to DRAM (and to FSM-3 for write-through), and
the work-instance sequencer that runs the kernel the requested number of
times (the paper's experiment runs it 100 times).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.arch.kernel import KernelResult
from repro.arch.smache import SmacheFrontEnd
from repro.memory.dram import DRAMCommand, DRAMModel, DRAMResponse
from repro.sim.channel import Channel
from repro.sim.engine import Component, Simulator
from repro.sim.fsm import FSM
from repro.sim.trace import TraceLog

#: Response tags used to route read data.
TAG_STREAM = 0
TAG_PREFETCH = 1


@dataclass(frozen=True)
class ReadJob:
    """A contiguous read burst to be issued by the read master."""

    base: int
    length: int
    tag: int


class ReadMaster(Component):
    """Issues contiguous DRAM read bursts, one word per cycle."""

    def __init__(self, sim: Simulator, dram: DRAMModel, name: str = "read_master",
                 job_capacity: int = 8) -> None:
        super().__init__(sim, name)
        self.dram = dram
        self.jobs: Channel = self.channel("jobs", job_capacity)
        self._read_cmd = dram.read_cmd
        self._current: Optional[ReadJob] = None
        self._next_addr = 0
        self._remaining = 0
        self.words_requested = 0

    def reset(self) -> None:
        self._current = None
        self._next_addr = 0
        self._remaining = 0
        self.words_requested = 0

    def finished(self) -> bool:
        return self._current is None and not self.jobs.can_pop()

    def tick(self) -> None:
        job = self._current
        if job is None:
            if not self.jobs.can_pop():
                return
            job = self._current = self.jobs.pop()
            self._next_addr = job.base
            self._remaining = job.length
        if self._remaining > 0:
            read_cmd = self._read_cmd
            if read_cmd.can_push():
                read_cmd.push(DRAMCommand("read", self._next_addr, tag=job.tag))
                self._next_addr += 1
                self._remaining -= 1
                self.words_requested += 1
            else:
                read_cmd.note_push_stall()
        if self._remaining == 0:
            self._current = None

    # ------------------------------------------------------------------ #
    # idle-horizon protocol
    # ------------------------------------------------------------------ #
    def next_activity(self):
        if self._current is not None:
            # A job in progress always has words left between cycles (the
            # last word clears the job within the same tick it is pushed).
            return self.sim.cycle if self._read_cmd.can_push() else None
        return self.sim.cycle if self.jobs.can_pop() else None

    def skip(self, cycles: int) -> None:
        if self._current is not None and not self._read_cmd.can_push():
            self._read_cmd.note_push_stall(cycles)

    def skip_digest(self):
        return (self._current, self._next_addr, self._remaining, self.words_requested)


class ResponseRouter(Component):
    """Routes DRAM read data to the stream or prefetch input of the front-end."""

    def __init__(self, sim: Simulator, dram: DRAMModel, smache: SmacheFrontEnd,
                 name: str = "router") -> None:
        super().__init__(sim, name)
        self.dram = dram
        self.smache = smache
        self._read_rsp = dram.read_rsp
        self._prefetch_in = smache.prefetch_in
        self._stream_in = smache.stream_in
        self.routed_stream = 0
        self.routed_prefetch = 0

    def reset(self) -> None:
        self.routed_stream = 0
        self.routed_prefetch = 0

    def finished(self) -> bool:
        return not self._read_rsp.can_pop()

    def tick(self) -> None:
        read_rsp = self._read_rsp
        if not read_rsp.can_pop():
            return
        rsp: DRAMResponse = read_rsp.peek()
        if rsp.tag == TAG_PREFETCH:
            if self._prefetch_in.can_push():
                read_rsp.pop()
                self._prefetch_in.push(rsp.data)
                self.routed_prefetch += 1
        elif self._stream_in.can_push():
            read_rsp.pop()
            self._stream_in.push(rsp.data)
            self.routed_stream += 1

    # ------------------------------------------------------------------ #
    # idle-horizon protocol
    # ------------------------------------------------------------------ #
    def next_activity(self):
        if not self._read_rsp.can_pop():
            return None
        rsp: DRAMResponse = self._read_rsp.peek()
        target = self._prefetch_in if rsp.tag == TAG_PREFETCH else self._stream_in
        return self.sim.cycle if target.can_push() else None

    def skip_digest(self):
        return (self.routed_stream, self.routed_prefetch)


class WritebackUnit(Component):
    """Returns kernel results to DRAM and feeds FSM-3's write-through path."""

    def __init__(
        self,
        sim: Simulator,
        dram: DRAMModel,
        smache: Optional[SmacheFrontEnd],
        result_channel: Channel,
        name: str = "writeback",
    ) -> None:
        super().__init__(sim, name)
        self.dram = dram
        self.smache = smache
        self.result_channel = result_channel
        self._write_cmd = dram.write_cmd
        #: FSM-3's write-through input, when there is a front-end to feed.
        self._result_in = smache.result_in if smache is not None else None
        self.dst_base = 0
        self.results_written = 0

    def reset(self) -> None:
        self.dst_base = 0
        self.results_written = 0

    def finished(self) -> bool:
        return not self.result_channel.can_pop()

    def set_destination(self, dst_base: int) -> None:
        """Point the write-back at the destination grid copy for this instance."""
        self.dst_base = dst_base

    def tick(self) -> None:
        if not self.result_channel.can_pop():
            return
        write_cmd = self._write_cmd
        if not write_cmd.can_push():
            write_cmd.note_push_stall()
            return
        result_in = self._result_in
        if result_in is not None and not result_in.can_push():
            return
        result: KernelResult = self.result_channel.pop()
        write_cmd.push(DRAMCommand("write", self.dst_base + result.index, result.value))
        if result_in is not None:
            result_in.push(result)
        self.results_written += 1

    # ------------------------------------------------------------------ #
    # idle-horizon protocol
    # ------------------------------------------------------------------ #
    def next_activity(self):
        if not self.result_channel.can_pop():
            return None
        if not self._write_cmd.can_push():
            return None  # stall bookkeeping only; reproduced by skip()
        if self._result_in is not None and not self._result_in.can_push():
            return None
        return self.sim.cycle

    def skip(self, cycles: int) -> None:
        if self.result_channel.can_pop() and not self._write_cmd.can_push():
            self._write_cmd.note_push_stall(cycles)

    def skip_digest(self):
        return (self.dst_base, self.results_written)


class WorkSequencer(Component):
    """Runs the requested number of work-instances back to back.

    Responsibilities: issue the warm-up prefetch jobs before the first
    instance, issue the stream read job of every instance, ping-pong the
    source/destination grid copies, swap the static buffers at instance
    boundaries and detect completion.
    """

    def __init__(
        self,
        sim: Simulator,
        dram: DRAMModel,
        read_master: ReadMaster,
        smache: SmacheFrontEnd,
        writeback: WritebackUnit,
        grid_words: int,
        iterations: int,
        base_a: int = 0,
        base_b: Optional[int] = None,
        name: str = "sequencer",
        trace: Optional[TraceLog] = None,
        prefetch_every_instance: bool = False,
    ) -> None:
        super().__init__(sim, name)
        self.dram = dram
        self.read_master = read_master
        self.smache = smache
        self.writeback = writeback
        self.grid_words = grid_words
        self.iterations = iterations
        #: When True (write-through ablation), the static buffers are reloaded
        #: from DRAM at the start of every work-instance, not just the first.
        self.prefetch_every_instance = prefetch_every_instance
        self.base_a = base_a
        self.base_b = base_b if base_b is not None else base_a + grid_words
        self.trace = trace or TraceLog(enabled=False)

        self.fsm = FSM("sequencer", ["INIT", "WAIT", "DONE"], "INIT")
        self.current_instance = 0
        self.instance_start_cycles: List[int] = []
        self.instance_end_cycles: List[int] = []

    # ------------------------------------------------------------------ #
    def src_base(self, instance: int) -> int:
        """DRAM base address of the grid copy read by ``instance``."""
        return self.base_a if instance % 2 == 0 else self.base_b

    def dst_base(self, instance: int) -> int:
        """DRAM base address of the grid copy written by ``instance``."""
        return self.base_b if instance % 2 == 0 else self.base_a

    @property
    def done(self) -> bool:
        """True when every work-instance has completed (at once for none)."""
        return self.iterations == 0 or self.fsm.is_in("DONE")

    def finished(self) -> bool:
        return self.done

    def reset(self) -> None:
        self.fsm.reset()
        self.current_instance = 0
        self.instance_start_cycles = []
        self.instance_end_cycles = []

    # ------------------------------------------------------------------ #
    def _launch_instance(self, instance: int) -> None:
        now = self.sim.cycle
        src = self.src_base(instance)
        if instance == 0 or self.prefetch_every_instance:
            for spec in self.smache.plan.statics:
                self.read_master.jobs.push(
                    ReadJob(base=src + spec.start, length=spec.length, tag=TAG_PREFETCH)
                )
        self.read_master.jobs.push(ReadJob(base=src, length=self.grid_words, tag=TAG_STREAM))
        self.writeback.set_destination(self.dst_base(instance))
        self.smache.start_work_instance(instance)
        self.instance_start_cycles.append(now)
        self.trace.record(now, self.name, "launch_instance", instance)

    def tick(self) -> None:
        fsm = self.fsm
        fsm.tick()
        if self.iterations == 0:
            fsm.go("DONE", self.sim.cycle)
            return
        if fsm.is_in("INIT"):
            self._launch_instance(0)
            fsm.go("WAIT", self.sim.cycle)
            return
        if fsm.is_in("WAIT"):
            expected_writes = (self.current_instance + 1) * self.grid_words
            if self.dram.writes_completed >= expected_writes:
                now = self.sim.cycle
                self.smache.end_work_instance()
                self.instance_end_cycles.append(now)
                self.current_instance += 1
                if self.current_instance >= self.iterations:
                    fsm.go("DONE", now)
                else:
                    self._launch_instance(self.current_instance)

    # ------------------------------------------------------------------ #
    # idle-horizon protocol
    # ------------------------------------------------------------------ #
    def next_activity(self):
        now = self.sim.cycle
        if self.iterations == 0:
            return now if not self.fsm.is_in("DONE") else None
        if self.fsm.is_in("INIT"):
            return now
        if self.fsm.is_in("WAIT"):
            # dram.writes_completed can only move when the DRAM itself acts,
            # and the DRAM reports that activity — inside a dead region the
            # count is frozen, so waiting on it is not self-scheduled work.
            expected_writes = (self.current_instance + 1) * self.grid_words
            return now if self.dram.writes_completed >= expected_writes else None
        return None  # DONE

    def skip(self, cycles: int) -> None:
        self.fsm.skip(cycles)

    def skip_digest(self):
        return (self.fsm.state, self.current_instance, len(self.instance_end_cycles))

"""The no-buffering baseline design.

This is the comparison point of the paper's Figure 2: a straightforward
master that, for every grid point of every work-instance, reads each stencil
operand from DRAM, computes the kernel and writes the result back.  It has no
on-chip stencil buffers, so it performs ``n_points`` word reads per grid point
(4x redundancy for the 4-point stencil) and its access pattern is not
contiguous, which in the paper's argument is exactly what breaks sustained
DRAM bandwidth.

To keep the comparison fair the baseline is still *pipelined*: it issues read
requests back-to-back and overlaps the kernel computation and the result
write with subsequent reads.  The bottleneck is the shared DRAM command bus
(one transaction per cycle), which matches the paper's observed ~5 cycles per
grid point.

Open-boundary operands, which do not exist, are handled the way a naive HDL
master handles them: the address calculation clamps to the centre element and
the fetched word is ignored by the kernel.  The word is still transferred, so
the baseline's DRAM traffic is exactly ``(n_points + 1) * N`` words per
work-instance, matching the paper's traffic accounting.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import compress
from typing import Deque, List, Optional, Tuple

from repro.arch.access_table import AccessTable
from repro.core.boundary import ResolutionKind
from repro.memory.dram import DRAMCommand, DRAMModel
from repro.reference.kernels import StencilKernel
from repro.sim.engine import Component, Simulator
from repro.sim.stats import StatsCollector


@dataclass(frozen=True)
class _FetchPlanEntry:
    """Pre-resolved fetch schedule for one grid point."""

    linear: int
    fetch_offsets: Tuple[int, ...]          # relative addresses to fetch (length == n_points)
    participate: Tuple[bool, ...]           # does fetch i feed the kernel?
    # grid offsets of the participating fetches, then of the constants
    kernel_offsets: Tuple[Tuple[int, ...], ...]
    constant_values: Tuple[float, ...]


def build_fetch_plan(table: AccessTable) -> List[_FetchPlanEntry]:
    """Translate an access table into the baseline's per-point fetch schedule."""
    plan: List[_FetchPlanEntry] = []
    for linear in range(len(table)):
        point = table[linear]
        fetch_rel: List[int] = []
        participate: List[bool] = []
        offsets: List[Tuple[int, ...]] = []
        const_offsets: List[Tuple[int, ...]] = []
        const_values: List[float] = []
        for acc in point.accesses:
            if acc.kind is ResolutionKind.CONSTANT:
                # no fetch needed; the constant is injected at compute time,
                # but the naive master still issues a (dummy) centre read to
                # keep its fetch schedule regular.
                fetch_rel.append(linear)
                participate.append(False)
                const_offsets.append(acc.offset)
                const_values.append(float(acc.constant))
            elif acc.kind is ResolutionKind.SKIPPED:
                fetch_rel.append(linear)
                participate.append(False)
            else:
                fetch_rel.append(acc.target)
                participate.append(True)
                offsets.append(acc.offset)
        plan.append(
            _FetchPlanEntry(
                linear=linear,
                fetch_offsets=tuple(fetch_rel),
                participate=tuple(participate),
                kernel_offsets=tuple(offsets + const_offsets),
                constant_values=tuple(const_values),
            )
        )
    return plan


class BaselineMaster(Component):
    """Issues reads, collects operands, computes and writes back — no buffers."""

    def __init__(
        self,
        sim: Simulator,
        dram: DRAMModel,
        table: AccessTable,
        kernel: StencilKernel,
        iterations: int,
        base_a: int = 0,
        base_b: Optional[int] = None,
        name: str = "baseline",
        stats: Optional[StatsCollector] = None,
    ) -> None:
        super().__init__(sim, name)
        self.dram = dram
        self.table = table
        self.kernel = kernel
        self.iterations = iterations
        self.grid_words = len(table)
        self.base_a = base_a
        self.base_b = base_b if base_b is not None else base_a + self.grid_words
        self.stats = stats or StatsCollector(name)
        self.fetch_plan = build_fetch_plan(table)
        self._read_cmd = dram.read_cmd
        self._read_rsp = dram.read_rsp
        self._write_cmd = dram.write_cmd

        # request side
        self._req_instance = 0
        self._req_point = 0
        self._req_operand = 0
        # response / compute side
        self._rsp_instance = 0
        self._rsp_point = 0
        self._collected: List[float] = []
        self._compute_pipe: Deque[Tuple[int, int, float]] = deque()  # (ready, addr, value)
        self._writes_issued = 0

        self.operations = 0
        self.points_completed = 0

    # ------------------------------------------------------------------ #
    def src_base(self, instance: int) -> int:
        """DRAM base address of the grid copy read by ``instance``."""
        return self.base_a if instance % 2 == 0 else self.base_b

    def dst_base(self, instance: int) -> int:
        """DRAM base address of the grid copy written by ``instance``."""
        return self.base_b if instance % 2 == 0 else self.base_a

    @property
    def done(self) -> bool:
        """True when every work-instance has been computed and written."""
        return (
            self._req_instance >= self.iterations
            and self._rsp_instance >= self.iterations
            and not self._compute_pipe
            and self.dram.writes_completed >= self.iterations * self.grid_words
        )

    def finished(self) -> bool:
        return self.done

    def reset(self) -> None:
        self._req_instance = 0
        self._req_point = 0
        self._req_operand = 0
        self._rsp_instance = 0
        self._rsp_point = 0
        self._collected = []
        self._compute_pipe.clear()
        self._writes_issued = 0
        self.operations = 0
        self.points_completed = 0

    # ------------------------------------------------------------------ #
    def _request_allowed(self) -> bool:
        """A new instance may only start once the previous one is fully in DRAM."""
        if self._req_instance >= self.iterations:
            return False
        if self._req_point == 0 and self._req_operand == 0 and self._req_instance > 0:
            return self.dram.writes_completed >= self._req_instance * self.grid_words
        return True

    # ------------------------------------------------------------------ #
    # idle-horizon protocol
    # ------------------------------------------------------------------ #
    def next_activity(self):
        now = self.sim.cycle
        if self.iterations == 0:
            return None
        # _request_allowed gates on dram.writes_completed, which can only
        # move when the DRAM itself acts (and reports that activity), so it
        # is frozen inside any dead region.
        if self._request_allowed() and self._read_cmd.can_push():
            return now
        if self._rsp_instance < self.iterations and self._read_rsp.can_pop():
            return now
        if self._compute_pipe:
            ready = self._compute_pipe[0][0]
            if ready > now:
                return ready  # self-scheduled kernel-latency expiry
            if self._write_cmd.can_push():
                return now
        return None

    def skip_digest(self):
        return (
            self._req_instance,
            self._req_point,
            self._req_operand,
            self._rsp_instance,
            self._rsp_point,
            len(self._collected),
            len(self._compute_pipe),
            self._writes_issued,
        )

    def tick(self) -> None:
        if self.iterations == 0:
            return
        now = self.sim.cycle
        fetch_plan = self.fetch_plan
        # Issue at most one read request per cycle.
        read_cmd = self._read_cmd
        if self._request_allowed() and read_cmd.can_push():
            point = self._req_point
            operand = self._req_operand
            fetch_offsets = fetch_plan[point].fetch_offsets
            base = self.base_a if self._req_instance % 2 == 0 else self.base_b
            read_cmd.push(DRAMCommand("read", base + fetch_offsets[operand], tag=point))
            operand += 1
            if operand >= len(fetch_offsets):
                operand = 0
                point += 1
                if point >= self.grid_words:
                    point = 0
                    self._req_instance += 1
                self._req_point = point
            self._req_operand = operand

        # Collect at most one response per cycle.
        read_rsp = self._read_rsp
        if self._rsp_instance < self.iterations and read_rsp.can_pop():
            collected = self._collected
            collected.append(read_rsp.pop().data)
            entry = fetch_plan[self._rsp_point]
            if len(collected) == len(entry.fetch_offsets):
                kernel = self.kernel
                values = tuple(compress(collected, entry.participate)) + entry.constant_values
                result = kernel.apply(entry.kernel_offsets, values)
                self.operations += kernel.ops_per_point
                self.stats.incr("kernel_ops", kernel.ops_per_point)
                dst = (self.base_b if self._rsp_instance % 2 == 0 else self.base_a) + entry.linear
                self._compute_pipe.append((now + kernel.latency, dst, result))
                self._collected = []
                self._rsp_point += 1
                self.points_completed += 1
                if self._rsp_point >= self.grid_words:
                    self._rsp_point = 0
                    self._rsp_instance += 1

        # Issue at most one write per cycle once the kernel latency has elapsed.
        pipe = self._compute_pipe
        if pipe and pipe[0][0] <= now and self._write_cmd.can_push():
            _, addr, value = pipe.popleft()
            self._write_cmd.push(DRAMCommand("write", addr, value))
            self._writes_issued += 1

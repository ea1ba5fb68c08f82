"""On-chip block RAM (BRAM / M20K-style) model.

The functional behaviour is a plain word array; what matters for the
reproduction is the *port discipline*: a simple dual-port BRAM supports one
read and one write per cycle.  The paper's hybrid stream buffer is designed so
the BRAM-resident part of the window only ever needs a single sequential read
per cycle.  :class:`BRAMModel` raises :class:`PortConflictError` when a
caller exceeds the port budget within one cycle, but no simulated system
instantiates it: the claim is checked by
:class:`repro.arch.stream_buffer.WindowBuffer`'s own port accounting.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.utils.validation import check_non_negative, check_positive


class PortConflictError(RuntimeError):
    """An architecture model exceeded the BRAM's per-cycle port budget."""


class BRAMModel:
    """A synchronous word-wide memory with a per-cycle port budget."""

    def __init__(
        self,
        name: str,
        depth: int,
        word_bits: int = 32,
        read_ports: int = 1,
        write_ports: int = 1,
    ) -> None:
        check_positive("depth", depth)
        check_positive("word_bits", word_bits)
        check_positive("read_ports", read_ports)
        check_non_negative("write_ports", write_ports)
        self.name = name
        self.depth = depth
        self.word_bits = word_bits
        self.read_ports = read_ports
        self.write_ports = write_ports
        self.storage = np.zeros(depth, dtype=np.float64)

        self._cycle: Optional[int] = None
        self._reads_this_cycle = 0
        self._writes_this_cycle = 0

        self.total_reads = 0
        self.total_writes = 0
        self.max_reads_in_cycle = 0
        self.max_writes_in_cycle = 0

    # ------------------------------------------------------------------ #
    @property
    def total_bits(self) -> int:
        """Storage capacity in bits (used by the resource model)."""
        return self.depth * self.word_bits

    def _advance(self, cycle: int) -> None:
        if cycle != self._cycle:
            self._cycle = cycle
            self._reads_this_cycle = 0
            self._writes_this_cycle = 0

    # ------------------------------------------------------------------ #
    def read(self, addr: int, cycle: int) -> float:
        """Read one word; counts against the cycle's read-port budget."""
        self._advance(cycle)
        if self._reads_this_cycle >= self.read_ports:
            raise PortConflictError(
                f"BRAM '{self.name}': more than {self.read_ports} read(s) in cycle {cycle}"
            )
        if not (0 <= addr < self.depth):
            raise IndexError(f"BRAM '{self.name}' read address {addr} out of range")
        self._reads_this_cycle += 1
        self.total_reads += 1
        self.max_reads_in_cycle = max(self.max_reads_in_cycle, self._reads_this_cycle)
        return float(self.storage[addr])

    def write(self, addr: int, data: float, cycle: int) -> None:
        """Write one word; counts against the cycle's write-port budget."""
        self._advance(cycle)
        if self._writes_this_cycle >= self.write_ports:
            raise PortConflictError(
                f"BRAM '{self.name}': more than {self.write_ports} write(s) in cycle {cycle}"
            )
        if not (0 <= addr < self.depth):
            raise IndexError(f"BRAM '{self.name}' write address {addr} out of range")
        self._writes_this_cycle += 1
        self.total_writes += 1
        self.max_writes_in_cycle = max(self.max_writes_in_cycle, self._writes_this_cycle)
        self.storage[addr] = data

    # ------------------------------------------------------------------ #
    def fill(self, values) -> None:
        """Load contents directly (configuration/warm-up helper, no port cost)."""
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size > self.depth:
            raise ValueError("fill data larger than the BRAM")
        self.storage[: values.size] = values

    def reset(self) -> None:
        """Clear contents and statistics."""
        self.storage[:] = 0.0
        self._cycle = None
        self._reads_this_cycle = 0
        self._writes_this_cycle = 0
        self.total_reads = 0
        self.total_writes = 0
        self.max_reads_in_cycle = 0
        self.max_writes_in_cycle = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BRAMModel({self.name!r}, depth={self.depth}, {self.word_bits}b)"


class BRAMFifo:
    """A FIFO built on top of a :class:`BRAMModel` (one window segment).

    This is how the bulk of the hybrid stream buffer is realised: a circular
    FIFO that performs at most one read and one write per cycle.
    """

    def __init__(self, name: str, depth: int, word_bits: int = 32) -> None:
        self.bram = BRAMModel(name, depth=max(1, depth), word_bits=word_bits)
        self.depth = depth
        self._head = 0
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def full(self) -> bool:
        """True when the FIFO holds ``depth`` items."""
        return self._count >= self.depth

    def push(self, value: float, cycle: int) -> Optional[float]:
        """Push a value; if full, the oldest value is popped and returned.

        This shift-through behaviour is exactly what the window buffer needs:
        one write plus at most one read per cycle.
        """
        evicted: Optional[float] = None
        if self.depth == 0:
            return value
        if self.full:
            evicted = self.bram.read(self._head, cycle)
            self.bram.write(self._head, value, cycle)
            self._head = (self._head + 1) % self.depth
        else:
            tail = (self._head + self._count) % self.depth
            self.bram.write(tail, value, cycle)
            self._count += 1
        return evicted

    def reset(self) -> None:
        """Clear the FIFO."""
        self.bram.reset()
        self._head = 0
        self._count = 0
